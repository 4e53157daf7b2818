#include "spacefts/campaign/campaign.hpp"

#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "spacefts/datagen/ngst.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/metrics/aggregate.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"
#include "sweep.hpp"

namespace spacefts::campaign {
namespace {

/// Side of every trial's square scene, in pixels (small: CI-speed).
constexpr std::size_t kSceneSide = 32;

/// One grid point, in the fixed Γ₀-major enumeration order.
struct Cell {
  double gamma0;
  double crash_prob;
  double link_loss;
  double lambda;
};

void validate(const CampaignConfig& config) {
  check_axis(config.gamma0_grid, "campaign", "gamma0", 0.0, 1.0);
  check_axis(config.crash_grid, "campaign", "crash", 0.0, 1.0);
  check_axis(config.link_loss_grid, "campaign", "link_loss", 0.0, 1.0);
  check_axis(config.lambda_grid, "campaign", "lambda", 0.0, 100.0);
  if (config.trials == 0) {
    throw std::invalid_argument("campaign: trials must be > 0");
  }
  if (config.frames == 0 || config.fragment_side == 0 ||
      kSceneSide % config.fragment_side != 0) {
    throw std::invalid_argument(
        "campaign: fragment_side must divide the 32-pixel scene side");
  }
}

std::vector<Cell> enumerate_cells(const CampaignConfig& config) {
  std::vector<Cell> cells;
  cells.reserve(config.gamma0_grid.size() * config.crash_grid.size() *
                config.link_loss_grid.size() * config.lambda_grid.size());
  for (double g : config.gamma0_grid)
    for (double c : config.crash_grid)
      for (double l : config.link_loss_grid)
        for (double lam : config.lambda_grid)
          cells.push_back({g, c, l, lam});
  return cells;
}

/// One seeded pipeline run; an empty optional is a trial that died.
std::optional<dist::PipelineResult> run_trial(const CampaignConfig& config,
                                              const Cell& cell,
                                              std::uint64_t seed) {
  SPACEFTS_TSPAN("campaign.trial", {"gamma0", cell.gamma0},
                 {"lambda", cell.lambda});
  try {
    datagen::NgstSimulator gen(seed);
    datagen::SceneParams scene;
    scene.width = kSceneSide;
    scene.height = kSceneSide;
    auto readouts = gen.stack(config.frames, scene);

    // Route the generated baseline through the ingest guard at Λ = 0, as a
    // flight master would before scattering: the container roundtrip is
    // lossless and sanity-only mode never touches pixels, so the pipeline
    // input (and every campaign artifact) is bit-identical to feeding the
    // stack directly — but the run now exercises, and traces, the real
    // ingest path.
    ingest::IngestConfig ic;
    ic.expectation.bitpix = 16;
    ic.expectation.width = static_cast<std::int64_t>(kSceneSide);
    ic.expectation.height = static_cast<std::int64_t>(kSceneSide);
    ic.algo.lambda = 0.0;
    const ingest::IngestGuard guard(ic);
    ingest::IngestResult ingested = guard.ingest(ingest::IngestGuard::pack(readouts));
    if (!ingested.ok) {
      throw std::runtime_error("campaign: ingest rejected a clean baseline: " +
                               ingested.error);
    }
    readouts = std::move(ingested.stack);

    dist::PipelineConfig pc;
    pc.workers = config.workers;
    pc.fragment_side = config.fragment_side;
    pc.gamma0 = cell.gamma0;
    pc.worker_crash_prob = cell.crash_prob;
    pc.link.faults = fault::link_loss_faults(cell.link_loss);
    pc.preprocess = config.preprocess;
    pc.algo.lambda = cell.lambda;
    pc.max_link_retries = config.max_link_retries;

    common::Rng rng = gen.rng().split();
    return dist::run_pipeline(readouts, pc, rng);
  } catch (const std::exception&) {
    // A throwing pipeline is precisely the regression the campaign exists
    // to catch; record the death and keep sweeping.
    return std::nullopt;
  }
}

// The JSONL double formatting shared by every exporter in the tree.
using telemetry::jsonl::append_fmt;

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  validate(config);
  const std::vector<Cell> cells = enumerate_cells(config);
  SPACEFTS_TSPAN("campaign.run", {"cells", static_cast<double>(cells.size())},
                 {"trials", static_cast<double>(config.trials)});
  const auto records = run_trials(
      cells.size(), config.trials, config.seed, config.threads,
      [&](std::size_t cell, std::uint64_t seed) {
        return run_trial(config, cells[cell], seed);
      });

  CampaignReport report;
  report.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellResult cr;
    cr.gamma0 = cells[c].gamma0;
    cr.crash_prob = cells[c].crash_prob;
    cr.link_loss = cells[c].link_loss;
    cr.lambda = cells[c].lambda;
    cr.trials = config.trials;

    metrics::RunningStats coverage, makespan;
    std::size_t corrected = 0;
    for (std::size_t t = 0; t < config.trials; ++t) {
      const auto& rec = records[c * config.trials + t];
      report.trials_run += 1;
      if (!rec) continue;
      report.trials_survived += 1;
      cr.survived += 1;
      coverage.add(rec->coverage);
      makespan.add(rec->makespan_s);
      corrected += rec->pixels_corrected;
      cr.faults_injected += rec->faults_injected;
      cr.worker_crashes += rec->worker_crashes;
      cr.messages_dropped += rec->messages_dropped;
      cr.messages_corrupted += rec->messages_corrupted;
      cr.crc_failures += rec->crc_failures;
      cr.byzantine_rejected += rec->byzantine_rejected;
      cr.link_retries += rec->link_retries;
      cr.degraded_fragments += rec->degraded_fragments;
    }
    cr.mean_coverage = coverage.count() ? coverage.mean() : 0.0;
    cr.min_coverage = coverage.count() ? coverage.min() : 0.0;
    if (cr.faults_injected > 0) {
      cr.correction_rate = static_cast<double>(corrected) /
                           static_cast<double>(cr.faults_injected);
    }
    const std::size_t pixel_frames =
        cr.survived * kSceneSide * kSceneSide * config.frames;
    if (cells[c].gamma0 == 0.0 && pixel_frames > 0) {
      cr.false_alarm_per_mpixel =
          static_cast<double>(corrected) /
          (static_cast<double>(pixel_frames) / 1.0e6);
      // On clean memory every "correction" is by definition a false alarm.
      telemetry::counter("campaign.false_alarms").add(corrected);
    }
    cr.mean_makespan_s = makespan.mean();
    cr.max_makespan_s = makespan.max();
    report.cells.push_back(cr);
  }
  telemetry::counter("campaign.trials_run").add(report.trials_run);
  telemetry::counter("campaign.trials_failed")
      .add(report.trials_run - report.trials_survived);
  return report;
}

/// The fault_campaign row of one cell.
template <typename Visit>
void fields(const CellResult& c, Visit&& visit) {
  visit("bench", "fault_campaign");
  visit("gamma0", c.gamma0);
  visit("crash_prob", c.crash_prob);
  visit("link_loss", c.link_loss);
  visit("lambda", c.lambda);
  visit("trials", c.trials);
  visit("survived", c.survived);
  visit("mean_coverage", c.mean_coverage);
  visit("min_coverage", c.min_coverage);
  visit("correction_rate", c.correction_rate);
  visit("false_alarm_per_mpixel", c.false_alarm_per_mpixel);
  visit("mean_makespan_s", c.mean_makespan_s);
  visit("max_makespan_s", c.max_makespan_s);
  visit("faults_injected", c.faults_injected);
  visit("worker_crashes", c.worker_crashes);
  visit("messages_dropped", c.messages_dropped);
  visit("messages_corrupted", c.messages_corrupted);
  visit("crc_failures", c.crc_failures);
  visit("byzantine_rejected", c.byzantine_rejected);
  visit("link_retries", c.link_retries);
  visit("degraded_fragments", c.degraded_fragments);
}

std::string to_jsonl(const CampaignReport& report) {
  return telemetry::jsonl::to_lines(report.cells);
}

std::string campaign_row_key(std::string_view line) {
  namespace jsonl = telemetry::jsonl;
  std::string key = jsonl::json_field(line, "bench");
  for (const char* axis : {"workload", "gamma0", "crash_prob", "link_loss",
                           "lambda", "fault_rate", "shadow_rate"}) {
    key += '|';
    key += jsonl::json_field(line, axis);
  }
  return key;
}

std::size_t enforce(const CampaignReport& report, std::string& diagnostics) {
  std::size_t violations = 0;
  for (const CellResult& c : report.cells) {
    char head[160];
    std::snprintf(head, sizeof(head),
                  "cell gamma0=%.4g crash=%.4g link_loss=%.4g lambda=%.4g: ",
                  c.gamma0, c.crash_prob, c.link_loss, c.lambda);
    if (c.survived < c.trials) {
      ++violations;
      diagnostics += head;
      diagnostics += std::to_string(c.trials - c.survived) + " of " +
                     std::to_string(c.trials) + " trials did not survive\n";
    }
    if (c.gamma0 == 0.0 && c.min_coverage < 1.0) {
      ++violations;
      diagnostics += head;
      append_fmt(diagnostics, "coverage %.10g < 1 on a clean-memory cell\n",
          c.min_coverage);
    }
  }
  return violations;
}

}  // namespace spacefts::campaign
