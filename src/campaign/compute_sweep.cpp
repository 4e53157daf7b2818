#include "spacefts/campaign/compute_sweep.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "spacefts/backend/backend.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"
#include "sweep.hpp"

namespace spacefts::campaign {
namespace {

/// Sub-stream indices under the sweep's master seed.  Fixed so rows stay
/// byte-stable across refactors.
enum SweepStream : std::uint64_t {
  kStreamDataset = 0,  ///< per-request scene synthesis
  kStreamFaults = 1,   ///< compute-fault plans (shared by every cell)
  kStreamShadow = 2,   ///< shadow sampling (shared by every cell)
};

void validate(const ComputeSweepConfig& config) {
  check_axis(config.fault_rate_grid, "compute_sweep", "fault_rate", 0.0, 1.0);
  check_axis(config.shadow_rate_grid, "compute_sweep", "shadow_rate", 0.0,
             1.0);
  if (config.requests == 0) {
    throw std::invalid_argument("compute_sweep: requests must be > 0");
  }
  if (config.side == 0 || config.frames < 3) {
    throw std::invalid_argument(
        "compute_sweep: need side > 0 and >= 3 frames");
  }
}

}  // namespace

ComputeSweepReport run_compute_sweep(const ComputeSweepConfig& config) {
  validate(config);
  SPACEFTS_TSPAN("campaign.compute_sweep",
                 {"cells", static_cast<double>(config.fault_rate_grid.size() *
                                               config.shadow_rate_grid.size())});

  core::AlgoNgstConfig algo;
  algo.lambda = config.lambda;
  datagen::SceneParams scene;
  scene.width = config.side;
  scene.height = config.side;

  // Fault and shadow streams are fixed across cells (only the *rates*
  // vary), so a corruption that escapes at shadow 0.5 is the same physical
  // corruption the guard catches at 1.0 — which is what makes the
  // detected-vs-escaped curve a curve and not nine unrelated experiments.
  fault::ComputeFaultConfig fault_base;
  fault_base.seed = common::derive_stream_seed(config.seed, kStreamFaults, 0);
  fault_base.stall_ms = 2.0;  // keep the loud-fault leg CI-fast

  ComputeSweepReport report;
  for (const double fault_rate : config.fault_rate_grid) {
    for (const double shadow_rate : config.shadow_rate_grid) {
      ComputeCellResult cell;
      cell.fault_rate = fault_rate;
      cell.shadow_rate = shadow_rate;
      cell.requests = config.requests;

      auto cpu = std::make_shared<backend::CpuBackend>();
      fault::ComputeFaultConfig fc = fault_base;
      fc.fault_rate = fault_rate;
      auto unreliable = std::make_shared<backend::UnreliableBackend>(cpu, fc);
      backend::ShadowConfig sc;
      sc.shadow_rate = shadow_rate;
      sc.seed = common::derive_stream_seed(config.seed, kStreamShadow, 0);
      auto shadowed =
          std::make_shared<backend::ShadowBackend>(unreliable, cpu, sc);

      for (std::size_t r = 0; r < config.requests; ++r) {
        datagen::NgstSimulator sim(
            common::derive_stream_seed(config.seed, kStreamDataset, r));
        const auto pristine = sim.stack(config.frames, scene);
        const backend::ComputeMeta meta{r, 0};

        // Ground truth: the trusted substrate.
        auto trusted = pristine;
        (void)cpu->preprocess(trusted, algo, meta, nullptr);

        // The bare unreliable primary: did this request's plan actually
        // corrupt the product?  (Sampling-independent, so "injected" means
        // the same thing on every shadow rate.)
        auto bare = pristine;
        backend::ComputeOutcome bare_outcome;
        (void)unreliable->preprocess(bare, algo, meta, &bare_outcome);
        const bool injected = bare != trusted;
        cell.injected += injected ? 1 : 0;
        cell.stalls +=
            bare_outcome.fault == fault::ComputeFaultKind::kStall ? 1 : 0;

        // The production path: unreliable primary under the shadow guard.
        auto served = pristine;
        backend::ComputeOutcome outcome;
        (void)shadowed->preprocess(served, algo, meta, &outcome);
        cell.detected += outcome.shadow_mismatch ? 1 : 0;
        cell.escaped += served != trusted ? 1 : 0;
      }
      cell.quarantined = shadowed->health().quarantined;
      telemetry::counter("campaign.compute.injected").add(cell.injected);
      telemetry::counter("campaign.compute.escaped").add(cell.escaped);
      report.cells.push_back(cell);
    }
  }
  return report;
}

/// The compute_shadow row of one cell.
template <typename Visit>
void fields(const ComputeCellResult& c, Visit&& visit) {
  visit("bench", "compute_shadow");
  visit("fault_rate", c.fault_rate);
  visit("shadow_rate", c.shadow_rate);
  visit("requests", c.requests);
  visit("injected", c.injected);
  visit("detected", c.detected);
  visit("escaped", c.escaped);
  visit("stalls", c.stalls);
  visit("quarantined", c.quarantined);
}

std::string to_jsonl(const ComputeSweepReport& report) {
  return telemetry::jsonl::to_lines(report.cells);
}

std::size_t enforce(const ComputeSweepReport& report,
                    std::string& diagnostics) {
  std::size_t violations = 0;
  const auto flag = [&](const ComputeCellResult& c, const char* what) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "cell fault_rate=%.4g shadow_rate=%.4g: %s\n", c.fault_rate,
                  c.shadow_rate, what);
    diagnostics += line;
    ++violations;
  };
  for (const ComputeCellResult& c : report.cells) {
    if (c.escaped + c.detected != c.injected) {
      flag(c, "escaped != injected - detected (accounting broken)");
    }
    if (c.shadow_rate >= 1.0 && c.escaped > 0) {
      flag(c, "corruption escaped a 100% shadow sample");
    }
    // Monotonicity along the shadow axis at a fixed fault rate: checking
    // more of the same corruptions can only catch more of them.  One line
    // per cell that escapes more than some lower-shadow cell.
    for (const ComputeCellResult& lower : report.cells) {
      if (lower.fault_rate == c.fault_rate &&
          lower.shadow_rate < c.shadow_rate && lower.escaped < c.escaped) {
        flag(c, "escape count rose with the shadow rate");
        break;
      }
    }
  }
  return violations;
}

}  // namespace spacefts::campaign
