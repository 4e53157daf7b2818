#include "spacefts/campaign/downlink_sweep.hpp"

#include <cstdio>
#include <stdexcept>

#include "spacefts/fault/message_faults.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"
#include "sweep.hpp"

namespace spacefts::campaign {
namespace {

using telemetry::jsonl::append_fmt;

struct DownlinkCell {
  downlink::ChainWorkload workload;
  double gamma0;
  double link_loss;
  double lambda;
};

/// Both arms of one flight, flown at the same trial seed.
struct FlightRecord {
  downlink::ChainReport on;
  downlink::ChainReport off;
};

void validate(const DownlinkSweepConfig& config) {
  if (config.workload_grid.empty()) {
    throw std::invalid_argument("downlink_sweep: empty axis workload");
  }
  check_axis(config.gamma0_grid, "downlink_sweep", "gamma0", 0.0, 1.0);
  check_axis(config.link_loss_grid, "downlink_sweep", "link_loss", 0.0, 1.0);
  check_axis(config.lambda_grid, "downlink_sweep", "lambda", 0.0, 100.0);
  if (config.trials == 0) {
    throw std::invalid_argument("downlink_sweep: trials must be > 0");
  }
}

std::vector<DownlinkCell> enumerate_cells(const DownlinkSweepConfig& config) {
  std::vector<DownlinkCell> cells;
  cells.reserve(config.workload_grid.size() * config.gamma0_grid.size() *
                config.link_loss_grid.size() * config.lambda_grid.size());
  for (const auto workload : config.workload_grid) {
    for (const double gamma0 : config.gamma0_grid) {
      for (const double link_loss : config.link_loss_grid) {
        for (const double lambda : config.lambda_grid) {
          cells.push_back({workload, gamma0, link_loss, lambda});
        }
      }
    }
  }
  return cells;
}

downlink::ChainConfig chain_config(const DownlinkSweepConfig& config,
                                   const DownlinkCell& cell,
                                   std::uint64_t seed, bool preprocess) {
  downlink::ChainConfig cc;
  cc.workload = cell.workload;
  cc.side = config.side;
  cc.frames = config.frames;
  cc.tile_rows = config.tile_rows;
  cc.lambda = cell.lambda;
  cc.preprocess = preprocess;
  cc.gamma0 = cell.gamma0;
  cc.link = fault::link_loss_faults(cell.link_loss);
  cc.seed = seed;
  // Trial-level parallelism owns the lanes; each chain flies serially so a
  // sweep is deterministic for every --threads value.
  cc.threads = 1;
  return cc;
}

}  // namespace

DownlinkSweepReport run_downlink_sweep(const DownlinkSweepConfig& config) {
  validate(config);
  const std::vector<DownlinkCell> cells = enumerate_cells(config);
  SPACEFTS_TSPAN("campaign.downlink_sweep",
                 {"cells", static_cast<double>(cells.size())},
                 {"trials", static_cast<double>(config.trials)});
  const auto records = run_trials(
      cells.size(), config.trials, config.seed, config.threads,
      [&](std::size_t cell, std::uint64_t seed) {
        return FlightRecord{
            downlink::run_chain(chain_config(config, cells[cell], seed,
                                             /*preprocess=*/true)),
            downlink::run_chain(chain_config(config, cells[cell], seed,
                                             /*preprocess=*/false))};
      });

  DownlinkSweepReport report;
  report.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    DownlinkCellResult cr;
    cr.workload = cells[c].workload;
    cr.gamma0 = cells[c].gamma0;
    cr.link_loss = cells[c].link_loss;
    cr.lambda = cells[c].lambda;
    cr.trials = config.trials;
    for (std::size_t t = 0; t < config.trials; ++t) {
      const FlightRecord& rec = records[c * config.trials + t];
      cr.tiles = rec.on.tiles;
      cr.psnr_on_db += rec.on.psnr_db;
      cr.psnr_off_db += rec.off.psnr_db;
      cr.match_on += rec.on.pixel_match;
      cr.match_off += rec.off.pixel_match;
      cr.wire_bytes_on += static_cast<double>(rec.on.wire_bytes);
      cr.wire_bytes_off += static_cast<double>(rec.off.wire_bytes);
      cr.compressed_bytes_on += static_cast<double>(rec.on.compressed_bytes);
      cr.compressed_bytes_off += static_cast<double>(rec.off.compressed_bytes);
      cr.degraded_on += rec.on.tiles_degraded;
      cr.degraded_off += rec.off.tiles_degraded;
      cr.frames_recovered_on += rec.on.frames_recovered;
      cr.frames_recovered_off += rec.off.frames_recovered;
      cr.memory_bits_flipped += rec.on.memory_bits_flipped;
      cr.pixels_corrected += rec.on.pixels_corrected;
    }
    const auto n = static_cast<double>(config.trials);
    cr.psnr_on_db /= n;
    cr.psnr_off_db /= n;
    cr.match_on /= n;
    cr.match_off /= n;
    cr.wire_bytes_on /= n;
    cr.wire_bytes_off /= n;
    cr.compressed_bytes_on /= n;
    cr.compressed_bytes_off /= n;
    telemetry::counter("campaign.downlink.flights").add(2 * config.trials);
    report.cells.push_back(cr);
  }
  return report;
}

std::string to_jsonl(const DownlinkSweepReport& report) {
  std::string out;
  out.reserve(report.cells.size() * 320);
  for (const DownlinkCellResult& c : report.cells) {
    out += "{\"bench\":\"downlink_fidelity\"";
    out += ",\"workload\":\"";
    out += downlink::to_string(c.workload);
    out += "\"";
    append_fmt(out, ",\"gamma0\":%.10g", c.gamma0);
    append_fmt(out, ",\"link_loss\":%.10g", c.link_loss);
    append_fmt(out, ",\"lambda\":%.10g", c.lambda);
    out += ",\"trials\":" + std::to_string(c.trials);
    append_fmt(out, ",\"psnr_on_db\":%.10g", c.psnr_on_db);
    append_fmt(out, ",\"psnr_off_db\":%.10g", c.psnr_off_db);
    append_fmt(out, ",\"match_on\":%.10g", c.match_on);
    append_fmt(out, ",\"match_off\":%.10g", c.match_off);
    append_fmt(out, ",\"wire_bytes_on\":%.10g", c.wire_bytes_on);
    append_fmt(out, ",\"wire_bytes_off\":%.10g", c.wire_bytes_off);
    append_fmt(out, ",\"compressed_bytes_on\":%.10g", c.compressed_bytes_on);
    append_fmt(out, ",\"compressed_bytes_off\":%.10g", c.compressed_bytes_off);
    out += ",\"tiles\":" + std::to_string(c.tiles);
    out += ",\"degraded_on\":" + std::to_string(c.degraded_on);
    out += ",\"degraded_off\":" + std::to_string(c.degraded_off);
    out += ",\"frames_recovered_on\":" +
           std::to_string(c.frames_recovered_on);
    out += ",\"frames_recovered_off\":" +
           std::to_string(c.frames_recovered_off);
    out += ",\"memory_bits_flipped\":" + std::to_string(c.memory_bits_flipped);
    out += ",\"pixels_corrected\":" + std::to_string(c.pixels_corrected);
    out += "}\n";
  }
  return out;
}

std::size_t enforce(const DownlinkSweepReport& report,
                    std::string& diagnostics) {
  std::size_t violations = 0;
  const auto flag = [&](const DownlinkCellResult& c, const char* what) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "cell workload=%s gamma0=%.4g link_loss=%.4g lambda=%.4g: "
                  "%s\n",
                  downlink::to_string(c.workload), c.gamma0, c.link_loss,
                  c.lambda, what);
    diagnostics += line;
    ++violations;
  };
  for (const DownlinkCellResult& c : report.cells) {
    if (c.psnr_on_db < c.psnr_off_db) {
      flag(c, "preprocessing-on PSNR below preprocessing-off");
    }
    if (c.match_on < c.match_off) {
      flag(c, "preprocessing-on pixel match below preprocessing-off");
    }
    // Clean memory over a perfect link must deliver the golden product
    // bit-exactly — anything else means the chain itself is lossy.
    if (c.gamma0 == 0.0 && c.link_loss == 0.0 &&
        (c.psnr_on_db < downlink::kPsnrCap || c.match_on < 1.0)) {
      flag(c, "clean-chain flight did not reproduce the golden product");
    }
  }
  return violations;
}

}  // namespace spacefts::campaign
