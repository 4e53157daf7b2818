#include "spacefts/campaign/downlink_sweep.hpp"

#include <cstdio>
#include <stdexcept>

#include "spacefts/fault/message_faults.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"
#include "sweep.hpp"

namespace spacefts::campaign {
namespace {

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

/// The downlink_fidelity row of one cell.
template <typename Visit>
void fields(const DownlinkCellResult& c, Visit&& visit) {
  visit("bench", "downlink_fidelity");
  visit("workload", c.workload);
  visit("gamma0", c.gamma0);
  visit("link_loss", c.link_loss);
  visit("lambda", c.lambda);
  visit("trials", c.trials);
  visit("psnr_on_db", c.psnr_on_db);
  visit("psnr_off_db", c.psnr_off_db);
  visit("match_on", c.match_on);
  visit("match_off", c.match_off);
  visit("wire_bytes_on", c.wire_bytes_on);
  visit("wire_bytes_off", c.wire_bytes_off);
  visit("compressed_bytes_on", c.compressed_bytes_on);
  visit("compressed_bytes_off", c.compressed_bytes_off);
  visit("tiles", c.tiles);
  visit("degraded_on", c.degraded_on);
  visit("degraded_off", c.degraded_off);
  visit("frames_recovered_on", c.frames_recovered_on);
  visit("frames_recovered_off", c.frames_recovered_off);
  visit("memory_bits_flipped", c.memory_bits_flipped);
  visit("pixels_corrected", c.pixels_corrected);
}

std::string to_jsonl(const DownlinkSweepReport& report) {
  return telemetry::jsonl::to_lines(report.cells);
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
