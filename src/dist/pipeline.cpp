#include "spacefts/dist/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spacefts/common/backoff.hpp"
#include "spacefts/common/bitops.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/ngst/cr_reject.hpp"
#include "spacefts/rice/rice.hpp"
#include "spacefts/smoothing/temporal.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::dist {

const char* to_string(PreprocessMode mode) noexcept {
  switch (mode) {
    case PreprocessMode::kNone:
      return "none";
    case PreprocessMode::kAlgoNgst:
      return "Algo_NGST";
    case PreprocessMode::kMedian3:
      return "median-3";
    case PreprocessMode::kBitVote3:
      return "bitvote-3";
  }
  return "unknown";
}

const char* to_string(FragmentOutcome outcome) noexcept {
  switch (outcome) {
    case FragmentOutcome::kHealthy:
      return "healthy";
    case FragmentOutcome::kDegradedCorrupt:
      return "degraded-corrupt";
    case FragmentOutcome::kDegradedFilled:
      return "degraded-filled";
  }
  return "unknown";
}

namespace {

/// Control-plane messages (ACK/NACK) are tiny and assumed heavily coded;
/// they pay the link latency but sit outside the fault model, mirroring
/// how the paper treats the master as reliable infrastructure.
constexpr std::size_t kControlBytes = 16;

/// Crash reassignment bound (the ALFT process-fault model): the final
/// attempt is forced through, as the flight master would process locally.
constexpr std::size_t kMaxCrashAttempts = 16;

/// Compute-cost model (seconds per pixel-frame) for the virtual clock.
constexpr double kPreprocessCostS = 1.5e-8;
constexpr double kCrRejectCostS = 3.0e-8;
constexpr double kCompressCostS = 1.0e-8;

/// Master-side detection timeout for a silent worker, measured from the
/// fragment's dispatch.
constexpr double kCrashTimeoutS = 0.05;
/// The master declares a data message lost after this much silence.
constexpr double kLinkTimeoutS = 0.05;
/// First link-retry delay of the shared backoff law (common/backoff.hpp).
constexpr double kRetryBackoffS = 2e-3;

/// One fragment's readout stack, cut out of the full detector stack.
[[nodiscard]] common::TemporalStack<std::uint16_t> cut_tile(
    const common::TemporalStack<std::uint16_t>& readouts, std::size_t x0,
    std::size_t y0, std::size_t side) {
  common::TemporalStack<std::uint16_t> tile(side, side, readouts.frames());
  for (std::size_t t = 0; t < readouts.frames(); ++t) {
    for (std::size_t y = 0; y < side; ++y) {
      for (std::size_t x = 0; x < side; ++x) {
        tile(x, y, t) = readouts(x0 + x, y0 + y, t);
      }
    }
  }
  return tile;
}

// Message serialisation: byte-wise little-endian so the CRC framing covers
// a platform-independent wire format.

[[nodiscard]] std::vector<std::uint8_t> serialize_tile(
    const common::TemporalStack<std::uint16_t>& tile) {
  const auto voxels = tile.cube().voxels();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(voxels.size() * 2 + 4);
  for (std::uint16_t v : voxels) {
    bytes.push_back(static_cast<std::uint8_t>(v & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  return bytes;
}

[[nodiscard]] common::TemporalStack<std::uint16_t> deserialize_tile(
    std::span<const std::uint8_t> bytes, std::size_t side,
    std::size_t frames) {
  common::TemporalStack<std::uint16_t> tile(side, side, frames);
  auto voxels = tile.cube().voxels();
  for (std::size_t i = 0; i < voxels.size(); ++i) {
    voxels[i] = static_cast<std::uint16_t>(
        bytes[2 * i] | (static_cast<std::uint16_t>(bytes[2 * i + 1]) << 8));
  }
  return tile;
}

[[nodiscard]] std::vector<std::uint8_t> serialize_flux(
    const common::Image<float>& flux) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(flux.size() * 4 + 4);
  for (float v : flux.pixels()) {
    const std::uint32_t b = common::float_to_bits(v);
    bytes.push_back(static_cast<std::uint8_t>(b & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>((b >> 8) & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>((b >> 16) & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>((b >> 24) & 0xFFu));
  }
  return bytes;
}

[[nodiscard]] common::Image<float> deserialize_flux(
    std::span<const std::uint8_t> bytes, std::size_t side) {
  common::Image<float> flux(side, side);
  auto pixels = flux.pixels();
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    const std::uint32_t b =
        static_cast<std::uint32_t>(bytes[4 * i]) |
        (static_cast<std::uint32_t>(bytes[4 * i + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[4 * i + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[4 * i + 3]) << 24);
    pixels[i] = common::bits_to_float(b);
  }
  return flux;
}

/// The worker-side computation: memory faults -> preprocessing -> CR
/// rejection.  Returns the integrated tile plus accounting.
struct WorkerOutput {
  common::Image<float> flux;
  std::size_t faults = 0;
  std::size_t corrected = 0;
};

[[nodiscard]] WorkerOutput worker_compute(
    common::TemporalStack<std::uint16_t> tile, const PipelineConfig& config,
    common::Rng& rng, std::size_t fragment) {
  WorkerOutput out{common::Image<float>{}, 0, 0};
  // Bit flips strike the tile while it sits in the worker's data memory.
  if (config.gamma0 > 0.0) {
    const fault::UncorrelatedFaultModel model(config.gamma0);
    auto mask = model.mask16(tile.cube().size(), rng);
    out.faults = fault::count_faults<std::uint16_t>(mask);
    fault::apply_mask<std::uint16_t>(tile.cube().voxels(), mask);
  }
  // Preprocessing: per-coordinate over the tile's time series.
  switch (config.preprocess) {
    case PreprocessMode::kNone:
      break;
    case PreprocessMode::kAlgoNgst: {
      if (config.ngst_executor) {
        const auto report = config.ngst_executor(tile, config.algo, fragment);
        out.corrected = report.pixels_corrected;
      } else {
        const core::AlgoNgst algo(config.algo);
        const auto report = algo.preprocess(tile);
        out.corrected = report.pixels_corrected;
      }
      break;
    }
    case PreprocessMode::kMedian3:
    case PreprocessMode::kBitVote3: {
      std::vector<std::uint16_t> series(tile.frames());
      for (std::size_t y = 0; y < tile.height(); ++y) {
        for (std::size_t x = 0; x < tile.width(); ++x) {
          for (std::size_t t = 0; t < tile.frames(); ++t) {
            series[t] = tile(x, y, t);
          }
          if (config.preprocess == PreprocessMode::kMedian3) {
            smoothing::median_smooth3(series);
          } else {
            smoothing::majority_bit_vote3(series);
          }
          tile.set_series(x, y, series);
        }
      }
      break;
    }
  }
  out.flux = ngst::reject_and_integrate(tile).flux;
  return out;
}

/// Master-side byzantine screen: every pixel finite and inside the
/// configured physical envelope.
[[nodiscard]] bool flux_plausible(const common::Image<float>& flux,
                                  const PipelineConfig& config) noexcept {
  for (float v : flux.pixels()) {
    if (!std::isfinite(v) || v < config.result_flux_lo ||
        v > config.result_flux_hi) {
      return false;
    }
  }
  return true;
}

void validate_config(const PipelineConfig& config) {
  if (config.workers == 0) {
    throw std::invalid_argument("run_pipeline: no workers");
  }
  if (config.gamma0 < 0.0 || config.gamma0 > 1.0) {
    throw std::invalid_argument("run_pipeline: gamma0 outside [0, 1]");
  }
  if (config.worker_crash_prob < 0.0 || config.worker_crash_prob > 1.0) {
    throw std::invalid_argument(
        "run_pipeline: worker_crash_prob outside [0, 1]");
  }
  if (!(config.result_flux_lo < config.result_flux_hi)) {
    throw std::invalid_argument("run_pipeline: empty result flux bounds");
  }
}

}  // namespace

PipelineResult run_pipeline(const common::TemporalStack<std::uint16_t>& readouts,
                            const PipelineConfig& config, common::Rng& rng) {
  validate_config(config);
  const std::size_t side = config.fragment_side;
  if (side == 0 || readouts.width() % side != 0 ||
      readouts.height() % side != 0) {
    throw std::invalid_argument("run_pipeline: stack not tileable by fragment");
  }
  // Constructing the model validates config.link.faults; with an all-zero
  // fault config sample() returns clean outcomes without consuming the
  // stream, so the protocol collapses to plain scatter/compute/gather.
  const fault::MessageFaultModel link_faults(config.link.faults);

  const std::size_t tiles_x = readouts.width() / side;
  const std::size_t tiles_y = readouts.height() / side;
  const std::size_t tile_count = tiles_x * tiles_y;
  const std::size_t scatter_bytes = side * side * readouts.frames() * 2 + 4;
  const std::size_t gather_bytes = side * side * 4 + 4;
  const std::size_t tile_pixel_frames = side * side * readouts.frames();

  SPACEFTS_TSPAN("pipeline.run",
                 {"fragments", static_cast<double>(tile_count)},
                 {"workers", static_cast<double>(config.workers)});
  PipelineResult result;
  result.fragments = tile_count;
  result.flux = common::Image<float>(readouts.width(), readouts.height(), 0.0f);
  result.fragment_outcomes.assign(tile_count, FragmentOutcome::kHealthy);
  result.worker_busy_s.assign(config.workers, 0.0);

  Simulator sim;
  std::vector<double> worker_free_at(config.workers, 0.0);
  double master_uplink_free_at = 0.0;
  double gather_done_at = 0.0;
  std::size_t tiles_done = 0;

  // Separate deterministic streams: one per tile for memory faults (so the
  // data outcome is identical whether or not crashes occur), one per tile
  // for crash events, one per tile for link faults + retry jitter.  The
  // first two are split in the same order as the seed system, so runs with
  // a perfect link reproduce the seed bit-for-bit.
  std::vector<common::Rng> tile_rngs;
  std::vector<common::Rng> crash_rngs;
  std::vector<common::Rng> link_rngs;
  tile_rngs.reserve(tile_count);
  crash_rngs.reserve(tile_count);
  link_rngs.reserve(tile_count);
  for (std::size_t i = 0; i < tile_count; ++i) tile_rngs.push_back(rng.split());
  for (std::size_t i = 0; i < tile_count; ++i) crash_rngs.push_back(rng.split());
  for (std::size_t i = 0; i < tile_count; ++i) link_rngs.push_back(rng.split());

  // Per-fragment protocol state.  `epoch` versions the current attempt:
  // every event carries the epoch it was scheduled under and no-ops if the
  // fragment has since been retried (stale timer, late delivery) or
  // completed — the event-queue analogue of cancelling timers.
  struct Fragment {
    std::size_t tx = 0, ty = 0;
    std::uint64_t epoch = 0;
    std::size_t crash_attempts = 0;  ///< reassignments after worker crashes
    std::size_t link_attempts = 0;   ///< retries spent on link faults
    bool done = false;
    bool has_corrupt_flux = false;
    common::Image<float> corrupt_flux;  ///< raw payload of a CRC-bad gather
  };
  std::vector<Fragment> frags(tile_count);
  for (std::size_t ty = 0; ty < tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < tiles_x; ++tx) {
      frags[ty * tiles_x + tx].tx = tx;
      frags[ty * tiles_x + tx].ty = ty;
    }
  }

  auto finish_fragment = [&](std::size_t i, FragmentOutcome outcome) {
    frags[i].done = true;
    result.fragment_outcomes[i] = outcome;
    if (outcome != FragmentOutcome::kHealthy) {
      ++result.degraded_fragments;
      telemetry::instant("pipeline.degraded",
                         {"fragment", static_cast<double>(i)});
    }
    ++tiles_done;
    if (tiles_done == tile_count) gather_done_at = sim.now();
  };

  std::function<void(std::size_t)> start_attempt;

  // A link-level failure of fragment i's current attempt: retry with
  // exponential backoff + jitter while budget remains, else complete
  // degraded.  `ep` guards against stale failure signals.
  auto link_failure = [&](std::size_t i, std::uint64_t ep) {
    Fragment& f = frags[i];
    if (f.done || f.epoch != ep) return;
    ++f.epoch;  // invalidate every in-flight event of the failed attempt
    if (f.link_attempts < config.max_link_retries) {
      ++f.link_attempts;
      ++result.link_retries;
      const double delay = common::backoff_delay(
          kRetryBackoffS, static_cast<std::uint32_t>(f.link_attempts),
          link_rngs[i].uniform());
      telemetry::instant("pipeline.retry",
                         {"fragment", static_cast<double>(i)},
                         {"attempt", static_cast<double>(f.link_attempts)});
      telemetry::histogram("pipeline.backoff_s").record(delay);
      sim.schedule_after(delay, [&, i] { start_attempt(i); });
    } else {
      finish_fragment(i, f.has_corrupt_flux ? FragmentOutcome::kDegradedCorrupt
                                            : FragmentOutcome::kDegradedFilled);
    }
  };

  // Gather leg: the worker streams its integrated tile back to the master.
  auto send_gather = [&](std::size_t i, std::uint64_t ep, WorkerOutput out) {
    const auto fate = link_faults.sample(link_rngs[i]);
    if (fate.dropped) {
      ++result.messages_dropped;
      sim.schedule_after(kLinkTimeoutS,
                         [&, i, ep] { link_failure(i, ep); });
      return;
    }
    auto frame = serialize_flux(out.flux);
    edac::frame_append_crc(frame);
    if (fate.corrupted) {
      ++result.messages_corrupted;
      (void)link_faults.corrupt(frame, link_rngs[i]);
    }
    const double arrive_at = sim.now() + config.link.transfer_time(gather_bytes) +
                             fate.extra_delay_s;
    sim.schedule(arrive_at, [&, i, ep, frame = std::move(frame)] {
      Fragment& frag = frags[i];
      if (frag.done || frag.epoch != ep) return;  // late or superseded
      SPACEFTS_TSPAN("pipeline.gather",
                     {"fragment", static_cast<double>(i)});
      if (!edac::frame_verify(frame)) {
        // Framing caught transit corruption: keep the raw payload as the
        // degraded-completion candidate, NACK-retry the fragment.
        ++result.crc_failures;
        telemetry::instant("pipeline.crc_reject",
                           {"fragment", static_cast<double>(i)});
        frag.corrupt_flux =
            deserialize_flux(edac::frame_payload(frame), side);
        frag.has_corrupt_flux = true;
        link_failure(i, ep);
        return;
      }
      auto flux = deserialize_flux(edac::frame_payload(frame), side);
      if (!flux_plausible(flux, config)) {
        ++result.byzantine_rejected;
        frag.corrupt_flux = std::move(flux);
        frag.has_corrupt_flux = true;
        link_failure(i, ep);
        return;
      }
      result.flux.paste(flux, frag.tx * side, frag.ty * side);
      finish_fragment(i, FragmentOutcome::kHealthy);
    });
  };

  // Worker leg: crash model, then the actual data transformation "at"
  // completion time, then the gather send.
  auto worker_receive = [&](std::size_t i, std::uint64_t ep,
                            std::vector<std::uint8_t> frame) {
    Fragment& f = frags[i];
    if (f.done || f.epoch != ep) return;
    if (!edac::frame_verify(frame)) {
      // Worker NACKs over the (reliable, tiny) control plane.
      ++result.crc_failures;
      sim.schedule_after(config.link.transfer_time(kControlBytes),
                         [&, i, ep] { link_failure(i, ep); });
      return;
    }
    const double ready_at = sim.now();
    const std::size_t worker =
        (i + f.crash_attempts + f.link_attempts) % config.workers;
    const double start = std::max(ready_at, worker_free_at[worker]);
    const double pre_cost =
        config.preprocess == PreprocessMode::kNone
            ? 0.0
            : kPreprocessCostS * static_cast<double>(tile_pixel_frames);
    const double compute =
        pre_cost + kCrRejectCostS * static_cast<double>(tile_pixel_frames);

    // ALFT process-fault model: the worker may die mid-fragment.  The
    // last attempt is forced to succeed so the baseline always closes.
    const bool crash = f.crash_attempts + 1 < kMaxCrashAttempts &&
                       crash_rngs[i].bernoulli(config.worker_crash_prob);
    if (crash) {
      const double crash_at = start + 0.5 * compute;
      worker_free_at[worker] = crash_at;  // reboot completes instantly
      result.worker_busy_s[worker] += 0.5 * compute;
      ++result.worker_crashes;
      telemetry::instant("pipeline.crash",
                         {"fragment", static_cast<double>(i)},
                         {"worker", static_cast<double>(worker)});
      const double detect_at =
          std::max(ready_at + kCrashTimeoutS, crash_at);
      sim.schedule(detect_at, [&, i, ep] {
        Fragment& frag = frags[i];
        if (frag.done || frag.epoch != ep) return;
        ++result.reassignments;
        ++frag.crash_attempts;  // reassignment, not a link retry
        start_attempt(i);
      });
      return;
    }

    const double done = start + compute;
    worker_free_at[worker] = done;
    result.worker_busy_s[worker] += compute;

    sim.schedule(done, [&, i, ep, worker, frame = std::move(frame)] {
      Fragment& frag = frags[i];
      if (frag.done || frag.epoch != ep) return;
      SPACEFTS_TSPAN("pipeline.worker_compute",
                     {"fragment", static_cast<double>(i)},
                     {"worker", static_cast<double>(worker)});
      auto tile = deserialize_tile(edac::frame_payload(frame), side,
                                   readouts.frames());
      WorkerOutput out =
          worker_compute(std::move(tile), config, tile_rngs[i], i);
      result.faults_injected += out.faults;
      result.pixels_corrected += out.corrected;
      send_gather(i, ep, std::move(out));
    });
  };

  // Scatter leg: master serialises its sends over the shared uplink; the
  // payload is cut + framed at transmit time.
  start_attempt = [&](std::size_t i) {
    Fragment& f = frags[i];
    if (f.done) return;
    const std::uint64_t ep = ++f.epoch;
    const double send_start = std::max(sim.now(), master_uplink_free_at);
    const double arrive_base =
        send_start + config.link.transfer_time(scatter_bytes);
    master_uplink_free_at = arrive_base;

    const auto fate = link_faults.sample(link_rngs[i]);
    if (fate.dropped) {
      ++result.messages_dropped;
      sim.schedule(send_start + kLinkTimeoutS,
                   [&, i, ep] { link_failure(i, ep); });
      return;
    }
    const double arrive_at = arrive_base + fate.extra_delay_s;
    sim.schedule(send_start, [&, i, ep, corrupted = fate.corrupted, arrive_at] {
      Fragment& frag = frags[i];
      if (frag.done || frag.epoch != ep) return;
      SPACEFTS_TSPAN("pipeline.scatter",
                     {"fragment", static_cast<double>(i)});
      auto frame = serialize_tile(
          cut_tile(readouts, frag.tx * side, frag.ty * side, side));
      edac::frame_append_crc(frame);
      if (corrupted) {
        ++result.messages_corrupted;
        (void)link_faults.corrupt(frame, link_rngs[i]);
      }
      sim.schedule(arrive_at, [&, i, ep, frame = std::move(frame)] {
        worker_receive(i, ep, std::move(frame));
      });
    });
  };
  for (std::size_t i = 0; i < tile_count; ++i) start_attempt(i);
  sim.run();

  // Degraded completion: fragments that exhausted their budget are filled
  // in deterministically after the simulation drains — with the raw
  // corrupted payload when one arrived, else with the median of the border
  // pixels of adjacent *healthy* tiles (0 when fully isolated).
  for (std::size_t i = 0; i < tile_count; ++i) {
    if (result.fragment_outcomes[i] == FragmentOutcome::kDegradedCorrupt) {
      result.flux.paste(frags[i].corrupt_flux, frags[i].tx * side,
                        frags[i].ty * side);
    }
  }
  for (std::size_t i = 0; i < tile_count; ++i) {
    if (result.fragment_outcomes[i] != FragmentOutcome::kDegradedFilled) {
      continue;
    }
    const std::size_t tx = frags[i].tx, ty = frags[i].ty;
    std::vector<float> border;
    auto healthy = [&](std::size_t nx, std::size_t ny) {
      return result.fragment_outcomes[ny * tiles_x + nx] ==
             FragmentOutcome::kHealthy;
    };
    if (ty > 0 && healthy(tx, ty - 1)) {
      for (std::size_t x = 0; x < side; ++x) {
        border.push_back(result.flux(tx * side + x, ty * side - 1));
      }
    }
    if (ty + 1 < tiles_y && healthy(tx, ty + 1)) {
      for (std::size_t x = 0; x < side; ++x) {
        border.push_back(result.flux(tx * side + x, (ty + 1) * side));
      }
    }
    if (tx > 0 && healthy(tx - 1, ty)) {
      for (std::size_t y = 0; y < side; ++y) {
        border.push_back(result.flux(tx * side - 1, ty * side + y));
      }
    }
    if (tx + 1 < tiles_x && healthy(tx + 1, ty)) {
      for (std::size_t y = 0; y < side; ++y) {
        border.push_back(result.flux((tx + 1) * side, ty * side + y));
      }
    }
    float fill = 0.0f;
    if (!border.empty()) {
      auto mid = border.begin() + static_cast<std::ptrdiff_t>(border.size() / 2);
      std::nth_element(border.begin(), mid, border.end());
      fill = *mid;
    }
    for (std::size_t y = 0; y < side; ++y) {
      for (std::size_t x = 0; x < side; ++x) {
        result.flux(tx * side + x, ty * side + y) = fill;
      }
    }
  }
  result.coverage =
      tile_count == 0
          ? 1.0
          : static_cast<double>(tile_count - result.degraded_fragments) /
                static_cast<double>(tile_count);

  // Master-side compression of the quantised product for downlink.  The
  // clamp also neutralises non-finite pixels a degraded-corrupt tile may
  // carry (NaN/inf quantise to 0 rather than invoking UB in lround).
  std::vector<std::uint16_t> quantised(result.flux.size());
  for (std::size_t i = 0; i < quantised.size(); ++i) {
    const double v = static_cast<double>(result.flux.pixels()[i]) * 16.0;
    quantised[i] = !(v > 0)       ? std::uint16_t{0}
                   : v >= 65535.0 ? std::uint16_t{65535}
                                  : static_cast<std::uint16_t>(std::lround(v));
  }
  result.compression_ratio = rice::compression_ratio16(quantised);
  const double compress_time =
      kCompressCostS * static_cast<double>(quantised.size());
  result.makespan_s = gather_done_at + compress_time;

  // Mirror the result accounting into the metrics registry once, from the
  // final struct, so the exported counters reconcile with PipelineResult
  // exactly instead of racing the per-event increments.
  telemetry::counter("pipeline.link_retries").add(result.link_retries);
  telemetry::counter("pipeline.crc_failures").add(result.crc_failures);
  telemetry::counter("pipeline.byzantine_rejected")
      .add(result.byzantine_rejected);
  telemetry::counter("pipeline.worker_crashes").add(result.worker_crashes);
  telemetry::counter("pipeline.reassignments").add(result.reassignments);
  telemetry::counter("pipeline.messages_dropped").add(result.messages_dropped);
  telemetry::counter("pipeline.messages_corrupted")
      .add(result.messages_corrupted);
  telemetry::counter("pipeline.degraded_fragments")
      .add(result.degraded_fragments);
  telemetry::counter("pipeline.pixels_corrected").add(result.pixels_corrected);
  telemetry::counter("pipeline.faults_injected").add(result.faults_injected);
  telemetry::gauge("pipeline.coverage").set(result.coverage);
  for (const double busy : result.worker_busy_s) {
    telemetry::histogram("pipeline.worker_busy_s").record(busy);
  }
  return result;
}

}  // namespace spacefts::dist
