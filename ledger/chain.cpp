/// \file chain.cpp
/// The chain workloads (ngst_chain, telemetry_chain).  One flight takes a
/// packed baseline from the detector to the science product at the ground
/// station: ingest (FITS parse, Λ=0 header sanity, decode, voter) →
/// product formation → per row-band tile Rice compression, FITS framing,
/// Hamming(72,64)+CRC protection, the faulty link, recovery, parse and
/// decompression.
///
/// Every step is a public call; product formation and tiling mirror
/// downlink::run_chain's private loops, and the seeds mirror its stream
/// indices.  A flight's product must therefore be byte-identical to
/// run_chain's at the same config — the reference computed in set-up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/ingest/guard.hpp"

namespace ledger {
namespace {

namespace common = spacefts::common;
namespace core = spacefts::core;
namespace datagen = spacefts::datagen;
namespace downlink = spacefts::downlink;
namespace fault = spacefts::fault;
namespace fits = spacefts::fits;
namespace ingest = spacefts::ingest;

using Image16 = common::Image<std::uint16_t>;
using Stack16 = common::TemporalStack<std::uint16_t>;

/// Sub-stream indices under a chain seed, as downlink/chain.cpp fixes them.
enum ChainStream : std::uint64_t {
  kStreamScene = 0,
  kStreamMemory = 1,
  kStreamLink = 2,
};

/// Distinct baselines per run; flights cycle through them.
constexpr std::size_t kInputs = 4;
/// Stream under the run seed from which each input's chain seed derives.
constexpr std::uint64_t kInputStream = 0xc4a1;
/// Every traced flight's spans must cover this share of its wall time.
constexpr double kMinSpanCoverage = 0.95;

downlink::ChainConfig chain_config(bool telemetry, std::uint64_t seed,
                                   std::size_t input) {
  downlink::ChainConfig config;
  config.workload = telemetry ? downlink::ChainWorkload::kTelemetry
                              : downlink::ChainWorkload::kNgstImage;
  config.side = 256;                    // detector side / channel count
  config.frames = telemetry ? 1024 : 64;  // readouts / samples per channel
  config.lambda = 80.0;
  config.upsilon = 4;
  config.gamma0 = 1e-3;
  config.link.drop_prob = 0.02;
  config.link.corrupt_prob = 0.10;
  config.tile_rows = 16;
  config.threads = 1;
  config.kernel = core::Kernel::kAuto;
  config.seed = common::derive_stream_seed(seed, kInputStream, input);
  return config;
}

/// The baseline as the detector hands it over: the synthetic scene with the
/// on-board Γ₀ memory flips applied, packed as FITS readouts.
std::vector<std::uint8_t> synthesize(const downlink::ChainConfig& config) {
  const std::uint64_t scene_seed =
      common::derive_stream_seed(config.seed, kStreamScene, 0);
  Stack16 stack;
  if (config.workload == downlink::ChainWorkload::kTelemetry) {
    datagen::TelemetryParams params;
    params.channels = config.side;
    params.samples = config.frames;
    stack = datagen::TelemetrySimulator(scene_seed).stack(params);
  } else {
    datagen::SceneParams scene;
    scene.width = config.side;
    scene.height = config.side;
    stack = datagen::NgstSimulator(scene_seed).stack(config.frames, scene);
  }
  common::Rng memory_rng(
      common::derive_stream_seed(config.seed, kStreamMemory, 0));
  const fault::UncorrelatedFaultModel memory(config.gamma0);
  const auto mask = memory.mask16(stack.cube().voxels().size(), memory_rng);
  fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  return ingest::IngestGuard::pack(stack);
}

/// Product formation as run_chain does it: NGST integrates the readouts
/// into the baseline image; telemetry keeps the channel × sample matrix.
Image16 product_image(const Stack16& stack, bool telemetry) {
  if (telemetry) {
    Image16 image(stack.width(), stack.frames());
    for (std::size_t t = 0; t < stack.frames(); ++t) {
      for (std::size_t x = 0; x < stack.width(); ++x) {
        image(x, t) = stack(x, 0, t);
      }
    }
    return image;
  }
  Image16 image(stack.width(), stack.height());
  for (std::size_t y = 0; y < stack.height(); ++y) {
    for (std::size_t x = 0; x < stack.width(); ++x) {
      double sum = 0.0;
      for (std::size_t t = 0; t < stack.frames(); ++t) {
        sum += static_cast<double>(stack(x, y, t));
      }
      image(x, y) = datagen::clamp_pixel(
          sum / static_cast<double>(stack.frames()));
    }
  }
  return image;
}

/// Fidelity of \p product against the clean golden, as run_chain scores it.
void score(const Image16& product, const Image16& golden, double& psnr_db,
           double& pixel_match) {
  double mse = 0.0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < product.size(); ++i) {
    const double diff = static_cast<double>(product.pixels()[i]) -
                        static_cast<double>(golden.pixels()[i]);
    mse += diff * diff;
    matched += diff == 0.0 ? 1 : 0;
  }
  mse /= static_cast<double>(product.size());
  pixel_match =
      static_cast<double>(matched) / static_cast<double>(product.size());
  psnr_db = mse == 0.0 ? downlink::kPsnrCap
                       : std::min(downlink::kPsnrCap,
                                  10.0 * std::log10(65535.0 * 65535.0 / mse));
}

struct Input {
  downlink::ChainConfig config;
  std::vector<std::uint8_t> packed;
  downlink::ChainReport reference;
};

/// What one flight did; a function of its input alone.
struct FlightCounts {
  std::size_t voxels = 0;
  std::size_t pixels_corrected = 0;
  std::size_t bits_corrected = 0;
  std::size_t pixels_vetoed = 0;
  std::size_t sanity_issues = 0;
  std::size_t compressed_bytes = 0;
  std::size_t wire_bytes = 0;
  std::size_t words_corrected = 0;
  std::size_t frames_dropped = 0;
  std::size_t frames_corrupted = 0;
  std::size_t frames_recovered = 0;
  std::size_t frames_erased = 0;  ///< arrived but not recoverable
};

/// The tracer and flight id the ingest executor records the voter under.
struct FlightContext {
  Tracer* tracer = nullptr;
  std::uint64_t op = 0;
};

Image16 fly(const Input& input, const ingest::IngestGuard& guard,
            const fault::MessageFaultModel& link, bool telemetry,
            const FlightContext& ctx, FlightCounts& counts) {
  Tracer* const t = ctx.tracer;
  const std::uint64_t op = ctx.op;
  const Scope flight(t, "flight", op);

  ingest::IngestResult ingested;
  {
    const Scope s(t, "ingest.guard", op);
    ingested = guard.ingest(input.packed);
  }
  if (!ingested.ok) {
    throw std::runtime_error("ingest rejected the baseline: " +
                             ingested.error);
  }
  counts.voxels = ingested.stack.cube().voxels().size();
  counts.pixels_corrected = ingested.preprocess.pixels_corrected;
  counts.bits_corrected = ingested.preprocess.bits_corrected;
  counts.pixels_vetoed = ingested.preprocess.pixels_vetoed;
  for (const auto& sanity : ingested.sanity) {
    counts.sanity_issues += sanity.issues.size();
  }

  Image16 sent;
  Image16 received;
  {
    const Scope s(t, "bench.glue", op);
    const Stack16 stack = std::move(ingested.stack);
    sent = product_image(stack, telemetry);
    received = Image16(sent.width(), sent.height());
  }

  const downlink::ChainConfig& config = input.config;
  const std::uint64_t link_seed =
      common::derive_stream_seed(config.seed, kStreamLink, 0);
  const std::size_t tiles =
      (sent.height() + config.tile_rows - 1) / config.tile_rows;
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::size_t y0 = tile * config.tile_rows;
    const std::size_t rows = std::min(config.tile_rows, sent.height() - y0);
    Image16 band;
    {
      const Scope s(t, "bench.glue", op);
      band = sent.crop(0, y0, sent.width(), rows);
    }
    fits::FitsFile file;
    {
      const Scope s(t, "downlink.compress", op);
      file.hdus().push_back(downlink::make_compressed_hdu(band));
    }
    counts.compressed_bytes += file.hdus().front().data.size();
    std::vector<std::uint8_t> serialized;
    {
      const Scope s(t, "fits.serialize", op);
      serialized = file.serialize();
    }
    std::vector<std::uint8_t> frame;
    {
      const Scope s(t, "downlink.frame", op);
      frame = downlink::protect_frame(serialized);
    }

    // The link's fate draws come first from the tile's own stream, then
    // the corruption pattern — the order run_chain uses.
    fault::MessageFaultModel::Outcome fate;
    {
      const Scope s(t, "fault.link", op);
      common::Rng tile_rng(common::derive_stream_seed(link_seed, tile, 0));
      fate = link.sample(tile_rng);
      if (!fate.dropped && fate.corrupted) (void)link.corrupt(frame, tile_rng);
    }
    counts.wire_bytes += frame.size() * (1 + fate.duplicates);
    if (fate.dropped) {
      ++counts.frames_dropped;
      continue;
    }
    if (fate.corrupted) ++counts.frames_corrupted;

    std::optional<std::vector<std::uint8_t>> payload;
    std::size_t repairs = 0;
    {
      const Scope s(t, "downlink.deframe", op);
      payload = downlink::recover_frame(frame, &repairs);
    }
    counts.words_corrected += repairs;
    bool pasted = false;
    if (payload) {
      if (fate.corrupted) ++counts.frames_recovered;
      try {
        fits::FitsFile parsed;
        {
          const Scope s(t, "fits.parse", op);
          parsed = fits::FitsFile::parse(*payload);
        }
        if (!parsed.hdus().empty()) {
          Image16 image;
          {
            const Scope s(t, "downlink.decompress", op);
            image = downlink::read_compressed_hdu(parsed.hdus().front());
          }
          if (image.width() == sent.width() && image.height() == rows) {
            const Scope s(t, "bench.glue", op);
            received.paste(image, 0, y0);
            pasted = true;
          }
        }
      } catch (const fits::FitsError&) {
        // Damage that slipped the frame check is a degraded tile.
      }
    }
    if (!pasted) ++counts.frames_erased;
  }
  return received;
}

/// Checks a flight's counts against the reference report of its input.
void check_counts(const FlightCounts& c, const downlink::ChainReport& ref,
                  std::size_t input, RunReport& report) {
  const bool same =
      c.pixels_corrected == ref.pixels_corrected &&
      c.bits_corrected == ref.bits_corrected &&
      c.pixels_vetoed == ref.pixels_vetoed &&
      c.compressed_bytes == ref.compressed_bytes &&
      c.wire_bytes == ref.wire_bytes &&
      c.words_corrected == ref.words_corrected &&
      c.frames_dropped == ref.frames_dropped &&
      c.frames_corrupted == ref.frames_corrupted &&
      c.frames_recovered == ref.frames_recovered &&
      c.frames_dropped + c.frames_erased == ref.tiles_degraded;
  if (!same) {
    report.fail("input " + std::to_string(input) +
                ": flight counters differ from downlink::run_chain");
  }
}

/// Sums of self time (ns) per span name, and the flight spans' coverage.
struct SpanTotals {
  std::map<std::string, double> self_ns;
  double flight_ns = 0.0;
  double coverage_min = 1.0;
  double coverage_sum = 0.0;
  std::size_t flights = 0;
};

SpanTotals fold_spans(const Tracer& tracer) {
  SpanTotals totals;
  const auto self = tracer.self_ns();
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "flight") {
      const auto dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      const double coverage =
          dur > 0.0 ? 1.0 - static_cast<double>(self[i]) / dur : 1.0;
      totals.flight_ns += dur;
      totals.coverage_min = std::min(totals.coverage_min, coverage);
      totals.coverage_sum += coverage;
      ++totals.flights;
    } else {
      totals.self_ns[name] += static_cast<double>(self[i]);
    }
  }
  return totals;
}

}  // namespace

RunReport run_chain_workload(const Options& options, bool telemetry,
                             Tracer* tracer) {
  RunReport report;

  // Set-up: synthesise every baseline and fly the reference chain once per
  // input.  Repeated; setup_s is the median.  A telemetry set-up takes
  // about 0.6 s, a fifth of an ngst one, so it is repeated three times as
  // often to time a comparable interval.
  std::vector<Input> inputs;
  double setup_wall_s = 0.0;
  const double setup_s = timed_setup(
      telemetry ? 3 * options.setup_reps : options.setup_reps,
      [&] {
        inputs.clear();
        for (std::size_t i = 0; i < kInputs; ++i) {
          Input input;
          input.config = chain_config(telemetry, options.seed, i);
          input.packed = synthesize(input.config);
          input.reference = downlink::run_chain(input.config);
          inputs.push_back(std::move(input));
        }
      },
      setup_wall_s);

  FlightContext ctx;
  ingest::IngestConfig ic;
  ic.expectation.bitpix = 16;
  ic.expectation.width = static_cast<std::int64_t>(inputs[0].config.side);
  ic.expectation.height =
      telemetry ? 1 : static_cast<std::int64_t>(inputs[0].config.side);
  ic.algo.lambda = inputs[0].config.lambda;
  ic.algo.upsilon = inputs[0].config.upsilon;
  ic.algo.threads = inputs[0].config.threads;
  ic.algo.kernel = inputs[0].config.kernel;
  // The executor is the seam that lets the voter be timed apart from
  // parse, sanity and decode; it computes exactly what ingest would inline.
  ic.executor = [&ctx](Stack16& stack, const core::AlgoNgstConfig& algo) {
    const Scope s(ctx.tracer, "core.voter", ctx.op);
    return core::AlgoNgst(algo).preprocess(stack);
  };
  const ingest::IngestGuard guard(ic);
  const fault::MessageFaultModel link(inputs[0].config.link);

  // Warm-up: one untimed, untraced flight per input.  Its counters are the
  // run's deterministic per-input-set totals, and its products are scored.
  FlightCounts totals;
  double psnr_sum = 0.0;
  double match_sum = 0.0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    FlightCounts c;
    const Image16 product = fly(inputs[i], guard, link, telemetry, ctx, c);
    const auto& ref = inputs[i].reference;
    if (!(product == ref.product)) {
      report.fail("input " + std::to_string(i) +
                  ": product differs from downlink::run_chain");
    }
    check_counts(c, ref, i, report);
    double psnr = 0.0;
    double match = 0.0;
    score(product, ref.golden, psnr, match);
    if (psnr != ref.psnr_db || match != ref.pixel_match) {
      report.fail("input " + std::to_string(i) +
                  ": psnr/pixel_match differ from the reference report");
    }
    psnr_sum += psnr;
    match_sum += match;
    totals.voxels = c.voxels;
    totals.pixels_corrected += c.pixels_corrected;
    totals.bits_corrected += c.bits_corrected;
    totals.pixels_vetoed += c.pixels_vetoed;
    totals.sanity_issues += c.sanity_issues;
    totals.compressed_bytes += c.compressed_bytes;
    totals.wire_bytes += c.wire_bytes;
    totals.words_corrected += c.words_corrected;
    totals.frames_dropped += c.frames_dropped;
    totals.frames_corrupted += c.frames_corrupted;
    totals.frames_recovered += c.frames_recovered;
    totals.frames_erased += c.frames_erased;
  }

  // Timed flights cycle through the inputs for the run length.  An
  // untraced run calibrates host speed after each flight.  A traced run
  // alternates whole cycles traced and untraced, so the two halves see the
  // same inputs and their difference is the tracing overhead.
  std::vector<double> flight_ms;
  std::vector<double> flight_at_s;  ///< start, from the phase's start
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  Calibration cal;
  const std::size_t min_flights = tracer ? 2 * kInputs : kInputs;
  const auto begin = Clock::now();
  const auto deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  for (std::size_t n = 0; n < min_flights || Clock::now() < deadline; ++n) {
    const std::size_t i = n % kInputs;
    const bool traced = tracer != nullptr && (n / kInputs) % 2 == 0;
    ctx.tracer = traced ? tracer : nullptr;
    ctx.op = n;
    FlightCounts c;
    bool ok = true;
    const auto f0 = Clock::now();
    try {
      const Image16 product = fly(inputs[i], guard, link, telemetry, ctx, c);
      const auto f1 = Clock::now();
      ok = product == inputs[i].reference.product;
      if (!ok) report.fail("flight " + std::to_string(n) + ": product differs");
      const double ms = ms_between(f0, f1);
      flight_ms.push_back(ms);
      flight_at_s.push_back(ms_between(begin, f0) / 1e3);
      (traced ? traced_ms : untraced_ms).push_back(ms);
    } catch (const std::exception& e) {
      ok = false;
      report.fail("flight " + std::to_string(n) + ": " + e.what());
    }
    ++report.attempted;
    if (!ok) ++report.failed;
    if (tracer == nullptr) cal.run(ms_between(begin, Clock::now()) / 1e3);
  }
  ctx.tracer = nullptr;
  const double phase_s = ms_between(begin, Clock::now()) / 1e3;

  const double product_px =
      static_cast<double>(inputs[0].reference.product.size());
  report.steps = "\"flights\":{\"attempted\":" +
                 std::to_string(report.attempted) + ",\"ok\":" +
                 std::to_string(report.attempted - report.failed) + "}";

  const auto count = [&report](const char* name, std::size_t value) {
    report.add(name, static_cast<double>(value), "count");
  };
  if (tracer == nullptr) {
    const auto throughput = [&](std::span<const double> ms) {
      double total_ms = 0.0;
      for (const double m : ms) total_ms += m;
      return static_cast<double>(ms.size()) * product_px / (total_ms / 1e3);
    };
    const auto p50 = [](std::span<const double> ms) {
      return percentile_of(ms, 50.0);
    };
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Scaled to reference host speed (no prefix), then as measured.
    const auto add_flight_metrics = [&](const std::string& prefix,
                                        const Calibration* scaled) {
      report.add(prefix + "throughput_px_per_s",
                 block_quartile(flight_ms, flight_at_s, phase_s, throughput,
                                Scale::kRate, scaled),
                 "px/s");
      report.add(prefix + "latency_ms_p50",
                 block_quartile(flight_ms, flight_at_s, phase_s, p50,
                                Scale::kTime, scaled),
                 "ms");
    };
    add_flight_metrics("", &cal);
    add_flight_metrics("wall.", nullptr);
    report.add("wall.setup_s", setup_wall_s, "s");
    report.add("host.calibration_ms", percentile_of(cal.ms, 50.0), "ms");
    report.add("flight_ms_p50", p50(flight_ms), "ms");
    report.add("flight_ms_p90", percentile_of(flight_ms, 90.0), "ms");
    report.add("psnr_db", psnr_sum / kInputs, "dB");
    report.add("pixel_match", match_sum / kInputs, "fraction");
    report.add("fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "fraction");
    count("flights", flight_ms.size());
    return report;
  }

  const SpanTotals spans = fold_spans(*tracer);
  const double flights = static_cast<double>(spans.flights);
  const auto self_ms = [&](const char* name) {
    const auto it = spans.self_ns.find(name);
    return it == spans.self_ns.end() ? 0.0 : it->second / 1e6 / flights;
  };
  // Each layer as ms per flight (detail) and as its share of flight time.
  const auto layer = [&](const char* span, const char* name) {
    const double ms = self_ms(span);
    report.add(std::string(name) + "_ms", ms, "ms");
    report.add(std::string(name) + ".share",
               ms * 1e6 * flights / spans.flight_ns, "fraction");
    return ms;
  };
  if (spans.coverage_min < kMinSpanCoverage) {
    char why[96];
    std::snprintf(why, sizeof why, "span coverage %.4f below %.2f",
                  spans.coverage_min, kMinSpanCoverage);
    report.fail(why);
  }
  const double voter_ms = layer("core.voter", "core.voter");
  const double corrected = static_cast<double>(totals.pixels_corrected);
  const double vetoed = static_cast<double>(totals.pixels_vetoed);
  report.add("core.voxels_per_s",
             static_cast<double>(totals.voxels) / (voter_ms / 1e3), "voxel/s");
  count("core.pixels_corrected", totals.pixels_corrected);
  count("core.bits_corrected", totals.bits_corrected);
  count("core.pixels_vetoed", totals.pixels_vetoed);
  report.add("core.veto_ratio",
             corrected + vetoed > 0.0 ? vetoed / (corrected + vetoed) : 0.0,
             "fraction");

  const double ingest_ms = layer("ingest.guard", "ingest.self");
  double packed_bytes = 0.0;
  for (const auto& input : inputs) {
    packed_bytes += static_cast<double>(input.packed.size());
  }
  report.add("ingest.mb_per_s",
             packed_bytes / kInputs / 1e6 / (ingest_ms / 1e3), "MB/s");
  count("ingest.sanity_issues", totals.sanity_issues);

  layer("downlink.compress", "downlink.compress");
  layer("downlink.decompress", "downlink.decompress");
  layer("downlink.frame", "downlink.frame");
  layer("downlink.deframe", "downlink.deframe");
  report.add("downlink.compressed_bytes",
             static_cast<double>(totals.compressed_bytes), "bytes");
  report.add("downlink.compression_ratio",
             product_px * sizeof(std::uint16_t) * kInputs /
                 static_cast<double>(totals.compressed_bytes),
             "ratio");
  report.add("downlink.wire_bytes", static_cast<double>(totals.wire_bytes),
             "bytes");
  count("downlink.words_corrected", totals.words_corrected);
  count("downlink.frames_recovered", totals.frames_recovered);
  count("downlink.frames_erased", totals.frames_erased);

  layer("fits.serialize", "fits.serialize");
  layer("fits.parse", "fits.parse");
  layer("fault.link", "fault.link");
  count("fault.frames_dropped", totals.frames_dropped);
  count("fault.frames_corrupted", totals.frames_corrupted);
  layer("bench.glue", "bench.glue");

  report.add("chain.span_coverage", spans.coverage_sum / flights, "fraction");
  report.add("chain.span_coverage_min", spans.coverage_min, "fraction");
  report.add("trace.overhead_frac",
             percentile_of(traced_ms, 50.0) / percentile_of(untraced_ms, 50.0) -
                 1.0,
             "fraction");
  report.add("flights_traced", flights, "count");
  return report;
}

}  // namespace ledger
