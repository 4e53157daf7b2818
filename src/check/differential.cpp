#include "spacefts/check/differential.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <iterator>
#include <span>

#include "spacefts/check/oracle.hpp"
#include "spacefts/check/properties.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/fault/models.hpp"

namespace spacefts::check {
namespace {

/// FNV-1a 64-bit over whatever the case folds in; the per-case signature.
struct Hasher {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void fold(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state ^= (value >> (i * 8)) & 0xFF;
      state *= 0x100000001b3ULL;
    }
  }
  void fold(std::span<const std::uint16_t> words) {
    for (const auto w : words) fold(std::uint64_t{w});
  }
  void fold_bits(std::span<const float> values) {
    for (const float v : values) fold(std::uint64_t{std::bit_cast<std::uint32_t>(v)});
  }
};

template <typename... Args>
[[nodiscard]] std::string fmt(const char* pattern, Args... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), pattern, args...);
  return std::string(buffer);
}

/// Names the first differing report field; empty when identical.
[[nodiscard]] std::string diff_reports(const core::AlgoNgstReport& core,
                                       const core::AlgoNgstReport& oracle) {
  if (core.lsb_mask != oracle.lsb_mask) return "lsb_mask";
  if (core.msb_mask != oracle.msb_mask) return "msb_mask";
  if (core.pixels_examined != oracle.pixels_examined) return "pixels_examined";
  if (core.pixels_corrected != oracle.pixels_corrected)
    return "pixels_corrected";
  if (core.bits_corrected != oracle.bits_corrected) return "bits_corrected";
  if (core.pixels_vetoed != oracle.pixels_vetoed) return "pixels_vetoed";
  return {};
}

[[nodiscard]] std::string diff_reports(const core::AlgoOtisReport& core,
                                       const core::AlgoOtisReport& oracle) {
  if (core.pixels_examined != oracle.pixels_examined) return "pixels_examined";
  if (core.out_of_bounds != oracle.out_of_bounds) return "out_of_bounds";
  if (core.outliers != oracle.outliers) return "outliers";
  if (core.trend_protected != oracle.trend_protected) return "trend_protected";
  if (core.bit_corrected != oracle.bit_corrected) return "bit_corrected";
  if (core.median_replaced != oracle.median_replaced) return "median_replaced";
  return {};
}

void fold_report(Hasher& hash, const core::AlgoNgstReport& report) {
  hash.fold(report.lsb_mask);
  hash.fold(report.msb_mask);
  hash.fold(report.pixels_examined);
  hash.fold(report.pixels_corrected);
  hash.fold(report.bits_corrected);
  hash.fold(report.pixels_vetoed);
}

void fold_report(Hasher& hash, const core::AlgoOtisReport& report) {
  hash.fold(report.pixels_examined);
  hash.fold(report.out_of_bounds);
  hash.fold(report.outliers);
  hash.fold(report.trend_protected);
  hash.fold(report.bit_corrected);
  hash.fold(report.median_replaced);
}

/// Fault-injection stream decoupled from data generation, so the same case
/// always corrupts the same bits no matter how the generator evolves.
[[nodiscard]] common::Rng fault_rng(const CaseSpec& spec) {
  return common::Rng(common::derive_stream_seed(
      spec.seed, 0xFA, static_cast<std::uint64_t>(spec.family)));
}

// ---- diff families ----------------------------------------------------------

void run_ngst_diff(const CaseSpec& spec, const RunOptions& options,
                   CaseResult& result, Hasher& hash) {
  datagen::NgstSimulator sim(spec.seed);
  datagen::SceneParams scene;
  scene.width = spec.width;
  scene.height = spec.height;
  scene.stars = std::max<std::size_t>(1, spec.width * spec.height / 64);
  auto stack = sim.stack(spec.frames, scene);
  if (spec.gamma > 0.0) {
    auto rng = fault_rng(spec);
    const auto mask = fault::CorrelatedFaultModel(spec.gamma)
                          .mask16(spec.width, spec.height * spec.frames, rng);
    fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  }

  core::AlgoNgstConfig config;
  config.upsilon = spec.upsilon;
  config.lambda = spec.lambda;

  auto golden = stack;
  const auto golden_report = oracle_ngst_stack(golden, config);
  hash.fold(golden.cube().voxels());
  fold_report(hash, golden_report);

  for (const core::Kernel kernel : options.kernels) {
    config.kernel = kernel;
    const char* kname = core::kernel_name(kernel);
    for (const std::size_t threads : options.threads) {
      config.threads = threads;
      auto work = stack;
      const auto report = core::AlgoNgst(config).preprocess(work);
      if (work != golden) {
        const auto a = work.cube().voxels();
        const auto b = golden.cube().voxels();
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (a[i] != b[i]) {
            result.ok = false;
            result.detail = fmt(
                "ngst kernel=%s threads=%zu: voxel %zu is %04x, oracle says "
                "%04x",
                kname, threads, i, unsigned{a[i]}, unsigned{b[i]});
            return;
          }
        }
      }
      if (const auto field = diff_reports(report, golden_report);
          !field.empty()) {
        result.ok = false;
        result.detail = fmt("ngst kernel=%s threads=%zu: report field %s diverged",
                            kname, threads, field.c_str());
        return;
      }
    }
  }
}

void run_otis_diff(const CaseSpec& spec, const RunOptions& options,
                   CaseResult& result, Hasher& hash) {
  datagen::OtisSceneGenerator generator(spec.seed);
  datagen::OtisSceneParams params;
  params.width = spec.width;
  params.height = spec.height;
  params.bands = spec.frames;
  constexpr datagen::OtisSceneKind kKinds[] = {
      datagen::OtisSceneKind::kBlob, datagen::OtisSceneKind::kStripe,
      datagen::OtisSceneKind::kSpots};
  const auto scene = generator.generate(kKinds[spec.scene % 3], params);

  auto cube = scene.radiance;
  if (spec.gamma > 0.0) {
    auto rng = fault_rng(spec);
    const auto mask = fault::CorrelatedFaultModel(spec.gamma)
                          .mask32(spec.width, spec.height * spec.frames, rng);
    fault::apply_mask_float(cube.voxels(), mask);
  }

  core::AlgoOtisConfig config;
  config.upsilon = spec.upsilon;
  config.lambda = spec.lambda;

  auto golden = cube;
  const auto golden_report =
      oracle_otis_cube(golden, scene.wavelengths_um, config);
  hash.fold_bits(golden.voxels());
  fold_report(hash, golden_report);

  for (const core::Kernel kernel : options.kernels) {
    config.kernel = kernel;
    const char* kname = core::kernel_name(kernel);
    for (const std::size_t threads : options.threads) {
      config.threads = threads;
      auto work = cube;
      const auto report =
          core::AlgoOtis(config).preprocess(work, scene.wavelengths_um);
      const auto a = work.voxels();
      const auto b = golden.voxels();
      for (std::size_t i = 0; i < a.size(); ++i) {
        // Bit-pattern comparison: float == would treat two NaNs as different.
        if (std::bit_cast<std::uint32_t>(a[i]) !=
            std::bit_cast<std::uint32_t>(b[i])) {
          result.ok = false;
          result.detail = fmt(
              "otis kernel=%s threads=%zu: voxel %zu is %08x, oracle says "
              "%08x",
              kname, threads, i, std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]));
          return;
        }
      }
      if (const auto field = diff_reports(report, golden_report);
          !field.empty()) {
        result.ok = false;
        result.detail = fmt("otis kernel=%s threads=%zu: report field %s diverged",
                            kname, threads, field.c_str());
        return;
      }
    }
  }
}

// ---- property families ------------------------------------------------------

void apply(const PropertyResult& property, const char* name,
           CaseResult& result) {
  if (result.ok && !property.ok) {
    result.ok = false;
    result.detail = std::string(name) + ": " + property.detail;
  }
}

void run_metamorphic(const CaseSpec& spec, CaseResult& result) {
  datagen::NgstSimulator sim(spec.seed);
  auto series = sim.sequence(std::max<std::size_t>(spec.frames, 4));
  if (spec.gamma > 0.0) {
    auto rng = fault_rng(spec);
    const auto mask =
        fault::UncorrelatedFaultModel(spec.gamma).mask16(series.size(), rng);
    fault::apply_mask<std::uint16_t>(series, mask);
  }
  const double lambda_hi = std::max(spec.lambda, 2.0);
  const double lambda_lo = std::max(1.0, lambda_hi * 0.5);
  apply(check_lambda_monotonicity(series, spec.upsilon, lambda_lo, lambda_hi),
        "lambda_monotonicity", result);

  core::AlgoNgstConfig config;
  config.upsilon = spec.upsilon;
  config.lambda = spec.lambda;
  apply(check_window_c_invariance(series, config), "window_c_invariance",
        result);
  apply(check_ngst_idempotence(series, config), "ngst_idempotence", result);

  // Kernel-choice invariance on a small stack drawn from the same seed:
  // whichever kernel runs, the result must match oracle_ngst_stack bit for
  // bit (width 17 leaves an odd tile remainder on every kernel).
  datagen::SceneParams scene;
  scene.width = 17;
  scene.height = 6;
  scene.stars = 4;
  auto stack = sim.stack(std::max<std::size_t>(spec.frames, 4), scene);
  if (spec.gamma > 0.0) {
    auto rng = fault_rng(spec);
    const auto mask = fault::UncorrelatedFaultModel(spec.gamma)
                          .mask16(stack.cube().size(), rng);
    fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  }
  apply(check_kernel_invariance(stack, config), "kernel_invariance", result);
}

}  // namespace

CaseSpec make_fuzz_case(std::uint64_t base_seed, std::uint64_t index) {
  CaseSpec spec;
  spec.family =
      static_cast<CaseFamily>(index % static_cast<std::uint64_t>(kCaseFamilyCount));
  spec.seed = common::derive_stream_seed(
      base_seed, index, static_cast<std::uint64_t>(spec.family));

  common::Rng rng(spec.seed);
  constexpr double kLambdas[] = {40.0, 60.0, 80.0, 95.0, 100.0};
  constexpr std::size_t kUpsilonTemporal[] = {2, 4, 6, 8, 12};
  constexpr std::size_t kUpsilonSpatial[] = {2, 4, 8};
  constexpr double kGammas[] = {0.0, 0.0005, 0.002, 0.01};
  spec.lambda = kLambdas[rng.below(std::size(kLambdas))];
  spec.gamma = kGammas[rng.below(std::size(kGammas))];

  switch (spec.family) {
    case CaseFamily::kOtisDiff:
      spec.width = 8 + rng.below(25);    // 8..32
      spec.height = 8 + rng.below(25);
      spec.frames = 4 + rng.below(7);    // bands 4..10
      spec.upsilon = kUpsilonSpatial[rng.below(std::size(kUpsilonSpatial))];
      spec.scene = rng.below(3);
      break;
    case CaseFamily::kNgstDiff:
      spec.width = 4 + rng.below(37);    // 4..40
      spec.height = 4 + rng.below(37);
      spec.frames = 8 + rng.below(57);   // 8..64
      spec.upsilon = kUpsilonTemporal[rng.below(std::size(kUpsilonTemporal))];
      break;
    default:
      // Property families only consume seed/frames/lambda/upsilon/gamma;
      // the geometry fields keep their defaults (and round-trip verbatim).
      spec.frames = 8 + rng.below(57);
      spec.upsilon = kUpsilonTemporal[rng.below(std::size(kUpsilonTemporal))];
      break;
  }
  return spec;
}

CaseResult run_case(const CaseSpec& spec, const RunOptions& options) {
  CaseResult result;
  result.spec = spec;
  Hasher hash;
  hash.fold(static_cast<std::uint64_t>(spec.family));
  hash.fold(spec.seed);
  try {
    common::Rng rng(spec.seed);
    switch (spec.family) {
      case CaseFamily::kNgstDiff:
        run_ngst_diff(spec, options, result, hash);
        break;
      case CaseFamily::kOtisDiff:
        run_otis_diff(spec, options, result, hash);
        break;
      case CaseFamily::kRiceRoundtrip:
        apply(check_rice_roundtrip(rng), "rice_roundtrip", result);
        apply(check_rice_writer_reuse(rng), "rice_writer_reuse", result);
        apply(check_rice_corrupt_contract(rng), "rice_corrupt_contract",
              result);
        apply(check_rice_decode_oracle(rng), "rice_decode_oracle", result);
        break;
      case CaseFamily::kCrcFrame:
        apply(check_crc_frame(rng), "crc_frame", result);
        break;
      case CaseFamily::kHamming:
        apply(check_hamming_contract(rng), "hamming_contract", result);
        break;
      case CaseFamily::kProperties:
        run_metamorphic(spec, result);
        break;
      case CaseFamily::kServeWorkload:
        apply(check_serve_workload_roundtrip(rng), "serve_workload_roundtrip",
              result);
        apply(check_serve_determinism(rng), "serve_determinism", result);
        break;
      case CaseFamily::kDownlink:
        apply(check_downlink_roundtrip(rng), "downlink_roundtrip", result);
        apply(check_downlink_corrupt_contract(rng), "downlink_corrupt_contract",
              result);
        break;
    }
  } catch (const std::exception& error) {
    result.ok = false;
    result.detail = std::string("unhandled exception: ") + error.what();
  }
  // The line depends only on the spec and (via the hash) the oracle's
  // answer — never on the thread count — so corpus replays byte-compare
  // across --threads values.
  result.line = (result.ok ? "ok " : "FAIL ") + to_json(spec);
  if (result.ok) {
    result.line += fmt(" sig=%016llx",
                       static_cast<unsigned long long>(hash.state));
  }
  return result;
}

CheckReport run_cases(const std::vector<CaseSpec>& specs,
                      const RunOptions& options) {
  CheckReport report;
  report.cases = specs.size();
  for (const CaseSpec& spec : specs) {
    CaseResult result = run_case(spec, options);
    report.lines.push_back(result.line);
    if (!result.ok) report.failures.push_back(std::move(result));
  }
  return report;
}

CheckReport run_fuzz(std::uint64_t base_seed, std::size_t cases,
                     const RunOptions& options) {
  CheckReport report;
  report.cases = cases;
  for (std::size_t index = 0; index < cases; ++index) {
    CaseResult result = run_case(make_fuzz_case(base_seed, index), options);
    report.lines.push_back(result.line);
    if (result.ok) continue;
    report.shrunk.push_back(
        shrink_case(result.spec, [&options](const CaseSpec& candidate) {
          return !run_case(candidate, options).ok;
        }));
    report.failures.push_back(std::move(result));
  }
  return report;
}

}  // namespace spacefts::check
