/// \file ledger.hpp
/// Shared pieces of the stage-ledger benchmark: run options, the report each
/// workload fills, and the timing helpers.
///
/// Every workload builds its inputs from the run seed during set-up, then
/// times the layers' public calls from outside.  An untraced run yields the
/// end-to-end metrics; a traced run records spans around the same calls and
/// yields the per-layer metrics.  Each workload adds every metric it has to
/// its report once; main.cpp picks out the names BENCHMARK.json lists.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "trace.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;   ///< measured length of one run
  bool trace = false;      ///< per-layer run: spans on, layer metrics out
  std::size_t setup_reps = 3;  ///< set-ups per run; setup_s is their median
};

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct RunReport {
  bool correct = true;
  bool valid = true;  ///< the load generator kept its schedule
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness findings, first few kept
  /// Every metric of the run, in print order: the BENCHMARK.json names
  /// (setup_s, core.voter.share, …) and the workload-specific detail
  /// (latency_ms_p99.r900, flight_ms_p90, psnr_db, …).
  std::vector<Metric> metrics;
  /// Per-step attempted/ok counts as a JSON object body.
  std::string steps;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Percentile p in [0, 100] of \p values; 0 for an empty sample.
[[nodiscard]] double percentile_of(std::span<const double> values, double p);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Host-speed calibration.
//
// The reference host is a shared VM whose speed drifts by 10-50% over
// seconds to minutes as its neighbours' load changes, which no code change
// causes.  Untraced runs therefore interleave a fixed calibration kernel —
// vector min/max arithmetic over a small per-thread buffer that calls no
// spacefts code, so neither the program's code nor the cache state it
// leaves changes the kernel's work — with the timed work, on the threads
// doing that work, and scale each time to the host speed measured next to
// it.  The end-to-end times read as the times the same work takes when the
// calibration kernel runs in kReferenceCalibrationMs; the detail line keeps
// the unscaled wall times.  The drift hits vector and floating-point work
// hardest: register-only integer arithmetic tracked a third to two thirds
// of it, this kernel all but a few percent.

/// The calibration kernel's median time on the reference host (4-vCPU
/// Intel Xeon VM at 2.0 GHz, quiet).
inline constexpr double kReferenceCalibrationMs = 0.095;

/// Runs the calibration kernel once; returns its wall time in ms.
[[nodiscard]] double calibrate_ms();

/// Calibration samples: when each ran (s from the start of the measured
/// phase) and how long it took (ms).
struct Calibration {
  std::vector<double> at_s;
  std::vector<double> ms;

  void run(double at) {
    at_s.push_back(at);
    ms.push_back(calibrate_ms());
  }
};

/// The measured phase is cut into this many equal-time blocks.
inline constexpr std::size_t kBlocks = 10;

/// What a block statistic measures.
enum class Scale {
  kTime,  ///< a time: lower is better, longer on a slower host
  kRate,  ///< work per second: higher is better, lower on a slower host
};

/// The value of \p stat over the run's least disturbed blocks.  The
/// measured phase [0, \p span_s) is cut into kBlocks equal-time blocks,
/// \p stat is applied to the samples whose time offset \p at_s falls in
/// each, and the block values' lower quartile (kTime) or upper quartile
/// (kRate) is returned, so host interference moves a run's figure only when
/// it covers most of the run.  With \p cal, each block's value is first
/// scaled to reference host speed by the median of cal's samples in that
/// block, and blocks without one are skipped; empty blocks always are.
[[nodiscard]] double block_quartile(
    std::span<const double> values, std::span<const double> at_s,
    double span_s, const std::function<double(std::span<const double>)>& stat,
    Scale scale, const Calibration* cal);

/// Runs \p set_up \p reps times and returns the median time in seconds,
/// each scaled to reference host speed by calibrations run just before
/// and after it.  \p raw_s receives the unscaled median.
[[nodiscard]] double timed_setup(std::size_t reps,
                                 const std::function<void()>& set_up,
                                 double& raw_s);

RunReport run_chain_workload(const Options& options, bool telemetry,
                             Tracer* tracer);
RunReport run_serve_mixed(const Options& options, Tracer* tracer);
RunReport run_serve_chaos(const Options& options, Tracer* tracer);

}  // namespace ledger
