/// \file bench_util.hpp
/// Shared machinery for the experiment harnesses in bench/.
///
/// Every figure bench follows the same pattern: synthesise pristine data,
/// replay one fault mask against several preprocessing algorithms, and
/// report the paper's Ψ metric per (parameter point, algorithm).  The
/// helpers here keep each bench to its experiment-specific sweep.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/utsname.h>

#include "spacefts/common/cpu.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/metrics/error.hpp"
#include "spacefts/smoothing/temporal.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace bench {

/// One named preprocessing algorithm over a temporal series.
struct TemporalAlgorithm {
  std::string name;
  std::function<void(std::span<std::uint16_t>)> run;  ///< in-place
};

/// The figure benches' standard algorithm roster.
inline TemporalAlgorithm no_preprocessing() {
  return {"NoPre", [](std::span<std::uint16_t>) {}};
}

inline TemporalAlgorithm algo_ngst(double lambda, std::size_t upsilon = 4) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = lambda;
  config.upsilon = upsilon;
  const spacefts::core::AlgoNgst algo(config);
  char label[48];
  std::snprintf(label, sizeof label, "Algo_NGST(L=%g,Y=%zu)", lambda, upsilon);
  return {label,
          [algo](std::span<std::uint16_t> s) { (void)algo.preprocess(s); }};
}

inline TemporalAlgorithm median3() {
  return {"Median-3",
          [](std::span<std::uint16_t> s) { spacefts::smoothing::median_smooth3(s); }};
}

inline TemporalAlgorithm bitvote3() {
  return {"BitVote-3", [](std::span<std::uint16_t> s) {
            spacefts::smoothing::majority_bit_vote3(s);
          }};
}

/// Generates a fault mask for one trial.
using MaskSource =
    std::function<std::vector<std::uint16_t>(std::size_t, spacefts::common::Rng&)>;

inline MaskSource uncorrelated_mask(double gamma0) {
  return [gamma0](std::size_t words, spacefts::common::Rng& rng) {
    return spacefts::fault::UncorrelatedFaultModel(gamma0).mask16(words, rng);
  };
}

inline MaskSource correlated_mask(double gamma_ini) {
  // One 16-bit word per memory line: vertical runs strike the same bit of
  // consecutive readouts (the §2.2.3 layout used throughout the benches).
  return [gamma_ini](std::size_t words, spacefts::common::Rng& rng) {
    return spacefts::fault::CorrelatedFaultModel(gamma_ini).mask16(1, words, rng);
  };
}

/// Measures Ψ for every algorithm on identical corrupted inputs.
/// \returns one Ψ value per algorithm, in roster order.
inline std::vector<double> measure_psi(
    const std::vector<TemporalAlgorithm>& roster, const MaskSource& mask_source,
    std::size_t trials, std::size_t frames, double start, double sigma,
    std::uint64_t seed) {
  spacefts::datagen::NgstSimulator sim(seed);
  spacefts::common::Rng fault_rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<double> psi(roster.size(), 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    const auto pristine = sim.sequence(frames, start, sigma);
    const auto mask = mask_source(pristine.size(), fault_rng);
    auto corrupted = pristine;
    spacefts::fault::apply_mask<std::uint16_t>(corrupted, mask);
    for (std::size_t a = 0; a < roster.size(); ++a) {
      auto working = corrupted;
      roster[a].run(working);
      psi[a] += spacefts::metrics::average_relative_error<std::uint16_t>(
          pristine, working);
    }
  }
  for (double& p : psi) p /= static_cast<double>(trials);
  return psi;
}

/// The short commit hash the bench binary was built from, stamped into
/// every trajectory record: perf_microbench's build regenerates the header
/// (bench/git_sha.cmake); "unknown" in binaries built without it.
#if __has_include("spacefts_git_sha.hpp")
#include "spacefts_git_sha.hpp"
#else
#define SPACEFTS_GIT_SHA "unknown"
#endif

namespace detail {

/// The run-configuration identity of one BENCH_preprocess.json record.
inline std::string preprocess_record_key(std::string_view line) {
  using spacefts::telemetry::jsonl::json_field;
  return json_field(line, "bench") + "|" + json_field(line, "threads") + "|" +
         json_field(line, "upsilon") + "|" + json_field(line, "lambda") + "|" +
         json_field(line, "kernel");
}

}  // namespace detail

/// The host's CPU, as the first "model name" of /proc/cpuinfo.
inline std::string host_cpu() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const auto value = line.find_first_not_of(" \t", colon + 1);
      return value == std::string::npos ? "" : line.substr(value);
    }
  }
  return "unknown";
}

/// The host's kernel release, as uname reports it.
inline std::string host_kernel() {
  utsname name{};
  return uname(&name) == 0 ? name.release : "unknown";
}

/// UTC wall-clock stamp ("2026-02-07T12:34:56Z") for trajectory records.
inline std::string iso_timestamp_utc() {
  std::tm tm{};
  const std::time_t now = std::time(nullptr);
  gmtime_r(&now, &tm);
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return stamp;
}

/// Records one stack-preprocessing throughput measurement, the best of
/// \p reps timed runs, in \p path (default: BENCH_preprocess.json in the
/// working directory):
///   {"bench": "stack_preprocess", "pixels_per_s": …, "threads": …,
///    "upsilon": …, "lambda": …, "kernel": "…", "host_cores": …,
///    "host_parallel_speedup": …, "host_cpu": "…", "host_kernel": "…",
///    "host_isa": "…", "reps": …, "git_sha": "…", "iso_timestamp": "…"}
/// host_isa is the CPU probe's feature set (common::cpu::names), the one
/// every dispatch table picks its rows from.
/// \p host_parallel_speedup is what the host gave \p threads spinning
/// threads over one just before the measurement: a lane row that does not
/// scale past it says the host was busy, not that the pool failed.
/// The file holds exactly one line per run configuration — (bench,
/// threads, upsilon, lambda, kernel) — so re-running a bench replaces its
/// row instead of accumulating duplicates.  The rewrite also collapses any
/// duplicate rows already present.  Exits the bench with status 1 when
/// the file cannot be rewritten.
inline void append_preprocess_record(double pixels_per_s, std::size_t threads,
                                     std::size_t upsilon, double lambda,
                                     const char* kernel, std::size_t reps,
                                     double host_parallel_speedup,
                                     const char* path = "BENCH_preprocess.json") {
  namespace jsonl = spacefts::telemetry::jsonl;
  std::string line = "{\"bench\": \"stack_preprocess\", \"pixels_per_s\": ";
  jsonl::append_fmt(line, "%.6g", pixels_per_s);
  line += ", \"threads\": " + std::to_string(threads);
  line += ", \"upsilon\": " + std::to_string(upsilon);
  line += ", \"lambda\": ";
  jsonl::append_fmt(line, "%g", lambda);
  line += ", \"kernel\": \"" + jsonl::escape(kernel) + "\"";
  line += ", \"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency());
  line += ", \"host_parallel_speedup\": ";
  jsonl::append_fmt(line, "%.3g", host_parallel_speedup);
  line += ", \"host_cpu\": \"" + jsonl::escape(host_cpu()) + "\"";
  line += ", \"host_kernel\": \"" + jsonl::escape(host_kernel()) + "\"";
  line += ", \"host_isa\": \"" +
          jsonl::escape(spacefts::common::cpu::names(
              spacefts::common::cpu::host())) +
          "\"";
  line += ", \"reps\": " + std::to_string(reps);
  line += ", \"git_sha\": \"" + jsonl::escape(SPACEFTS_GIT_SHA) + "\"";
  line += ", \"iso_timestamp\": \"" + iso_timestamp_utc() + "\"}\n";
  if (!jsonl::upsert_jsonl(line, detail::preprocess_record_key, path)) {
    std::exit(EXIT_FAILURE);
  }
}

/// Prints a table header: the x-label followed by one column per algorithm.
inline void print_header(const char* x_label,
                         const std::vector<TemporalAlgorithm>& roster) {
  std::printf("%-12s", x_label);
  for (const auto& algo : roster) std::printf("  %20s", algo.name.c_str());
  std::printf("\n");
}

/// Prints one row of Ψ values.
inline void print_row(double x, const std::vector<double>& psi) {
  std::printf("%-12g", x);
  for (double p : psi) std::printf("  %20.6g", p);
  std::printf("\n");
}

}  // namespace bench
