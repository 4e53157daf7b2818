/// \file main.cpp
/// ledger_bench — the stage-ledger benchmark.
///
///   ledger_bench --workload W [--seed N] [--seconds S] [--trace]
///                [--trace-out PATH]
///   ledger_bench --smoke [--seed N]
///
/// W is ngst_chain, telemetry_chain, serve_mixed or serve_chaos.  A run
/// prints two lines: a detail object (provenance, per-step counts, every
/// metric under its workload-specific name), then the result object
///   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
/// holding exactly the metrics BENCHMARK.json lists for the mode: the
/// end-to-end set untraced, the per-layer set traced.  --seconds is the
/// measured length, which the benchmark harness passes as BENCHMARK.json's
/// run_seconds.  --smoke runs every workload untraced and traced at 1/20 of
/// the default length.
///
/// Exit codes: 0 ok; 1 a correctness gate failed; 2 usage or internal
/// error.  A run whose load generator could not keep its schedule still
/// reports, as the benchmark harness requires a result, but its detail line
/// reads "valid": false and stderr says so.
#include <sys/resource.h>
#include <sys/utsname.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "ledger.hpp"
#include "spacefts/common/stats.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace ledger {

double percentile_of(std::span<const double> values, double p) {
  return values.empty() ? 0.0 : spacefts::common::percentile(values, p);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double calibrate_ms() {
  // A median-of-four vote across four frames of 4096 samples, 32 passes:
  // vector min/max work like the voter's, over 40 KB that each thread keeps
  // to itself, so the cache state the timed work leaves behind barely
  // changes its time.  Each pass feeds the next through one sample.
  constexpr std::size_t kSamples = 4096;
  constexpr int kPasses = 32;
  static std::atomic<std::uint64_t> sink{1};
  thread_local std::vector<std::uint16_t> frames = [] {
    std::vector<std::uint16_t> f(4 * kSamples);
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    for (auto& v : f) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<std::uint16_t>(s >> 48);
    }
    return f;
  }();
  std::array<std::uint16_t, kSamples> out{};
  const auto t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kSamples; ++i) {
      const std::uint16_t a = frames[i];
      const std::uint16_t b = frames[kSamples + i];
      const std::uint16_t c = frames[2 * kSamples + i];
      const std::uint16_t d = frames[3 * kSamples + i];
      const std::uint16_t lo = std::max(std::min(a, b), std::min(c, d));
      const std::uint16_t hi = std::min(std::max(a, b), std::max(c, d));
      out[i] = static_cast<std::uint16_t>((lo + hi + pass) >> 1);
    }
    frames[static_cast<std::size_t>(pass)] ^=
        out[static_cast<std::size_t>(pass)];
  }
  const auto t1 = Clock::now();
  sink.fetch_add(out[kSamples / 2], std::memory_order_relaxed);
  return ms_between(t0, t1);
}

double block_quartile(
    std::span<const double> values, std::span<const double> at_s,
    double span_s, const std::function<double(std::span<const double>)>& stat,
    Scale scale, const Calibration* cal) {
  const auto block_of = [span_s](double at) {
    const double share = span_s > 0.0 ? at / span_s : 0.0;
    const auto b = static_cast<std::size_t>(
        std::clamp(share, 0.0, 1.0) * static_cast<double>(kBlocks));
    return std::min(b, kBlocks - 1);
  };
  std::vector<std::vector<double>> blocks(kBlocks);
  std::vector<std::vector<double>> cal_blocks(kBlocks);
  for (std::size_t i = 0; i < values.size(); ++i) {
    blocks[block_of(at_s[i])].push_back(values[i]);
  }
  if (cal != nullptr) {
    for (std::size_t i = 0; i < cal->ms.size(); ++i) {
      cal_blocks[block_of(cal->at_s[i])].push_back(cal->ms[i]);
    }
  }
  std::vector<double> per_block;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    if (blocks[b].empty()) continue;
    const double value = stat(blocks[b]);
    if (cal == nullptr) {
      per_block.push_back(value);
      continue;
    }
    if (cal_blocks[b].empty()) continue;
    const double slowdown =
        percentile_of(cal_blocks[b], 50.0) / kReferenceCalibrationMs;
    per_block.push_back(scale == Scale::kTime ? value / slowdown
                                              : value * slowdown);
  }
  return percentile_of(per_block, scale == Scale::kTime ? 25.0 : 75.0);
}

double timed_setup(std::size_t reps, const std::function<void()>& set_up,
                   double& raw_s) {
  constexpr std::size_t kCalibrations = 5;  // before, and again after
  std::vector<double> raw;
  std::vector<double> scaled;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Calibration cal;
    for (std::size_t i = 0; i < kCalibrations; ++i) cal.run(0.0);
    const auto t0 = Clock::now();
    set_up();
    const double s = ms_between(t0, Clock::now()) / 1e3;
    for (std::size_t i = 0; i < kCalibrations; ++i) cal.run(0.0);
    raw.push_back(s);
    scaled.push_back(s * kReferenceCalibrationMs /
                     percentile_of(cal.ms, 50.0));
  }
  raw_s = percentile_of(raw, 50.0);
  return percentile_of(scaled, 50.0);
}

namespace {

namespace jsonl = spacefts::telemetry::jsonl;

/// Matches BENCHMARK.json's run_seconds.
constexpr double kDefaultSeconds = 12.0;
constexpr double kSmokeFraction = 1.0 / 20.0;

struct Named {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json end_to_end, in its order.  Every workload reports all of
/// them, the times scaled to reference host speed (ledger.hpp); the detail
/// line has the wall-clock values under a "wall." prefix.  Latency is
/// flight time for the chains, due time to result for serve_mixed and
/// submission to result for serve_chaos.  Tails (p90, p99) stay in the
/// detail line: on a shared host they flip with the share of ops hit by
/// outside interference and spread too far run to run to carry a
/// regression bound.
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_px_per_s", "px/s"},
    {"latency_ms_p50", "ms"},
};

/// BENCHMARK.json per_layer, in its order.  Layer times are shares of the
/// op's wall time (flight, or request from due time to result), so layers
/// a workload never enters read 0 rather than a time.
constexpr Named kPerLayer[] = {
    {"core.voter_ms", "ms"},
    {"core.voter.share", "fraction"},
    {"core.voxels_per_s", "voxel/s"},
    {"core.pixels_corrected", "count"},
    {"core.bits_corrected", "count"},
    {"core.pixels_vetoed", "count"},
    {"core.veto_ratio", "fraction"},
    {"ingest.self.share", "fraction"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.sanity_issues", "count"},
    {"downlink.compress.share", "fraction"},
    {"downlink.decompress.share", "fraction"},
    {"downlink.frame.share", "fraction"},
    {"downlink.deframe.share", "fraction"},
    {"downlink.compressed_bytes", "bytes"},
    {"downlink.compression_ratio", "ratio"},
    {"downlink.wire_bytes", "bytes"},
    {"downlink.words_corrected", "count"},
    {"downlink.frames_recovered", "count"},
    {"downlink.frames_erased", "count"},
    {"fits.serialize.share", "fraction"},
    {"fits.parse.share", "fraction"},
    {"fault.link.share", "fraction"},
    {"fault.frames_dropped", "count"},
    {"fault.frames_corrupted", "count"},
    {"bench.glue.share", "fraction"},
    {"loadgen.lag.share", "fraction"},
    {"serve.submit.share", "fraction"},
    {"serve.queue_wait.share", "fraction"},
    {"serve.batch_wait.share", "fraction"},
    {"serve.noncompute.share", "fraction"},
    {"serve.batch_size_mean", "count"},
    {"serve.batches", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.shed", "count"},
    {"backend.guard.share", "fraction"},
    {"backend.shadow_overhead.share", "fraction"},
    {"backend.sampled", "count"},
    {"backend.mismatches", "count"},
    {"router.replays", "count"},
    {"router.ejections", "count"},
    {"router.stale_results", "count"},
    {"router.spills", "count"},
    {"chain.span_coverage", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

constexpr const char* kWorkloads[] = {"ngst_chain", "telemetry_chain",
                                      "serve_mixed", "serve_chaos"};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

std::string kernel_release() {
  utsname name{};
  return uname(&name) == 0 ? name.release : "unknown";
}

void append_number(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

/// Appends \p text as a JSON string literal.
void append_string(std::string& out, std::string_view text) {
  out += '"';
  out += jsonl::escape(text);
  out += '"';
}

void append_metric(std::string& out, bool first, const std::string& name,
                   double value, const char* unit) {
  if (!first) out += ",";
  append_string(out, name);
  out += ":{\"value\":";
  append_number(out, value);
  out += ",\"unit\":\"";
  out += unit;
  out += "\"}";
}

/// The detail object: provenance, steps, and every workload metric.
std::string detail_line(const Options& options, const RunReport& report) {
  std::string out = "{\"ledger\":\"" + options.workload + "\",\"mode\":\"";
  out += options.trace ? "traced" : "untraced";
  out += "\",\"seed\":" + std::to_string(options.seed) + ",\"seconds\":";
  append_number(out, options.seconds);
  out += ",\"host_cores\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":";
  append_string(out, cpu_model());
  out += ",\"kernel_release\":";
  append_string(out, kernel_release());
  out += ",\"voter_kernel\":";
  append_string(out, spacefts::core::kernel_name(spacefts::core::resolve_kernel(
                         spacefts::core::Kernel::kAuto)));
  out += ",\"git_sha\":";
  append_string(out, LEDGER_GIT_SHA);
  out += ",\"valid\":";
  out += report.valid ? "true" : "false";
  out += ",\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ",";
    append_string(out, report.errors[i]);
  }
  out += "],\"steps\":{" + report.steps + "},\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    append_metric(out, i == 0, m.name, m.value, m.unit.c_str());
  }
  return out + "}}";
}

/// The result object: the report's values of the BENCHMARK.json names of
/// the mode, in BENCHMARK.json's order.
std::string result_line(const Options& options, RunReport& report) {
  const std::span<const Named> names =
      options.trace ? std::span<const Named>(kPerLayer)
                    : std::span<const Named>(kEndToEnd);
  std::string metrics;
  for (const Named& named : names) {
    // A layer the workload never enters reads 0; every end-to-end metric
    // must have been measured.
    const auto it = std::find_if(
        report.metrics.begin(), report.metrics.end(),
        [&](const Metric& m) { return m.name == named.name; });
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->value;
      if (it->unit != named.unit) {
        report.fail(std::string("metric ") + named.name + " is in " +
                    it->unit + ", BENCHMARK.json says " + named.unit);
      }
    } else if (!options.trace) {
      report.fail(std::string("metric ") + named.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      report.fail(std::string("metric ") + named.name + " is not finite");
      value = 0.0;
    }
    append_metric(metrics, metrics.empty(), named.name, value, named.unit);
  }
  return std::string("{\"correct\":") + (report.correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(report.attempted) +
         ",\"failed\":" + std::to_string(report.failed) + ",\"metrics\":{" +
         metrics + "}}";
}

RunReport run_workload(const Options& options, Tracer* tracer) {
  if (options.workload == "ngst_chain") {
    return run_chain_workload(options, /*telemetry=*/false, tracer);
  }
  if (options.workload == "telemetry_chain") {
    return run_chain_workload(options, /*telemetry=*/true, tracer);
  }
  if (options.workload == "serve_mixed") {
    return run_serve_mixed(options, tracer);
  }
  return run_serve_chaos(options, tracer);
}

/// Runs one workload, prints its lines, returns the exit code.
int run_and_print(const Options& options, const std::string& trace_out) {
  Tracer tracer(options.trace ? 1u << 17 : 0);
  RunReport report = run_workload(options, options.trace ? &tracer : nullptr);
  const std::string result = result_line(options, report);
  std::printf("%s\n", detail_line(options, report).c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  if (options.trace && !trace_out.empty() &&
      !tracer.write_chrome(trace_out)) {
    std::fprintf(stderr, "ledger_bench: cannot write %s\n", trace_out.c_str());
    return 2;
  }
  for (const auto& error : report.errors) {
    std::fprintf(stderr, "ledger_bench: %s: %s\n", options.workload.c_str(),
                 error.c_str());
  }
  if (!report.valid) {
    std::fprintf(stderr,
                 "ledger_bench: %s: load generator fell behind its schedule"
                 " in every attempt; the numbers describe a contended host\n",
                 options.workload.c_str());
  }
  return report.correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: ledger_bench --workload "
               "{ngst_chain|telemetry_chain|serve_mixed|serve_chaos}\n"
               "                    [--seed N] [--seconds S] [--trace]"
               " [--trace-out PATH]\n"
               "       ledger_bench --smoke [--seed N]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0' && text[0] != '-';
}

int run_main(int argc, char** argv) {
  Options options;
  options.seconds = kDefaultSeconds;
  std::string trace_out;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_u64(argv[++i], options.seed)) return usage();
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' ||
          !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return usage();
      }
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }

  if (smoke) {
    // Every workload, untraced then traced, with every gate on.
    int worst = 0;
    for (const char* workload : kWorkloads) {
      for (const bool trace : {false, true}) {
        Options run = options;
        run.workload = workload;
        run.trace = trace;
        run.seconds = kDefaultSeconds * kSmokeFraction;
        run.setup_reps = 1;
        const int code = run_and_print(run, "");
        if (code == 1 || (code != 0 && worst == 0)) worst = code;
      }
    }
    return worst;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                options.workload) == std::end(kWorkloads)) {
    return usage();
  }
  return run_and_print(options, trace_out);
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  try {
    return ledger::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_bench: %s\n", e.what());
    return 2;
  }
}
