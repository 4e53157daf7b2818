/// \file serve_bench.cpp
/// Offered-load and shard-scaling sweeps over the preprocessing service.
///
/// Part 1 (single server): calibrates the mean per-request service time
/// closed-loop, then replays a real-paced open-loop Poisson workload at
/// 0.5×, 1× and 2× the measured capacity in pure load-shedding mode.  The
/// 2× row demonstrates the paper-facing property: past saturation the
/// server sheds instead of collapsing.
///
/// Part 2 (sharded router): sweeps 1 / 4 / 16 shards at 80% of fleet
/// capacity, plus one chaos row — 4 shards at 2× a single shard's capacity
/// with one shard killed mid-load — showing throughput scales with shard
/// count and p99 stays bounded through an ejection + replay cycle.  Because
/// the service is latency-dominated here (each request carries a constant
/// service floor injected via the pre_execute hook, modelling per-request
/// downlink/IO latency), shard concurrency scales even on a single-core
/// host; compute-bound scaling is BENCH_preprocess.json's job.
///
/// Every row upserts into BENCH_serve.json keyed by its configuration
/// (bench, threads/shards, offered_load, ejected), so re-runs replace rows
/// instead of accumulating duplicates.
///
///   serve_bench [seed=42] [requests=120] [threads=2]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "spacefts/common/stats.hpp"
#include "spacefts/serve/job.hpp"
#include "spacefts/serve/router.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"

namespace {

namespace ss = spacefts::serve;
using Clock = std::chrono::steady_clock;

ss::WorkloadSpec base_spec(std::uint64_t seed, std::size_t requests) {
  ss::WorkloadSpec spec;
  spec.requests = requests;
  spec.seed = seed;
  spec.otis_fraction = 0.25;
  spec.ngst_side = 16;
  spec.ngst_frames = 8;
  spec.otis_side = 16;
  spec.otis_bands = 4;
  return spec;
}

/// Closed-loop calibration: mean seconds of pure compute per request.
double calibrate_service_s(std::uint64_t seed, std::size_t threads) {
  auto spec = base_spec(seed, 32);
  spec.rate_hz = 1e9;  // arrival times unused here
  const ss::ExecContext ctx;
  const auto items = ss::generate_workload(spec);
  const auto start = Clock::now();
  for (const auto& item : items) {
    (void)ss::execute_job(item.request, /*corrupt_ingress=*/false, ctx);
  }
  const double total_s = std::chrono::duration<double>(Clock::now() - start).count();
  // Workers run batches independently, so capacity scales with threads.
  return total_s / static_cast<double>(items.size()) /
         static_cast<double>(threads);
}

struct LoadPoint {
  double offered_load = 0.0;  ///< multiple of measured capacity
  double offered_rps = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double shed_rate = 0.0;
  std::uint64_t completed = 0, shed = 0, failed = 0;
};

void fill_latencies(LoadPoint& point, std::vector<ss::RequestResult> results) {
  std::vector<double> latencies_ms;
  for (const auto& result : results) {
    if (result.status == ss::ServeStatus::kOk) {
      latencies_ms.push_back(result.e2e_ms);
    }
  }
  if (!latencies_ms.empty()) {
    point.p50_ms = spacefts::common::percentile(latencies_ms, 50);
    point.p95_ms = spacefts::common::percentile(latencies_ms, 95);
    point.p99_ms = spacefts::common::percentile(latencies_ms, 99);
  }
}

LoadPoint run_level(double offered_load, double capacity_rps,
                    std::uint64_t seed, std::size_t requests,
                    std::size_t threads) {
  LoadPoint point;
  point.offered_load = offered_load;
  point.offered_rps = offered_load * capacity_rps;

  auto spec = base_spec(seed, requests);
  spec.rate_hz = point.offered_rps;
  const auto items = ss::generate_workload(spec);

  ss::ServerConfig config;
  config.capacity = std::max<std::size_t>(4, threads * 4);
  config.workers = threads;
  config.max_batch = 4;
  config.admission_timeout_ms = 0.0;  // shed mode: reject on full
  ss::Server server(config);

  const auto start = Clock::now();
  for (const auto& item : items) {
    // Open loop: arrivals follow the workload clock, not the server.
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(item.arrival_s)));
    (void)server.submit(item.request);
  }
  server.wait_idle();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.drain();

  const auto stats = server.stats();
  point.completed = stats.completed;
  point.shed = stats.shed;
  point.failed = stats.failed;
  point.shed_rate =
      static_cast<double>(stats.shed) / static_cast<double>(stats.submitted);
  point.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(stats.completed) / wall_s : 0.0;
  fill_latencies(point, server.take_results());
  return point;
}

std::string to_jsonl(const LoadPoint& p, std::size_t threads) {
  namespace jsonl = spacefts::telemetry::jsonl;
  std::string line = "{\"bench\": \"serve\", \"offered_load\": ";
  jsonl::append_fmt(line, "%g", p.offered_load);
  jsonl::append_fmt(line, ", \"offered_rps\": %.6g", p.offered_rps);
  jsonl::append_fmt(line, ", \"throughput_rps\": %.6g", p.throughput_rps);
  jsonl::append_fmt(line, ", \"p50_ms\": %.6g", p.p50_ms);
  jsonl::append_fmt(line, ", \"p95_ms\": %.6g", p.p95_ms);
  jsonl::append_fmt(line, ", \"p99_ms\": %.6g", p.p99_ms);
  jsonl::append_fmt(line, ", \"shed_rate\": %.6g", p.shed_rate);
  line += ", \"completed\": " + std::to_string(p.completed);
  line += ", \"shed\": " + std::to_string(p.shed);
  line += ", \"failed\": " + std::to_string(p.failed);
  line += ", \"threads\": " + std::to_string(threads);
  line += ", \"kernel\": \"" +
          std::string(spacefts::core::kernel_name(
              spacefts::core::resolve_kernel(spacefts::core::Kernel::kAuto))) +
          "\"";
  line += ", \"git_sha\": \"" + jsonl::escape(SPACEFTS_GIT_SHA) + "\"";
  line += ", \"iso_timestamp\": \"" + bench::iso_timestamp_utc() + "\"}\n";
  return line;
}

// ---------------------------------------------------------------------------
// Part 2: shard scaling.

struct ShardPoint {
  std::size_t shards = 0;
  double offered_load = 0.0;  ///< multiple of ONE shard's capacity
  bool ejected = false;       ///< chaos row: one shard killed mid-load
  LoadPoint load;
  std::uint64_t replays = 0, ejections = 0, stale = 0;
};

/// One router run: `offered_load` multiples of a single shard's capacity,
/// optionally killing shard `shards - 1` a third of the way through.
ShardPoint run_shard_level(std::size_t shards, double offered_load,
                           double per_shard_rps, double floor_ms,
                           std::uint64_t seed, bool kill_one) {
  ShardPoint point;
  point.shards = shards;
  point.offered_load = offered_load;
  point.ejected = kill_one;
  point.load.offered_load = offered_load;
  point.load.offered_rps = offered_load * per_shard_rps;

  const std::size_t requests = std::max<std::size_t>(
      160, static_cast<std::size_t>(point.load.offered_rps * 1.5));
  auto spec = base_spec(seed, requests);
  spec.rate_hz = point.load.offered_rps;
  spec.streams = shards * 8;  // enough streams that every shard owns some
  const auto items = ss::generate_workload(spec);

  ss::RouterConfig rc;
  rc.shards = shards;
  rc.shard.workers = 1;
  rc.shard.capacity = 64;
  rc.shard.max_batch = 1;
  rc.shard.batch_linger_ms = 0.0;
  // The latency-dominated service model: a constant per-request floor.
  rc.shard.pre_execute = [floor_ms](const ss::Request&) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(floor_ms));
  };
  ss::Router router(rc);
  if (kill_one) {
    router.schedule_kill(shards - 1, requests / 3);
  }

  const auto start = Clock::now();
  for (const auto& item : items) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(item.arrival_s)));
    (void)router.submit(item.request);
  }
  router.wait_idle();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  router.drain();

  const auto stats = router.stats();
  point.load.completed = stats.completed;
  point.load.shed = stats.shed;
  point.load.failed = stats.failed;
  point.load.shed_rate =
      static_cast<double>(stats.shed) / static_cast<double>(stats.submitted);
  point.load.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(stats.completed) / wall_s : 0.0;
  point.replays = stats.replays;
  point.ejections = stats.ejections;
  point.stale = stats.stale_results;
  fill_latencies(point.load, router.take_results());
  return point;
}

std::string to_jsonl(const ShardPoint& p, double speedup_vs_1) {
  namespace jsonl = spacefts::telemetry::jsonl;
  std::string line = "{\"bench\": \"serve_shards\", \"shards\": " +
                     std::to_string(p.shards);
  jsonl::append_fmt(line, ", \"offered_load\": %g", p.offered_load);
  line += ", \"ejected\": ";
  line += p.ejected ? "1" : "0";
  jsonl::append_fmt(line, ", \"offered_rps\": %.6g", p.load.offered_rps);
  jsonl::append_fmt(line, ", \"throughput_rps\": %.6g",
                    p.load.throughput_rps);
  jsonl::append_fmt(line, ", \"speedup_vs_1\": %.4g", speedup_vs_1);
  jsonl::append_fmt(line, ", \"p50_ms\": %.6g", p.load.p50_ms);
  jsonl::append_fmt(line, ", \"p95_ms\": %.6g", p.load.p95_ms);
  jsonl::append_fmt(line, ", \"p99_ms\": %.6g", p.load.p99_ms);
  jsonl::append_fmt(line, ", \"shed_rate\": %.6g", p.load.shed_rate);
  line += ", \"completed\": " + std::to_string(p.load.completed);
  line += ", \"replays\": " + std::to_string(p.replays);
  line += ", \"ejections\": " + std::to_string(p.ejections);
  line += ", \"stale_results\": " + std::to_string(p.stale);
  line += ", \"kernel\": \"" +
          std::string(spacefts::core::kernel_name(
              spacefts::core::resolve_kernel(spacefts::core::Kernel::kAuto))) +
          "\"";
  line += ", \"git_sha\": \"" + jsonl::escape(SPACEFTS_GIT_SHA) + "\"";
  line += ", \"iso_timestamp\": \"" + bench::iso_timestamp_utc() + "\"}\n";
  return line;
}

/// Configuration identity of one BENCH_serve.json row — the upsert key.
std::string serve_record_key(std::string_view line) {
  using spacefts::telemetry::jsonl::json_field;
  return json_field(line, "bench") + "|" + json_field(line, "threads") + "|" +
         json_field(line, "shards") + "|" + json_field(line, "offered_load") +
         "|" + json_field(line, "ejected");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::size_t requests = 120, threads = 2;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) requests = std::strtoul(argv[2], nullptr, 10);
  if (argc > 3) threads = std::strtoul(argv[3], nullptr, 10);
  if (requests == 0 || threads == 0) {
    std::fprintf(stderr, "serve_bench: requests and threads must be > 0\n");
    return 1;
  }

  const double service_s = calibrate_service_s(seed, threads);
  const double capacity_rps = 1.0 / service_s;
  std::printf("serve_bench: calibrated capacity %.1f req/s (%zu threads)\n",
              capacity_rps, threads);

  std::printf("%8s %12s %14s %9s %9s %9s %9s\n", "load", "offered", "throughput",
              "p50_ms", "p95_ms", "p99_ms", "shed");
  std::vector<std::string> rows;
  bool overload_shed = false;
  for (const double load : {0.5, 1.0, 2.0}) {
    const auto point = run_level(load, capacity_rps, seed, requests, threads);
    std::printf("%8.2g %10.1f/s %12.1f/s %9.3f %9.3f %9.3f %8.1f%%\n",
                point.offered_load, point.offered_rps, point.throughput_rps,
                point.p50_ms, point.p95_ms, point.p99_ms,
                point.shed_rate * 100.0);
    rows.push_back(to_jsonl(point, threads));
    if (load >= 2.0 && point.shed > 0) overload_shed = true;
  }

  // Shard scaling: floor well above the compute cost so concurrency, not
  // cores, sets capacity (the single-core CI hosts can still scale it).
  const double compute_s = calibrate_service_s(seed ^ 0xbeef, 1);
  const double floor_ms = std::max(2.0, compute_s * 1e3 * 4.0);
  const double per_shard_rps = 1.0 / (floor_ms / 1e3 + compute_s);
  std::printf(
      "serve_bench: shard sweep, service floor %.2f ms"
      " (%.1f req/s per shard)\n",
      floor_ms, per_shard_rps);
  std::printf("%8s %8s %12s %14s %9s %9s %9s\n", "shards", "load", "offered",
              "throughput", "p99_ms", "replays", "ejected");
  double throughput_1 = 0.0;
  bool scaled_4x = false, chaos_bounded = false;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    const auto point =
        run_shard_level(shards, 0.8 * static_cast<double>(shards),
                        per_shard_rps, floor_ms, seed, /*kill_one=*/false);
    if (shards == 1) throughput_1 = point.load.throughput_rps;
    const double speedup = throughput_1 > 0.0
                               ? point.load.throughput_rps / throughput_1
                               : 0.0;
    if (shards == 4 && speedup >= 3.0) scaled_4x = true;
    std::printf("%8zu %8.2g %10.1f/s %12.1f/s %9.3f %9llu %9s\n",
                point.shards, point.offered_load, point.load.offered_rps,
                point.load.throughput_rps, point.load.p99_ms,
                static_cast<unsigned long long>(point.replays), "-");
    rows.push_back(to_jsonl(point, speedup));
  }
  {
    // Chaos row: 4 shards at 2× one shard's capacity, one shard killed
    // mid-load.  The surviving fleet still has headroom, so p99 must stay
    // bounded through the eject/replay cycle.
    const auto point = run_shard_level(4, 2.0, per_shard_rps, floor_ms, seed,
                                       /*kill_one=*/true);
    const double speedup =
        throughput_1 > 0.0 ? point.load.throughput_rps / throughput_1 : 0.0;
    chaos_bounded = point.load.p99_ms > 0.0 &&
                    point.load.p99_ms < 50.0 * floor_ms &&
                    point.ejections >= 1;
    std::printf("%8zu %8.2g %10.1f/s %12.1f/s %9.3f %9llu %9llu\n",
                point.shards, point.offered_load, point.load.offered_rps,
                point.load.throughput_rps, point.load.p99_ms,
                static_cast<unsigned long long>(point.replays),
                static_cast<unsigned long long>(point.ejections));
    rows.push_back(to_jsonl(point, speedup));
  }

  for (const auto& row : rows) {
    if (!spacefts::telemetry::jsonl::upsert_jsonl(row, serve_record_key,
                                                  "BENCH_serve.json")) {
      return EXIT_FAILURE;
    }
  }
  std::printf(
      "serve_bench: wrote BENCH_serve.json; overload %s, 4-shard speedup"
      " %s, chaos p99 %s\n",
      overload_shed ? "shed (expected)" : "did not shed",
      scaled_4x ? ">= 3x (expected)" : "< 3x",
      chaos_bounded ? "bounded (expected)" : "unbounded");
  return 0;
}
