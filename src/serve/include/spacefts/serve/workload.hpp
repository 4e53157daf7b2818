/// \file workload.hpp
/// Open-loop synthetic workloads and the JSONL replay format.
///
/// A workload is a list of (arrival time, request) pairs.  The generator
/// draws Poisson arrivals (exponential inter-arrival gaps at `rate_hz`) and
/// a seeded NGST/OTIS mix; every per-request choice — kind, priority,
/// dataset seed — comes from common::derive_stream_seed chains over
/// (workload seed, request index), so a workload file regenerates
/// bit-identically and each request's compute is replayable in isolation.
///
/// The JSONL round-trip (to_jsonl / parse_workload_jsonl) is the
/// `spacefts_cli serve --replay` interchange format: one request per line,
/// written and parsed from one field list (telemetry/jsonl.hpp), %.10g
/// doubles.  results_to_jsonl renders only the *deterministic* result
/// fields (status, checksum, correction counters), sorted by id — the file
/// CI byte-compares across thread counts.  The check harness fuzzes both
/// contracts: serialise∘parse must be a fixed point, and the same workload
/// served at different batch sizes must yield byte-identical results
/// (check::check_serve_*).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spacefts/serve/request.hpp"

namespace spacefts::serve {

/// Knobs of the synthetic generator.
struct WorkloadSpec {
  std::size_t requests = 200;
  double rate_hz = 200.0;  ///< Poisson arrival rate (open loop)
  std::uint64_t seed = 42;
  /// Number of distinct client streams the requests belong to (round-robin
  /// assignment; the router shards by stream).  0 = no stream affinity:
  /// every request routes by its own id.
  std::size_t streams = 0;
  double otis_fraction = 0.25;     ///< mix of OTIS cube jobs
  double pipeline_fraction = 0.0;  ///< NGST jobs that run the dist pipeline
  /// Mix of 1D telemetry-bank jobs (drawn before the OTIS split).  The
  /// telemetry draw is only consumed when the fraction is positive, so
  /// workload files generated before this kind existed regenerate
  /// bit-identically at the default 0.
  double telemetry_fraction = 0.0;
  std::size_t ngst_side = 32;
  std::size_t ngst_frames = 16;
  std::size_t otis_side = 24;
  std::size_t otis_bands = 6;
  std::size_t telemetry_channels = 32;
  std::size_t telemetry_samples = 64;
  double lambda = 80.0;
  double gamma0 = 0.0;     ///< pipeline memory-fault knob per request
  double link_loss = 0.0;  ///< pipeline link-fault knob per request
  int priority_levels = 3; ///< priorities drawn uniformly from [0, levels)
  double deadline_ms = 0.0;  ///< uniform per-request deadline; 0 = none
};

/// One scheduled request of a workload.
struct WorkloadItem {
  double arrival_s = 0.0;  ///< offset from workload start
  Request request;
};

/// Deterministic generation.  \throws std::invalid_argument for zero
/// requests, a non-positive rate, or fractions outside [0, 1].
[[nodiscard]] std::vector<WorkloadItem> generate_workload(
    const WorkloadSpec& spec);

/// One JSON line per request, stable field order.
[[nodiscard]] std::string to_jsonl(const std::vector<WorkloadItem>& items);

/// Parses to_jsonl() output (blank lines ignored; `stream`, `run_pipeline`,
/// `gamma0` and `link_loss` may be absent).  Integers must be in-range
/// integers, doubles finite, `side` and `frames` non-zero.  \throws
/// std::runtime_error naming the line and key of the first bad field.
[[nodiscard]] std::vector<WorkloadItem> parse_workload_jsonl(
    std::string_view text);

/// The deterministic per-request result file: sorted by id, timing fields
/// excluded, one JSON line per request.  Byte-identical across server
/// thread counts for any workload whose statuses are load-independent
/// (no finite deadlines, non-shedding admission).  The trailing kernel and
/// shard fields are serving metadata: identical across thread counts, but
/// shard assignments (and hence those fields) legitimately differ across
/// *shard* counts — strip them before comparing runs of different
/// topologies (`sed -E 's/,"kernel":"[a-z0-9]*","shard":[0-9]+//'`).
[[nodiscard]] std::string results_to_jsonl(std::vector<RequestResult> results);

}  // namespace spacefts::serve
