/// \file request.hpp
/// Request model of the preprocessing service: what a client submits, what
/// the server hands back, and the typed status every path reports.
///
/// A request names a preprocessing job by *parameters* (dataset seed, scene
/// shape, Λ, fault knobs) rather than by payload bytes: every entry point in
/// this repo synthesises its datasets deterministically from a seed, so a
/// request is replayable — the same JobSpec always produces the same
/// repaired product, bit for bit, no matter which worker thread serves it,
/// how it was batched, or how loaded the server was.  That property is what
/// lets CI `cmp` per-request result files across `--threads` counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "spacefts/core/kernel.hpp"

namespace spacefts::serve {

/// Terminal status of one request.  `kOk` is the only status carrying a
/// science product; everything else explains why there is none.
enum class ServeStatus : std::uint8_t {
  kOk = 0,     ///< accepted and completed through the full stack
  kShed,       ///< rejected by admission control, or flushed by drain
  kShutdown,   ///< submitted after drain began
  kCancelled,  ///< cancelled before execution (queued or in a formed batch)
  kExpired,    ///< deadline passed before the request reached a worker
  kLost,       ///< the ingress link dropped the request in transit
  kFailed,     ///< execution raised an error (see RequestResult::error)
};

/// Stable lowercase name ("ok", "shed", ...) used in the result JSONL.
[[nodiscard]] const char* to_string(ServeStatus status) noexcept;

/// Which instrument stack serves the job.
enum class JobKind : std::uint8_t {
  kNgst,       ///< pack -> ingest::Guard -> Algo_NGST [-> dist::pipeline]
  kOtis,       ///< scene forward model -> Algo_OTIS (spatial locality)
  kTelemetry,  ///< 1D channel bank as a 1-row stack -> Algo_NGST voter
};

[[nodiscard]] const char* to_string(JobKind kind) noexcept;
/// Inverse of to_string(JobKind); false for an unknown name.
[[nodiscard]] bool from_string(std::string_view name, JobKind& out) noexcept;

/// The work itself, fully specified by value.
struct JobSpec {
  JobKind kind = JobKind::kNgst;
  std::size_t side = 32;    ///< square scene side / telemetry channel count
  std::size_t frames = 16;  ///< NGST readouts / OTIS bands / telemetry samples
  double lambda = 80.0;     ///< preprocessing sensitivity Λ
  std::uint64_t seed = 1;   ///< dataset + per-request fault stream seed
  /// NGST only: after ingest, run the distributed scatter/compute/gather
  /// pipeline over the repaired stack (side must be divisible by the
  /// server's fragment_side).
  bool run_pipeline = false;
  double gamma0 = 0.0;     ///< pipeline worker-memory bit-flip probability
  double link_loss = 0.0;  ///< pipeline link drop/corrupt/delay probability
};

/// One client request: a job plus its scheduling contract.
struct Request {
  std::uint64_t id = 0;  ///< unique while the request is live
  /// Stream affinity key: the router consistent-hashes this value to pick
  /// a shard, so requests of one stream land on one shard (cache locality,
  /// ordered degradation).  0 means "no stream" — the id routes instead.
  std::uint64_t stream = 0;
  JobSpec job;
  int priority = 0;  ///< higher is served first
  /// Admission-to-start budget in milliseconds, relative to submit();
  /// <= 0 means no deadline.  A request whose deadline passes while it
  /// waits is completed as kExpired without executing; a request that
  /// *started* in time is never abandoned mid-compute.
  double deadline_ms = 0.0;
};

/// What the server reports for every submitted request, exactly once.
struct RequestResult {
  std::uint64_t id = 0;
  ServeStatus status = ServeStatus::kFailed;
  JobKind kind = JobKind::kNgst;

  // ---- deterministic fields (function of the JobSpec alone — or, when a
  // ---- controller steers the stream, of the whole workload prefix) ------
  std::uint32_t checksum = 0;  ///< CRC-32 of the output product bytes
  std::size_t pixels_corrected = 0;
  std::size_t bits_corrected = 0;          ///< NGST voter corrections
  std::size_t pixels_vetoed = 0;           ///< plausibility-gate / trend saves
  std::size_t ingress_bits_corrupted = 0;  ///< injected by the ingress link
  double coverage = 1.0;                   ///< dist pipeline fragment coverage
  /// The sensitivity/voter point the request actually ran at.  Equal to the
  /// JobSpec's Λ (and the algorithms' default Υ) unless an ExecContext
  /// tuner rewrote them — src/control's adaptive loop reports its applied
  /// points here, which is how the results JSONL exposes controller state.
  double lambda_eff = 0.0;
  std::size_t upsilon_eff = 0;

  // ---- serving metadata (in the JSONL, but run-shape-dependent) --------
  /// The kernel that actually ran (kAuto = not yet stamped; the server
  /// resolves it when the result is recorded).
  core::Kernel kernel = core::Kernel::kAuto;
  std::uint32_t shard = 0;  ///< shard that resolved the request
  /// Name of the compute backend that executed the job ("cpu" when the
  /// context has none configured).  Static-lifetime string from
  /// backend::Backend::name().
  const char* backend = "cpu";
  /// True when the request was shadow-sampled and the guard backend
  /// overruled the primary's output (the trusted result was substituted,
  /// so the payload fields above are still correct).  Feeds the router's
  /// per-shard mismatch-burst vitals; not part of the result JSONL payload.
  bool backend_mismatch = false;

  // ---- timing (wall clock; excluded from the deterministic JSONL) ------
  double queue_wait_ms = 0.0;  ///< admission to batch formation
  double service_ms = 0.0;     ///< compute time inside the batch
  double e2e_ms = 0.0;         ///< admission to completion
  std::size_t batch_size = 0;  ///< size of the batch that served it
  std::size_t replays = 0;     ///< router re-submissions after shard death

  std::string error;  ///< non-empty iff status == kFailed
};

}  // namespace spacefts::serve
