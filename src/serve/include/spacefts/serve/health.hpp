/// \file health.hpp
/// Shard health policy: the pure decision core of the router's ejection and
/// re-admission machinery.
///
/// The router samples each shard's vitals (heartbeat age, consecutive
/// failures, sustained congestion) on its control loop and asks
/// `should_eject()` whether the shard has left its service envelope.  The
/// decision function is pure — vitals in, verdict out — so the state
/// machine is unit-testable without threads, timers, or a live server:
///
///   kHealthy ──(stale heartbeat │ failure burst │ congestion)──▶ kEjected
///      ▲                                                            │
///      │ probation_successes                                        │
///      │ completions                             probation_ms elapsed
///      │                                                            ▼
///   kProbation ◀──────────(fresh Server boots, epoch += 1)──────────┘
///
/// Ejection is the router's only response to *any* detected fault: the
/// shard's epoch is retired, its in-flight requests are replayed elsewhere,
/// and its server is rebooted into probation.  A shard that fails again
/// during probation simply ejects again (epoch += 1) — there is no
/// permanent ban, because on a long-mission spacecraft the "fleet" cannot
/// be restocked (the paper's premise: tolerate faults, don't just discard
/// hardware).
#pragma once

#include <cstdint>

namespace spacefts::serve {

/// Routing states of one shard.
enum class ShardState : std::uint8_t {
  kHealthy = 0,   ///< routable, full member of the ring
  kProbation,     ///< rebooted after ejection; routable but under watch
  kEjected,       ///< not routable; waiting out probation_ms before reboot
};

[[nodiscard]] const char* to_string(ShardState state) noexcept;

/// Ejection thresholds.  Everything is expressed in the router's
/// steady-clock milliseconds so the policy has no timers of its own.
struct HealthPolicy {
  /// A shard whose last worker heartbeat is older than this is presumed
  /// stalled or dead.  The default comfortably exceeds one batch of the
  /// repo's largest standard jobs, so healthy shards never trip it.
  double heartbeat_timeout_ms = 250.0;
  /// Consecutive kFailed completions before the shard is presumed sick
  /// (a deterministic bad request fails on *every* shard, so the router
  /// only counts failures that a replay elsewhere could cure).
  std::uint32_t max_consecutive_failures = 3;
  /// A shard whose queue has been full this long is congested beyond the
  /// batching machinery's ability to recover; 0 disables the check.
  double congestion_timeout_ms = 500.0;
  /// How long an ejected shard stays out before rebooting into probation.
  double probation_ms = 50.0;
  /// Completions a probation shard must serve (without re-ejection) to be
  /// promoted back to kHealthy.
  std::uint32_t probation_successes = 4;
};

/// \throws std::invalid_argument for non-positive timeouts/windows or a
/// zero success threshold.
void validate_policy(const HealthPolicy& policy);

/// One shard's observable condition at a control-loop tick.
struct ShardVitals {
  double heartbeat_age_ms = 0.0;  ///< now - last worker progress signal
  std::uint32_t consecutive_failures = 0;
  /// How long the shard's queue has been continuously at capacity;
  /// 0 when it currently has room.
  double congested_ms = 0.0;
  bool has_work = false;  ///< heartbeat age only matters under load
  /// Consecutive completions on this shard whose compute was overruled by
  /// the shadow guard (RequestResult::backend_mismatch); reset by any
  /// clean completion.
  std::uint32_t mismatch_burst = 0;
};

/// Why a shard was ejected (telemetry + stats labels).
enum class EjectReason : std::uint8_t {
  kNone = 0,
  kStaleHeartbeat,
  kFailureBurst,
  kCongestion,
  kKilled,  ///< explicit kill (chaos injection or operator action)
  kComputeMismatch,  ///< shadow guard kept overruling the shard's compute
};

[[nodiscard]] const char* to_string(EjectReason reason) noexcept;

/// The pure ejection decision: kNone when the vitals are inside the
/// policy's envelope, else the first violated check (heartbeat, then
/// failures, then congestion).  An idle shard (has_work == false) cannot
/// have a stale heartbeat — it has nothing to beat about.
[[nodiscard]] EjectReason should_eject(const HealthPolicy& policy,
                                       const ShardVitals& vitals) noexcept;

}  // namespace spacefts::serve
