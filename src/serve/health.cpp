#include "spacefts/serve/health.hpp"

#include <stdexcept>

namespace spacefts::serve {
namespace {

/// Consecutive shadow-compare mismatches (compute results the guard
/// backend had to overrule) before the shard's compute substrate is
/// presumed degraded.  Note the outputs themselves stay correct — the
/// guard already substituted the trusted result — so this is a
/// *scheduling* signal: take the shard out before an unchecked request
/// escapes.
constexpr std::uint32_t kMaxMismatchBurst = 6;

}  // namespace

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kProbation:
      return "probation";
    case ShardState::kEjected:
      return "ejected";
  }
  return "?";
}

const char* to_string(EjectReason reason) noexcept {
  switch (reason) {
    case EjectReason::kNone:
      return "none";
    case EjectReason::kStaleHeartbeat:
      return "stale_heartbeat";
    case EjectReason::kFailureBurst:
      return "failure_burst";
    case EjectReason::kCongestion:
      return "congestion";
    case EjectReason::kKilled:
      return "killed";
    case EjectReason::kComputeMismatch:
      return "compute_mismatch";
  }
  return "?";
}

void validate_policy(const HealthPolicy& policy) {
  if (!(policy.heartbeat_timeout_ms > 0.0)) {
    throw std::invalid_argument("health: heartbeat_timeout_ms must be > 0");
  }
  if (policy.max_consecutive_failures == 0) {
    throw std::invalid_argument(
        "health: max_consecutive_failures must be > 0");
  }
  if (policy.congestion_timeout_ms < 0.0) {
    throw std::invalid_argument("health: negative congestion_timeout_ms");
  }
  if (policy.probation_ms < 0.0) {
    throw std::invalid_argument("health: negative probation_ms");
  }
  if (policy.probation_successes == 0) {
    throw std::invalid_argument("health: probation_successes must be > 0");
  }
}

EjectReason should_eject(const HealthPolicy& policy,
                         const ShardVitals& vitals) noexcept {
  if (vitals.has_work && vitals.heartbeat_age_ms > policy.heartbeat_timeout_ms) {
    return EjectReason::kStaleHeartbeat;
  }
  if (vitals.consecutive_failures >= policy.max_consecutive_failures) {
    return EjectReason::kFailureBurst;
  }
  if (policy.congestion_timeout_ms > 0.0 &&
      vitals.congested_ms > policy.congestion_timeout_ms) {
    return EjectReason::kCongestion;
  }
  if (vitals.mismatch_burst >= kMaxMismatchBurst) {
    return EjectReason::kComputeMismatch;
  }
  return EjectReason::kNone;
}

}  // namespace spacefts::serve
