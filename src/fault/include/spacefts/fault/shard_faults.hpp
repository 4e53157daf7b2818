/// \file shard_faults.hpp
/// Seeded shard-level fault injection for the sharded serving tier.
///
/// Where message_faults.hpp models the *link* between nodes, this model
/// covers the classical process failure modes of one worker shard: it can
/// **crash** (dies mid-load, every in-flight request vanishes), **stall**
/// (stops making progress for a bounded window — the silent-worker mode the
/// dist pipeline detects by timeout), or **slow down** (each request takes
/// extra time, so queues back up and latency climbs without any hard
/// failure signal).  These are exactly the behaviours the router's health
/// checks must detect and survive.
///
/// Like every fault model in this repo, the plan is a pure function of a
/// seed: `plan(shard, epoch)` draws from a stream derived via
/// common::derive_stream_seed(seed, shard, epoch), so a chaos run replays
/// the same shard fates regardless of thread scheduling, and a rebooted
/// shard (next epoch) draws a fresh, but equally deterministic, fate.  The
/// draw order per plan is fixed and documented: one uniform for the fault
/// kind, then one bounded draw for the completion-count trigger.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spacefts::fault {

/// What a shard does once its trigger fires.
enum class ShardFaultKind : std::uint8_t {
  kNone = 0,   ///< the shard serves its whole epoch faithfully
  kCrash = 1,  ///< the shard dies; in-flight work is lost
  kStall = 2,  ///< the shard freezes for stall_ms, then resumes
  kSlow = 3,   ///< every request gains kSlowMs of latency for kSlowWindowMs
};

/// kSlow magnitudes: extra latency per request while slowed, and how long
/// the slowdown lasts.
inline constexpr double kSlowMs = 2.0;
inline constexpr double kSlowWindowMs = 400.0;

[[nodiscard]] const char* to_string(ShardFaultKind kind) noexcept;

/// Per-(shard, epoch) fault probabilities and magnitudes.  All-zero
/// probabilities (the default) is a faithful fleet.
struct ShardFaultConfig {
  double crash_prob = 0.0;  ///< P(shard crashes this epoch)
  double stall_prob = 0.0;  ///< P(shard stalls this epoch)
  double slow_prob = 0.0;   ///< P(shard slows down this epoch)
  double stall_ms = 200.0;  ///< length of a stall freeze
  /// The fault fires after the shard has completed a count of requests
  /// drawn uniformly from [trigger_lo, trigger_hi] (so faults strike
  /// mid-load, not at the first or last request).
  std::uint64_t trigger_lo = 4;
  std::uint64_t trigger_hi = 48;
  std::uint64_t seed = 0x5ad1a7e5ULL;  ///< base of the per-shard streams

  /// True when every fault probability is zero.
  [[nodiscard]] bool perfect() const noexcept {
    return crash_prob == 0.0 && stall_prob == 0.0 && slow_prob == 0.0;
  }
};

/// One shard-epoch's fate, fully resolved.
struct ShardFaultPlan {
  ShardFaultKind kind = ShardFaultKind::kNone;
  /// Shard-local completed-request count at which the fault fires.
  std::uint64_t after_completed = 0;
  double stall_ms = 0.0;  ///< kStall: freeze length
};

/// Draws deterministic per-(shard, epoch) fault plans.
class ShardFaultModel {
 public:
  /// \throws std::invalid_argument if any probability is outside [0, 1],
  /// the probabilities sum past 1, stall_ms is negative, or
  /// trigger_lo > trigger_hi.
  explicit ShardFaultModel(const ShardFaultConfig& config);

  [[nodiscard]] const ShardFaultConfig& config() const noexcept {
    return config_;
  }

  /// The fate of \p shard's incarnation number \p epoch.  Pure function of
  /// (config.seed, shard, epoch); draws nothing for a perfect() config.
  [[nodiscard]] ShardFaultPlan plan(std::size_t shard,
                                    std::uint64_t epoch) const;

 private:
  ShardFaultConfig config_;
};

}  // namespace spacefts::fault
