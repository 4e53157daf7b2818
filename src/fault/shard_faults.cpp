#include "spacefts/fault/shard_faults.hpp"

#include <stdexcept>

#include "spacefts/common/random.hpp"

namespace spacefts::fault {

const char* to_string(ShardFaultKind kind) noexcept {
  switch (kind) {
    case ShardFaultKind::kNone:
      return "none";
    case ShardFaultKind::kCrash:
      return "crash";
    case ShardFaultKind::kStall:
      return "stall";
    case ShardFaultKind::kSlow:
      return "slow";
  }
  return "?";
}

ShardFaultModel::ShardFaultModel(const ShardFaultConfig& config)
    : config_(config) {
  for (const double p :
       {config.crash_prob, config.stall_prob, config.slow_prob}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(
          "shard faults: probability outside [0, 1]");
    }
  }
  if (config.crash_prob + config.stall_prob + config.slow_prob > 1.0) {
    throw std::invalid_argument(
        "shard faults: fault probabilities sum past 1");
  }
  if (config.stall_ms < 0.0) {
    throw std::invalid_argument("shard faults: negative magnitude");
  }
  if (config.trigger_lo > config.trigger_hi) {
    throw std::invalid_argument("shard faults: trigger_lo > trigger_hi");
  }
}

ShardFaultPlan ShardFaultModel::plan(std::size_t shard,
                                     std::uint64_t epoch) const {
  ShardFaultPlan plan;
  if (config_.perfect()) return plan;

  // Fixed draw order: (1) fault kind, (2) trigger count.  Documented in
  // the header so committed chaos runs replay forever.
  common::Rng rng(common::derive_stream_seed(config_.seed, shard, epoch));
  const double u = rng.uniform();
  if (u < config_.crash_prob) {
    plan.kind = ShardFaultKind::kCrash;
  } else if (u < config_.crash_prob + config_.stall_prob) {
    plan.kind = ShardFaultKind::kStall;
    plan.stall_ms = config_.stall_ms;
  } else if (u < config_.crash_prob + config_.stall_prob + config_.slow_prob) {
    plan.kind = ShardFaultKind::kSlow;
  } else {
    return plan;  // faithful epoch; the trigger draw is skipped
  }
  plan.after_completed =
      config_.trigger_lo +
      rng.below(config_.trigger_hi - config_.trigger_lo + 1);
  return plan;
}

}  // namespace spacefts::fault
