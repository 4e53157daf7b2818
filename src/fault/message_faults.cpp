#include "spacefts/fault/message_faults.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace spacefts::fault {

namespace {

/// A delayed message arrives up to this much later than its transfer time.
constexpr double kMaxDelayS = 10e-3;

void check_probability(double p, const char* name) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("MessageFaultModel: ") + name +
                                " outside [0, 1]");
  }
}

}  // namespace

MessageFaultModel::MessageFaultModel(const MessageFaultConfig& config)
    : config_(config) {
  check_probability(config_.drop_prob, "drop_prob");
  check_probability(config_.corrupt_prob, "corrupt_prob");
  check_probability(config_.duplicate_prob, "duplicate_prob");
  check_probability(config_.delay_prob, "delay_prob");
  if (config_.corrupt_gamma0 <= 0.0 || config_.corrupt_gamma0 > 1.0) {
    throw std::invalid_argument(
        "MessageFaultModel: corrupt_gamma0 outside (0, 1]");
  }
}

MessageFaultModel::Outcome MessageFaultModel::sample(common::Rng& rng) const {
  Outcome out;
  if (config_.perfect()) return out;
  // Fixed draw order — drop, corrupt, duplicate, delay, delay magnitude —
  // so a seeded stream replays identically across tolerance settings.
  out.dropped = rng.bernoulli(config_.drop_prob);
  out.corrupted = rng.bernoulli(config_.corrupt_prob);
  out.duplicates = rng.bernoulli(config_.duplicate_prob) ? 1 : 0;
  const bool delayed = rng.bernoulli(config_.delay_prob);
  out.extra_delay_s = delayed ? rng.uniform() * kMaxDelayS : 0.0;
  if (out.dropped) {
    out.corrupted = false;
    out.duplicates = 0;
    out.extra_delay_s = 0.0;
  }
  return out;
}

std::size_t MessageFaultModel::corrupt(std::span<std::uint8_t> payload,
                                       common::Rng& rng) const {
  if (payload.empty()) return 0;
  std::size_t flipped = 0;
  for (auto& byte : payload) {
    std::uint8_t mask = 0;
    for (int b = 0; b < 8; ++b) {
      if (rng.bernoulli(config_.corrupt_gamma0)) {
        mask = static_cast<std::uint8_t>(mask | (1u << b));
      }
    }
    flipped += static_cast<std::size_t>(std::popcount(mask));
    byte ^= mask;
  }
  if (flipped == 0) {
    const std::uint64_t bit = rng.below(payload.size() * 8);
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    flipped = 1;
  }
  return flipped;
}

}  // namespace spacefts::fault
