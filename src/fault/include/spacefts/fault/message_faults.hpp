/// \file message_faults.hpp
/// Link-level message fault model for the distributed pipeline.
///
/// The paper's system sketch (§2.1, Fig. 1) is a 16-node Myrinet cluster:
/// scatter and gather messages cross a real network, yet the seed fault
/// model stopped at bit flips in worker data memory.  This model covers the
/// transit leg with the four classical link failure modes — a message can
/// be *dropped*, *corrupted* (payload bit flips), *duplicated* (delivered
/// more than once), or *delayed* (extra latency) — each drawn independently
/// per transmission.
///
/// Like the XOR-mask models in models.hpp, every decision comes from a
/// caller-supplied Rng stream, so a fault pattern is seeded and replayable:
/// the same stream produces the same sequence of outcomes, which lets one
/// hostile link schedule be replayed against different tolerance settings.
/// The draw order per sample() call is fixed (drop, corrupt, duplicate,
/// delay, then the delay magnitude when delayed) and documented so replays
/// stay stable across refactors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "spacefts/common/random.hpp"

namespace spacefts::fault {

/// Per-transmission fault probabilities of one link.  All-zero (the
/// default) is a perfect link and samples without consuming the stream.
struct MessageFaultConfig {
  double drop_prob = 0.0;       ///< message vanishes in transit
  double corrupt_prob = 0.0;    ///< payload arrives with flipped bits
  double duplicate_prob = 0.0;  ///< one extra copy is delivered
  double delay_prob = 0.0;      ///< delayed messages add U(0, 10 ms]
  /// Per-bit flip probability inside a corrupted payload; at least one bit
  /// always flips so "corrupted" is never silently clean.
  double corrupt_gamma0 = 1e-4;

  /// True when every fault probability is zero.
  [[nodiscard]] bool perfect() const noexcept {
    return drop_prob == 0.0 && corrupt_prob == 0.0 && duplicate_prob == 0.0 &&
           delay_prob == 0.0;
  }
};

/// The one-knob link budget of the campaigns, the serving tier and the CLI:
/// drop = corrupt = delay = \p loss, duplicate = \p loss / 2.
[[nodiscard]] inline MessageFaultConfig link_loss_faults(double loss) noexcept {
  MessageFaultConfig config;
  config.drop_prob = loss;
  config.corrupt_prob = loss;
  config.duplicate_prob = loss / 2.0;
  config.delay_prob = loss;
  return config;
}

/// Samples per-message outcomes from a MessageFaultConfig.
class MessageFaultModel {
 public:
  /// \throws std::invalid_argument if any probability is outside [0, 1],
  /// or corrupt_gamma0 is outside (0, 1].
  explicit MessageFaultModel(const MessageFaultConfig& config);

  [[nodiscard]] const MessageFaultConfig& config() const noexcept {
    return config_;
  }

  /// What happened to one transmission.  Drop wins over everything else
  /// (a dropped message cannot also arrive corrupted); the remaining modes
  /// compose freely.
  struct Outcome {
    bool dropped = false;
    bool corrupted = false;
    std::size_t duplicates = 0;   ///< extra deliveries beyond the first
    double extra_delay_s = 0.0;   ///< added to the nominal transfer time
  };

  /// Draws one transmission's fate.  Consumes nothing for a perfect()
  /// config; otherwise consumes a fixed, documented sequence of draws.
  [[nodiscard]] Outcome sample(common::Rng& rng) const;

  /// Flips bits of \p payload i.i.d. with corrupt_gamma0, forcing at least
  /// one flip (a uniformly chosen bit) if the i.i.d. pass left the payload
  /// clean.  Returns the number of bits flipped.  No-op on empty payloads.
  std::size_t corrupt(std::span<std::uint8_t> payload,
                      common::Rng& rng) const;

 private:
  MessageFaultConfig config_;
};

}  // namespace spacefts::fault
