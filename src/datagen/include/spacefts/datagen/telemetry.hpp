/// \file telemetry.hpp
/// Synthetic 1D telemetry channels — the sampled-signal workload family.
///
/// Spacecraft housekeeping telemetry is not an image: each channel is a
/// slowly drifting physical quantity (temperature, bus voltage, wheel
/// speed) sampled by a clock with PLL-style jitter.  The paper's temporal
/// voter (Algo_NGST) only needs N temporal variants per coordinate, so a
/// bank of channels maps onto a 1-row stack — width = channels, height = 1,
/// frames = samples — and the voter runs unchanged on it.
///
/// Per channel the signal model is
///     v(t) = base + A·sin(2π t / T + φ) + walk(t),
/// sampled at t_i = i + j·U(-1, 1) (jittered sampling clock, j in fractions
/// of the nominal period) with walk advancing as a Gaussian random walk of
/// σ = 12 counts per sample — the same Eq.-(1) drift family the NGST
/// generator uses, riding on a periodic component with A ~ U(0, 600)
/// counts and T ~ U(16, 128) samples.
#pragma once

#include <cstdint>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::datagen {

/// Parameters of a synthetic telemetry bank.  Channels sit on mid-scale
/// housekeeping base levels (20000–34000 counts) with read-noise-scale
/// drift, so the voter operates in the same regime as the NGST reference
/// stack; the sampling clock jitters by up to a quarter sample.
struct TelemetryParams {
  std::size_t channels = 32;      ///< independent telemetry channels
  std::size_t samples = 64;       ///< temporal samples per channel
};

/// Generator for jitter-sampled drifting telemetry channels.  Deterministic
/// per seed; every draw comes from the owned stream in a fixed order.
class TelemetrySimulator {
 public:
  explicit TelemetrySimulator(std::uint64_t seed) : rng_(seed) {}

  /// One channel's sample sequence, clamped to [0, 65535].
  /// \throws std::invalid_argument for zero samples.
  [[nodiscard]] std::vector<std::uint16_t> channel(
      const TelemetryParams& params = {});

  /// A full bank as a 1-row temporal stack (width = channels, height = 1,
  /// frames = samples) ready for the temporal voter.
  /// \throws std::invalid_argument for zero channels or samples.
  [[nodiscard]] common::TemporalStack<std::uint16_t> stack(
      const TelemetryParams& params = {});

  /// Access to the underlying stream (mirrors NgstSimulator::rng()).
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }

 private:
  common::Rng rng_;
};

}  // namespace spacefts::datagen
