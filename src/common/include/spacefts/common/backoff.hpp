/// \file backoff.hpp
/// The one retry/backoff law: the pipeline's link retries and the router's
/// replays both wait first·2^(attempt−1), scaled by a seeded jitter factor
/// in [1 − 0.25, 1 + 0.25].  Each caller brings its own first delay (in
/// its own time unit) and its own seeded uniform draw, so the schedule
/// replays bit for bit.
#pragma once

#include <cmath>
#include <cstdint>

namespace spacefts::common {

/// Delay multiplier per attempt.
inline constexpr double kBackoffFactor = 2.0;
/// Half-width of the jitter band, as a fraction of the unjittered delay.
inline constexpr double kBackoffJitter = 0.25;

/// The delay before retry \p attempt (1-based) given a first delay
/// \p first and a uniform draw \p unit in [0, 1).
[[nodiscard]] inline double backoff_delay(double first, std::uint32_t attempt,
                                          double unit) noexcept {
  const double base =
      first * std::pow(kBackoffFactor, static_cast<double>(attempt - 1));
  return base * (1.0 + kBackoffJitter * (2.0 * unit - 1.0));
}

}  // namespace spacefts::common
