/// \file cr_reject.hpp
/// Cosmic-ray rejection over up-the-ramp readouts — the onboard application
/// the preprocessing layer feeds (§2: "many Cosmic Ray Rejection Algorithms
/// [10, 11, 12] have been proposed"; this is the Fixsen-style
/// difference-outlier rejector).
///
/// For each pixel the first differences of the ramp, d(t) = R(t+1) − R(t),
/// estimate the flux; a cosmic ray shows up as a single huge positive
/// difference.  The rejector computes a robust location/scale of the
/// differences (median + MAD), discards differences beyond 5σ (σ floored
/// at 8 counts), and averages the survivors into the flux estimate.
/// A plain least-slope integrator without rejection is provided as the
/// baseline the CR literature compares against.
#pragma once

#include <cstdint>

#include "spacefts/common/image.hpp"

namespace spacefts::ngst {

/// Result of integrating one baseline.
struct IntegrationResult {
  common::Image<float> flux;                ///< counts/frame per pixel
  common::Image<std::uint8_t> cr_flagged;   ///< 1 where >= 1 difference was cut
  std::size_t rejected_differences = 0;
};

/// CR-rejecting integration of a ramp stack.
/// \throws std::invalid_argument for stacks with fewer than 3 frames.
[[nodiscard]] IntegrationResult reject_and_integrate(
    const common::TemporalStack<std::uint16_t>& readouts);

/// Baseline: slope from the first and last readouts, no rejection at all.
/// \throws std::invalid_argument for stacks with fewer than 2 frames.
[[nodiscard]] common::Image<float> integrate_naive(
    const common::TemporalStack<std::uint16_t>& readouts);

/// Second CR-rejection algorithm (the paper cites several [10,11,12]):
/// segmented slope fitting in the Fixsen/Offenberg style.  Jump positions
/// are where a first difference exceeds the robust threshold; the ramp is
/// split at each jump, a least-squares slope is fitted per segment, and
/// the per-segment slopes are combined weighted by segment length.  More
/// statistically efficient than difference-averaging on long clean
/// segments; used to show the end-to-end conclusions are not an artefact
/// of one rejector (bench/ablation_cr_reject).
/// \throws std::invalid_argument for stacks with fewer than 3 frames.
[[nodiscard]] IntegrationResult reject_segmented(
    const common::TemporalStack<std::uint16_t>& readouts);

}  // namespace spacefts::ngst
