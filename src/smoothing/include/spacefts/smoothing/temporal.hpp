/// \file temporal.hpp
/// The paper's generic preprocessing baselines over one coordinate's N
/// temporal variants (§4), plus the other classical smoothers §4 name-checks
/// ("negative exponential, … running average …").
///
/// All functions are *non-recursive*: every output value is computed from
/// the original input window, the standard formulation of the cited
/// optimal-median-smoothing literature.  (The paper's pseudocode reads as
/// in-place, which would feed already-smoothed values back into later
/// windows; tests cover both readings via the `recursive` flag on
/// median_smooth.)
#pragma once

#include <cstdint>
#include <span>

namespace spacefts::smoothing {

/// Algorithm 2: sliding-window median of width three.  The end pixels use
/// the window anchored just inside the boundary, exactly as printed:
/// P(1) <- Median{P(1),P(2),P(3)} and P(N) <- Median{P(N-2),P(N-1),P(N)}.
/// \param recursive if true, reproduces the paper's literal in-place
///   reading where smoothed values feed later windows.
/// Inputs of fewer than three samples are returned unchanged.
void median_smooth3(std::span<std::uint16_t> data, bool recursive = false);

/// General odd-width (>= 3) sliding median, window clamped at the ends.
/// Used by the window-width ablation ("a sliding window of three pixels
/// yields best results … windows of higher width cause false alarms").
/// \throws std::invalid_argument for an even or zero width.
void median_smooth(std::span<std::uint16_t> data, std::size_t width,
                   bool recursive = false);

/// Sliding-window arithmetic mean of the given odd width (the "Mean
/// Smoothing" Algo 2 is compared against).
/// \throws std::invalid_argument for an even or zero width.
void mean_smooth(std::span<std::uint16_t> data, std::size_t width);

/// Algorithm 3: bitwise majority voting with a window of three pixels.
/// Boundary handling exactly as printed: the virtual neighbours are
/// P(0) = P(3) and P(N+1) = P(N-2), chosen so the edge votes still consult
/// three *distinct* pixels.  Inputs of fewer than three samples are
/// returned unchanged.  Non-recursive (votes read original values).
void majority_bit_vote3(std::span<std::uint16_t> data);

/// General odd-width (>= 3) bitwise majority voting: each bit becomes the
/// majority of that bit across the window (clamped at the ends).
/// \throws std::invalid_argument for an even or zero width.
void majority_bit_vote(std::span<std::uint16_t> data, std::size_t width);

/// Trailing running average with the given window length (>= 1).
/// \throws std::invalid_argument for a zero window.
void running_average(std::span<std::uint16_t> data, std::size_t window);

/// Negative-exponential (exponentially weighted) smoothing with factor
/// alpha in (0, 1]: y(i) = alpha*x(i) + (1-alpha)*y(i-1).
/// \throws std::invalid_argument for alpha outside (0, 1].
void exponential_smooth(std::span<std::uint16_t> data, double alpha);

}  // namespace spacefts::smoothing
