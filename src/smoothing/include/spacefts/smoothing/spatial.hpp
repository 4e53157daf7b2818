/// \file spatial.hpp
/// 2-D variants of the §4 baselines, "modified … to suit the OTIS
/// datasets" (§7.3): OTIS has no temporal redundancy, so the sliding
/// windows run over the spatial neighbourhood of each pixel within one
/// wavelength plane.
///
/// Value-based smoothing (median) compares the floats themselves;
/// bitwise voting operates on the IEEE-754 bit patterns, the same raw bits
/// the fault injector flips.
#pragma once

#include "spacefts/common/image.hpp"

namespace spacefts::smoothing {

/// 3x3 spatial median (edges use the window clipped to the image).
/// NaNs sort last, so an injected NaN never wins the median of a clean
/// neighbourhood.  Non-recursive.
void median_smooth_2d(common::Image<float>& image);

/// Spatial bitwise majority voting: each bit of each pixel's binary32
/// representation becomes the majority of that bit over the 5-voter cross
/// neighbourhood {self, N, S, E, W} (edges mirror).  Non-recursive.
void majority_bit_vote_2d(common::Image<float>& image);

/// Applies any of the above plane by plane over a cube.
void median_smooth_cube(common::Cube<float>& cube);
void majority_bit_vote_cube(common::Cube<float>& cube);

}  // namespace spacefts::smoothing
