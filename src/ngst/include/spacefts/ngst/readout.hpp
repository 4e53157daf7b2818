/// \file readout.hpp
/// The NGST detector readout substrate.
///
/// NGST's near-infrared detectors are read out non-destructively: within a
/// 1000-second baseline every pixel is sampled N (= 64) times "up the
/// ramp", accumulating charge, so a pixel's ideal readout sequence is
///     R(t) = bias + flux · t + read-noise,       t = 1..N,
/// over a fixed 1000-count detector bias, saturating at the 16-bit limit.
/// A cosmic-ray hit at frame k deposits a charge jump that persists in
/// every later readout — the signature the CR-rejection algorithms of
/// [10,11,12] detect.  This module synthesises ramp stacks with ground
/// truth, the input to spacefts::ngst::cr_reject.
#pragma once

#include <cstdint>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::ngst {

/// Readout-model parameters.
struct RampParams {
  std::size_t frames = 64;     ///< readouts per baseline
  double read_noise = 15.0;    ///< per-readout Gaussian noise σ (counts)
  double cr_probability = 0.1; ///< P(a pixel is hit within the baseline);
                               ///< the paper cites ~10% loss per baseline
  double cr_amp_min = 2000.0;  ///< deposited charge range (counts)
  double cr_amp_max = 30000.0;
};

/// One synthesised baseline with ground truth.
struct RampStack {
  common::TemporalStack<std::uint16_t> readouts;
  common::Image<float> true_flux;        ///< counts/frame per pixel
  common::Image<std::uint8_t> cr_hits;   ///< 1 where a CR struck
};

/// Synthesises the ramp stack for a flux image (counts/frame per pixel).
/// \throws std::invalid_argument if params.frames < 2 or the flux image is
/// empty.
[[nodiscard]] RampStack make_ramp_stack(const common::Image<float>& flux,
                                        const RampParams& params,
                                        common::Rng& rng);

/// Convenience flux scene: flat sky background plus point sources, in
/// counts/frame.
[[nodiscard]] common::Image<float> make_flux_scene(std::size_t width,
                                                   std::size_t height,
                                                   common::Rng& rng,
                                                   double sky = 30.0,
                                                   std::size_t stars = 12);

}  // namespace spacefts::ngst
