#include "spacefts/ngst/readout.hpp"

#include <cmath>
#include <stdexcept>

namespace spacefts::ngst {

namespace {
/// Detector bias level (counts) every ramp starts from.
constexpr double kBias = 1000.0;

[[nodiscard]] std::uint16_t saturate(double v) noexcept {
  if (v <= 0.0) return 0;
  if (v >= 65535.0) return 65535;
  return static_cast<std::uint16_t>(std::lround(v));
}
}  // namespace

RampStack make_ramp_stack(const common::Image<float>& flux,
                          const RampParams& params, common::Rng& rng) {
  if (params.frames < 2) {
    throw std::invalid_argument("make_ramp_stack: need at least 2 frames");
  }
  if (flux.empty()) {
    throw std::invalid_argument("make_ramp_stack: empty flux image");
  }
  RampStack out{
      common::TemporalStack<std::uint16_t>(flux.width(), flux.height(),
                                           params.frames),
      flux,
      common::Image<std::uint8_t>(flux.width(), flux.height(), 0),
  };
  for (std::size_t y = 0; y < flux.height(); ++y) {
    for (std::size_t x = 0; x < flux.width(); ++x) {
      // Decide the CR hit (at most one per pixel per baseline, uniformly
      // placed; good enough at the paper's ~10% hit rate).
      std::size_t cr_frame = params.frames;  // == no hit
      double cr_amp = 0.0;
      if (rng.bernoulli(params.cr_probability)) {
        cr_frame = 1 + rng.below(params.frames - 1);
        cr_amp = rng.uniform(params.cr_amp_min, params.cr_amp_max);
        out.cr_hits(x, y) = 1;
      }
      double accumulated = kBias;
      for (std::size_t t = 0; t < params.frames; ++t) {
        accumulated += static_cast<double>(flux(x, y));
        if (t == cr_frame) accumulated += cr_amp;
        out.readouts(x, y, t) =
            saturate(accumulated + rng.gaussian(0.0, params.read_noise));
      }
    }
  }
  return out;
}

common::Image<float> make_flux_scene(std::size_t width, std::size_t height,
                                     common::Rng& rng, double sky,
                                     std::size_t stars) {
  common::Image<float> flux(width, height, static_cast<float>(sky));
  for (std::size_t s = 0; s < stars; ++s) {
    const double cx = rng.uniform(0.0, static_cast<double>(width));
    const double cy = rng.uniform(0.0, static_cast<double>(height));
    const double peak = rng.uniform(5.0 * sky, 25.0 * sky);
    const double sigma = rng.uniform(0.8, 2.2);
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        const double r2 = dx * dx + dy * dy;
        if (r2 > 16.0 * sigma * sigma) continue;
        flux(x, y) += static_cast<float>(peak * std::exp(-r2 / (2 * sigma * sigma)));
      }
    }
  }
  return flux;
}

}  // namespace spacefts::ngst
