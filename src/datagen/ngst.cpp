#include "spacefts/datagen/ngst.hpp"

#include <cmath>
#include <stdexcept>

namespace spacefts::datagen {
namespace {

constexpr double kBackground = 1200.0;     ///< detector background (counts)
constexpr double kBackgroundNoise = 40.0;  ///< spatial σ of the background
constexpr double kStarPeakMin = 2000.0;    ///< faintest star peak over background
constexpr double kStarPeakMax = 45000.0;   ///< brightest star peak over background
constexpr double kPsfSigmaMin = 0.8;       ///< PSF width range in pixels
constexpr double kPsfSigmaMax = 2.5;

}  // namespace

std::uint16_t clamp_pixel(double value) noexcept {
  if (value <= 0.0) return 0;
  if (value >= static_cast<double>(kPixelMax)) return kPixelMax;
  return static_cast<std::uint16_t>(std::lround(value));
}

std::vector<std::uint16_t> NgstSimulator::sequence(std::size_t frames,
                                                   double start, double sigma) {
  if (frames == 0) throw std::invalid_argument("sequence: frames == 0");
  std::vector<std::uint16_t> out(frames);
  double level = start;
  out[0] = clamp_pixel(level);
  for (std::size_t i = 1; i < frames; ++i) {
    level += rng_.gaussian(0.0, sigma);
    out[i] = clamp_pixel(level);
  }
  return out;
}

common::Image<std::uint16_t> NgstSimulator::base_scene(
    const SceneParams& params) {
  common::Image<std::uint16_t> img(params.width, params.height);
  // Background with spatial noise.
  for (std::size_t y = 0; y < params.height; ++y) {
    for (std::size_t x = 0; x < params.width; ++x) {
      img(x, y) = clamp_pixel(
          rng_.gaussian(kBackground, kBackgroundNoise));
    }
  }
  // Point sources with Gaussian PSFs, truncated at 4σ.
  for (std::size_t s = 0; s < params.stars; ++s) {
    const double cx = rng_.uniform(0.0, static_cast<double>(params.width));
    const double cy = rng_.uniform(0.0, static_cast<double>(params.height));
    const double peak = rng_.uniform(kStarPeakMin, kStarPeakMax);
    const double psf = rng_.uniform(kPsfSigmaMin, kPsfSigmaMax);
    const double reach = 4.0 * psf;
    const auto x_lo = static_cast<std::size_t>(std::max(0.0, cx - reach));
    const auto y_lo = static_cast<std::size_t>(std::max(0.0, cy - reach));
    const auto x_hi = static_cast<std::size_t>(
        std::min(static_cast<double>(params.width) - 1.0, cx + reach));
    const auto y_hi = static_cast<std::size_t>(
        std::min(static_cast<double>(params.height) - 1.0, cy + reach));
    for (std::size_t y = y_lo; y <= y_hi && y < params.height; ++y) {
      for (std::size_t x = x_lo; x <= x_hi && x < params.width; ++x) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        const double add = peak * std::exp(-(dx * dx + dy * dy) / (2 * psf * psf));
        img(x, y) = clamp_pixel(static_cast<double>(img(x, y)) + add);
      }
    }
  }
  return img;
}

common::TemporalStack<std::uint16_t> NgstSimulator::stack(
    std::size_t frames, const SceneParams& params, double sigma) {
  if (frames == 0) throw std::invalid_argument("stack: frames == 0");
  const auto base = base_scene(params);
  common::TemporalStack<std::uint16_t> out(params.width, params.height, frames);
  for (std::size_t y = 0; y < params.height; ++y) {
    for (std::size_t x = 0; x < params.width; ++x) {
      double level = static_cast<double>(base(x, y));
      out(x, y, 0) = clamp_pixel(level);
      for (std::size_t t = 1; t < frames; ++t) {
        level += rng_.gaussian(0.0, sigma);
        out(x, y, t) = clamp_pixel(level);
      }
    }
  }
  return out;
}

}  // namespace spacefts::datagen
