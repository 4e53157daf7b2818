#include "spacefts/datagen/otis_scenes.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "spacefts/otis/planck.hpp"
#include "spacefts/otis/retrieval.hpp"

namespace spacefts::datagen {

namespace {

/// Mean broadband emissivity the ε texture varies around.
constexpr double kEmissivityMean = 0.95;
/// Calm surface temperature the morphologies perturb, in kelvin.
constexpr double kBaseTemperatureK = 290.0;

/// Smooth low-frequency field: a handful of random cosine modes, amplitude 1.
common::Image<double> smooth_field(std::size_t w, std::size_t h,
                                   common::Rng& rng, std::size_t modes = 4) {
  common::Image<double> out(w, h, 0.0);
  for (std::size_t m = 0; m < modes; ++m) {
    const double fx = rng.uniform(0.5, 2.5) * 2.0 * std::numbers::pi /
                      static_cast<double>(w);
    const double fy = rng.uniform(0.5, 2.5) * 2.0 * std::numbers::pi /
                      static_cast<double>(h);
    const double phase_x = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double phase_y = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double amp = rng.uniform(0.3, 1.0) / static_cast<double>(modes);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        out(x, y) += amp *
                     std::cos(fx * static_cast<double>(x) + phase_x) *
                     std::cos(fy * static_cast<double>(y) + phase_y);
      }
    }
  }
  return out;
}

/// Adds a Gaussian thermal spot (positive = hot, negative = cold) at
/// (cx, cy) with the given radius (σ in pixels) and peak amplitude.
void add_spot(common::Image<double>& t, double cx, double cy, double radius,
              double amplitude) {
  const double reach = 3.5 * radius;
  const auto x_lo =
      static_cast<std::size_t>(std::max(0.0, std::floor(cx - reach)));
  const auto y_lo =
      static_cast<std::size_t>(std::max(0.0, std::floor(cy - reach)));
  for (std::size_t y = y_lo; y < t.height(); ++y) {
    if (static_cast<double>(y) > cy + reach) break;
    for (std::size_t x = x_lo; x < t.width(); ++x) {
      if (static_cast<double>(x) > cx + reach) break;
      const double dx = static_cast<double>(x) - cx;
      const double dy = static_cast<double>(y) - cy;
      t(x, y) += amplitude * std::exp(-(dx * dx + dy * dy) / (2 * radius * radius));
    }
  }
}

}  // namespace

const char* to_string(OtisSceneKind kind) noexcept {
  switch (kind) {
    case OtisSceneKind::kBlob:
      return "Blob";
    case OtisSceneKind::kStripe:
      return "Stripe";
    case OtisSceneKind::kSpots:
      return "Spots";
  }
  return "Unknown";
}

OtisScene OtisSceneGenerator::generate(OtisSceneKind kind,
                                       const OtisSceneParams& params) {
  if (params.width == 0 || params.height == 0 || params.bands == 0) {
    throw std::invalid_argument("OtisSceneGenerator: empty scene");
  }
  const std::size_t w = params.width;
  const std::size_t h = params.height;

  // Temperature field: calm base with gentle large-scale structure.
  common::Image<double> temp(w, h, kBaseTemperatureK);
  {
    const auto undulation = smooth_field(w, h, rng_);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) temp(x, y) += 3.0 * undulation(x, y);
    }
  }

  switch (kind) {
    case OtisSceneKind::kBlob: {
      // A few dark (cold) spots over broad unchanging areas.
      const std::size_t spots = 4 + rng_.below(3);
      for (std::size_t s = 0; s < spots; ++s) {
        add_spot(temp, rng_.uniform(0.0, static_cast<double>(w)),
                 rng_.uniform(0.0, static_cast<double>(h)),
                 rng_.uniform(2.0, 5.0), -rng_.uniform(10.0, 25.0));
      }
      break;
    }
    case OtisSceneKind::kStripe: {
      // A vertical turbulent band through the centre, ~1/6 of the width.
      const double band_lo = static_cast<double>(w) * (0.5 - 1.0 / 12.0);
      const double band_hi = static_cast<double>(w) * (0.5 + 1.0 / 12.0);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const auto fx = static_cast<double>(x);
          if (fx >= band_lo && fx <= band_hi) {
            temp(x, y) += rng_.gaussian(0.0, 15.0);
          }
        }
      }
      break;
    }
    case OtisSceneKind::kSpots: {
      // Many spots, large and small, hot and cold, everywhere.
      const std::size_t spots = 36 + rng_.below(12);
      for (std::size_t s = 0; s < spots; ++s) {
        const double amp = rng_.uniform(8.0, 25.0);
        add_spot(temp, rng_.uniform(0.0, static_cast<double>(w)),
                 rng_.uniform(0.0, static_cast<double>(h)),
                 rng_.uniform(1.0, 4.5), rng_.bernoulli(0.5) ? amp : -amp);
      }
      break;
    }
  }

  // Emissivity: smooth around the mean, clamped to a physical range.
  common::Image<double> eps(w, h, kEmissivityMean);
  {
    const auto texture = smooth_field(w, h, rng_);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        eps(x, y) = std::clamp(kEmissivityMean + 0.02 * texture(x, y),
                               0.7, 1.0);
      }
    }
  }

  // Forward model into the radiance cube.
  auto grid = otis::standard_band_grid();
  grid.resize(params.bands);
  if (params.bands > 8) {
    // Extend the grid linearly past the standard 8 bands if asked for more.
    for (std::size_t b = 8; b < params.bands; ++b) {
      grid[b] = 12.0 + 0.5 * static_cast<double>(b - 7);
    }
  }
  common::Cube<float> radiance(w, h, params.bands);
  for (std::size_t b = 0; b < params.bands; ++b) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        radiance(x, y, b) = static_cast<float>(
            otis::greybody_radiance(grid[b], temp(x, y), eps(x, y)));
      }
    }
  }

  return OtisScene{kind, std::move(temp), std::move(eps), std::move(grid),
                   std::move(radiance)};
}

}  // namespace spacefts::datagen
