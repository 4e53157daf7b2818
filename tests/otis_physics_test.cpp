// Unit tests for spacefts::otis — Planck radiometry, physical bounds, and
// the NEM temperature–emissivity retrieval.
#include <gtest/gtest.h>

#include <cmath>

#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/otis/bounds.hpp"
#include "spacefts/otis/planck.hpp"
#include "spacefts/otis/retrieval.hpp"

namespace so = spacefts::otis;

// --------------------------------------------------------------------- Planck

TEST(Planck, KnownValueAt300K10um) {
  // B(10 µm, 300 K) ≈ 9.92 W·m⁻²·sr⁻¹·µm⁻¹ (standard tables).
  EXPECT_NEAR(so::planck_radiance(10.0, 300.0), 9.92, 0.05);
}

TEST(Planck, IncreasesWithTemperature) {
  EXPECT_LT(so::planck_radiance(10.0, 250.0), so::planck_radiance(10.0, 300.0));
  EXPECT_LT(so::planck_radiance(10.0, 300.0), so::planck_radiance(10.0, 350.0));
}

TEST(Planck, WienDisplacement) {
  // Peak wavelength ≈ 2898/T µm; at 300 K the 9.66 µm radiance should beat
  // both 5 µm and 20 µm.
  const double peak = so::planck_radiance(2898.0 / 300.0, 300.0);
  EXPECT_GT(peak, so::planck_radiance(5.0, 300.0));
  EXPECT_GT(peak, so::planck_radiance(20.0, 300.0));
}

TEST(Planck, InvalidArgumentsThrow) {
  EXPECT_THROW((void)so::planck_radiance(0.0, 300.0), std::invalid_argument);
  EXPECT_THROW((void)so::planck_radiance(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)so::planck_radiance(-1.0, 300.0), std::invalid_argument);
}

TEST(BrightnessTemperature, InvertsPlanckExactly) {
  for (double t : {200.0, 280.0, 320.0, 500.0}) {
    for (double wl : {8.0, 10.0, 12.0}) {
      const double radiance = so::planck_radiance(wl, t);
      EXPECT_NEAR(so::brightness_temperature(wl, radiance), t, 1e-6);
    }
  }
}

TEST(BrightnessTemperature, NonPositiveRadianceIsZero) {
  EXPECT_EQ(so::brightness_temperature(10.0, 0.0), 0.0);
  EXPECT_EQ(so::brightness_temperature(10.0, -5.0), 0.0);
}

TEST(Greybody, ScalesByEmissivity) {
  const double bb = so::planck_radiance(10.0, 300.0);
  EXPECT_DOUBLE_EQ(so::greybody_radiance(10.0, 300.0, 0.5), 0.5 * bb);
  EXPECT_THROW((void)so::greybody_radiance(10.0, 300.0, 1.5), std::invalid_argument);
  EXPECT_THROW((void)so::greybody_radiance(10.0, 300.0, -0.1), std::invalid_argument);
}

// --------------------------------------------------------------------- bounds

TEST(Bounds, ValidatesArguments) {
  EXPECT_THROW((void)so::PhysicalBounds(300.0, 200.0), std::invalid_argument);
  EXPECT_THROW((void)so::PhysicalBounds(0.0, 300.0), std::invalid_argument);
  EXPECT_THROW((void)so::PhysicalBounds(200.0, 300.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)so::PhysicalBounds(200.0, 300.0, 1.5), std::invalid_argument);
}

TEST(Bounds, IntervalContainsNaturalRadiance) {
  const auto bounds = so::PhysicalBounds::global();
  const auto interval = bounds.radiance_interval(10.0);
  // A typical terrestrial scene sits comfortably inside.
  EXPECT_TRUE(interval.contains(so::greybody_radiance(10.0, 290.0, 0.95)));
  // Physically impossible values sit outside.
  EXPECT_FALSE(interval.contains(-1.0));
  EXPECT_FALSE(interval.contains(so::planck_radiance(10.0, 2500.0)));
}

TEST(Bounds, HyperthermalPhenomenaRemainInGlobalEnvelope) {
  // §7.2: fresh lava (~1400 K) must be *inside* the global bounds so a real
  // eruption is never declared a fault by hypothesis (2).
  const auto global = so::PhysicalBounds::global().radiance_interval(10.0);
  EXPECT_TRUE(global.contains(so::greybody_radiance(10.0, 1400.0, 0.9)));
}

// ------------------------------------------------------------------ retrieval

TEST(Retrieval, RecoversUniformScene) {
  const auto grid = so::standard_band_grid();
  spacefts::common::Cube<float> cube(8, 8, grid.size());
  const double true_t = 295.0;
  const double true_eps = 0.95;
  for (std::size_t b = 0; b < grid.size(); ++b) {
    for (float& v : cube.plane(b)) {
      v = static_cast<float>(so::greybody_radiance(grid[b], true_t, true_eps));
    }
  }
  const auto result = so::retrieve(cube, grid, 0.97);
  // NEM with ε_max = 0.97 over a 0.95 grey body biases T slightly low;
  // within ~1.5 K is the textbook behaviour.
  EXPECT_NEAR(result.temperature_k(4, 4), true_t, 1.5);
  EXPECT_NEAR(result.emissivity(4, 4, 3), true_eps, 0.02);
}

TEST(Retrieval, ExactWhenAssumedEmissivityMatches) {
  const auto grid = so::standard_band_grid();
  spacefts::common::Cube<float> cube(2, 2, grid.size());
  for (std::size_t b = 0; b < grid.size(); ++b) {
    for (float& v : cube.plane(b)) {
      v = static_cast<float>(so::greybody_radiance(grid[b], 310.0, 0.97));
    }
  }
  const auto result = so::retrieve(cube, grid, 0.97);
  EXPECT_NEAR(result.temperature_k(0, 0), 310.0, 0.01);
}

TEST(Retrieval, ValidatesArguments) {
  spacefts::common::Cube<float> cube(2, 2, 3);
  const std::vector<double> wrong_grid{8.0, 9.0};
  EXPECT_THROW((void)so::retrieve(cube, wrong_grid), std::invalid_argument);
  const std::vector<double> grid{8.0, 9.0, 10.0};
  EXPECT_THROW((void)so::retrieve(cube, grid, 0.0), std::invalid_argument);
}

TEST(Retrieval, NonPositiveRadianceGivesZeroProducts) {
  const std::vector<double> grid{8.0, 10.0};
  spacefts::common::Cube<float> cube(1, 1, 2, -3.0f);
  const auto result = so::retrieve(cube, grid);
  EXPECT_EQ(result.temperature_k(0, 0), 0.0);
  EXPECT_EQ(result.emissivity(0, 0, 0), 0.0);
}

TEST(Retrieval, CorruptedBandSkewsTemperature) {
  // §7.1: output precision tracks input precision — a single corrupted band
  // (hot outlier) captures the NEM max and skews T for that pixel.
  const auto grid = so::standard_band_grid();
  spacefts::common::Cube<float> cube(2, 2, grid.size());
  for (std::size_t b = 0; b < grid.size(); ++b) {
    for (float& v : cube.plane(b)) {
      v = static_cast<float>(so::greybody_radiance(grid[b], 290.0, 0.95));
    }
  }
  const auto clean = so::retrieve(cube, grid);
  cube(0, 0, 2) *= 64.0f;  // exponent-bit-flip-sized corruption
  const auto dirty = so::retrieve(cube, grid);
  EXPECT_GT(dirty.temperature_k(0, 0), clean.temperature_k(0, 0) + 50.0);
  EXPECT_NEAR(dirty.temperature_k(1, 1), clean.temperature_k(1, 1), 1e-9);
}

TEST(BandGrid, StandardGridSpansThermalWindow) {
  const auto grid = so::standard_band_grid();
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_DOUBLE_EQ(grid.front(), 8.0);
  EXPECT_DOUBLE_EQ(grid.back(), 12.0);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
}
