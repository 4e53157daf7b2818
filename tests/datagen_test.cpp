// Unit tests for spacefts::datagen — NGST Eq.(1) sequences/stacks and the
// three OTIS scene morphologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "spacefts/common/stats.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/otis/bounds.hpp"

namespace sd = spacefts::datagen;

// ----------------------------------------------------------------- sequences

TEST(NgstSequence, LengthAndStart) {
  sd::NgstSimulator sim(1);
  const auto seq = sim.sequence(64, 27000.0, 250.0);
  ASSERT_EQ(seq.size(), 64u);
  EXPECT_EQ(seq[0], 27000u);
}

TEST(NgstSequence, ZeroFramesThrows) {
  sd::NgstSimulator sim(1);
  EXPECT_THROW((void)sim.sequence(0), std::invalid_argument);
}

TEST(NgstSequence, SigmaZeroIsConstant) {
  sd::NgstSimulator sim(2);
  const auto seq = sim.sequence(64, 27000.0, 0.0);
  for (auto v : seq) EXPECT_EQ(v, 27000u);
}

TEST(NgstSequence, DeterministicPerSeed) {
  sd::NgstSimulator a(3), b(3);
  EXPECT_EQ(a.sequence(64), b.sequence(64));
}

TEST(NgstSequence, StepSizesMatchSigma) {
  sd::NgstSimulator sim(4);
  std::vector<double> steps;
  for (int trial = 0; trial < 200; ++trial) {
    const auto seq = sim.sequence(64, 27000.0, 250.0);
    for (std::size_t i = 1; i < seq.size(); ++i) {
      steps.push_back(static_cast<double>(seq[i]) -
                      static_cast<double>(seq[i - 1]));
    }
  }
  EXPECT_NEAR(spacefts::common::mean(steps), 0.0, 10.0);
  EXPECT_NEAR(spacefts::common::stddev(steps), 250.0, 10.0);
}

TEST(NgstSequence, OverflowTruncatesToMax) {
  sd::NgstSimulator sim(5);
  // §6: σ = 8000 from a start near the ceiling must saturate, not wrap.
  const auto seq = sim.sequence(256, 60000.0, 8000.0);
  for (auto v : seq) {
    EXPECT_LE(v, 65535u);
  }
  EXPECT_TRUE(std::any_of(seq.begin(), seq.end(),
                          [](std::uint16_t v) { return v == 65535; }));
}

TEST(ClampPixel, Bounds) {
  EXPECT_EQ(sd::clamp_pixel(-5.0), 0u);
  EXPECT_EQ(sd::clamp_pixel(0.4), 0u);
  EXPECT_EQ(sd::clamp_pixel(1000.5), 1001u);
  EXPECT_EQ(sd::clamp_pixel(1e9), 65535u);
}

// -------------------------------------------------------------------- scenes

TEST(NgstScene, BaseSceneHasBackgroundAndStars) {
  sd::NgstSimulator sim(6);
  sd::SceneParams params;
  params.width = 64;
  params.height = 64;
  const auto img = sim.base_scene(params);
  std::vector<double> values;
  values.reserve(img.size());
  for (auto v : img.pixels()) values.push_back(static_cast<double>(v));
  // Median ≈ background (stars are sparse); max far above (a star peak).
  EXPECT_NEAR(spacefts::common::median(values), 1200.0, 100.0);
  EXPECT_GT(*std::max_element(values.begin(), values.end()), 3000.0);
}

TEST(NgstStack, EveryCoordinateWalksFromBase) {
  sd::NgstSimulator sim(7);
  sd::SceneParams params;
  params.width = 16;
  params.height = 16;
  const auto stack = sim.stack(32, params, 250.0);
  EXPECT_EQ(stack.frames(), 32u);
  EXPECT_EQ(stack.width(), 16u);
  // Frame-to-frame deltas should be on the order of sigma, not wild.
  const auto series = stack.series(8, 8);
  for (std::size_t t = 1; t < series.size(); ++t) {
    EXPECT_LT(std::abs(static_cast<double>(series[t]) -
                       static_cast<double>(series[t - 1])),
              250.0 * 6);
  }
}

// --------------------------------------------------------------- OTIS scenes

TEST(OtisScene, NamesAreStable) {
  EXPECT_STREQ(sd::to_string(sd::OtisSceneKind::kBlob), "Blob");
  EXPECT_STREQ(sd::to_string(sd::OtisSceneKind::kStripe), "Stripe");
  EXPECT_STREQ(sd::to_string(sd::OtisSceneKind::kSpots), "Spots");
}

TEST(OtisScene, EmptyDimensionsThrow) {
  sd::OtisSceneGenerator gen(1);
  sd::OtisSceneParams params;
  params.width = 0;
  EXPECT_THROW((void)gen.generate(sd::OtisSceneKind::kBlob, params),
               std::invalid_argument);
}

TEST(OtisScene, RadianceIsPositiveAndPhysical) {
  sd::OtisSceneGenerator gen(2);
  for (auto kind : {sd::OtisSceneKind::kBlob, sd::OtisSceneKind::kStripe,
                    sd::OtisSceneKind::kSpots}) {
    const auto scene = gen.generate(kind);
    const auto bounds = spacefts::otis::PhysicalBounds::global();
    ASSERT_EQ(scene.wavelengths_um.size(), scene.radiance.depth());
    for (std::size_t b = 0; b < scene.radiance.depth(); ++b) {
      const auto interval =
          bounds.radiance_interval(scene.wavelengths_um[b]);
      for (float v : scene.radiance.plane(b)) {
        EXPECT_GT(v, 0.0f);
        EXPECT_TRUE(interval.contains(static_cast<double>(v)))
            << sd::to_string(kind) << " band " << b << " value " << v;
      }
    }
  }
}

namespace {

/// Standard deviation of the temperature field within a column range.
double column_band_stddev(const spacefts::common::Image<double>& t,
                          std::size_t x_lo, std::size_t x_hi) {
  std::vector<double> values;
  for (std::size_t y = 0; y < t.height(); ++y) {
    for (std::size_t x = x_lo; x < x_hi; ++x) values.push_back(t(x, y));
  }
  return spacefts::common::stddev(values);
}

}  // namespace

TEST(OtisScene, StripeIsTurbulentOnlyInTheCentre) {
  sd::OtisSceneGenerator gen(3);
  const auto scene = gen.generate(sd::OtisSceneKind::kStripe);
  const std::size_t w = scene.temperature_k.width();
  const double centre = column_band_stddev(scene.temperature_k,
                                           w / 2 - w / 16, w / 2 + w / 16);
  const double edge = column_band_stddev(scene.temperature_k, 0, w / 8);
  EXPECT_GT(centre, 3.0 * edge);
}

TEST(OtisScene, BlobHasColdSpotsOnly) {
  sd::OtisSceneGenerator gen(4);
  sd::OtisSceneParams params;
  const auto scene = gen.generate(sd::OtisSceneKind::kBlob, params);
  double min_t = 1e9, max_t = -1e9;
  for (std::size_t y = 0; y < scene.temperature_k.height(); ++y) {
    for (std::size_t x = 0; x < scene.temperature_k.width(); ++x) {
      min_t = std::min(min_t, scene.temperature_k(x, y));
      max_t = std::max(max_t, scene.temperature_k(x, y));
    }
  }
  // Dark (cold) spots pull well below the 290 K base; nothing much above it.
  EXPECT_LT(min_t, 290.0 - 6.0);
  EXPECT_LT(max_t, 290.0 + 8.0);
}

TEST(OtisScene, SpotsIsMoreTurbulentThanBlobOverall) {
  sd::OtisSceneGenerator gen(5);
  const auto blob = gen.generate(sd::OtisSceneKind::kBlob);
  const auto spots = gen.generate(sd::OtisSceneKind::kSpots);
  const auto field_stddev = [](const spacefts::common::Image<double>& t) {
    std::vector<double> v;
    for (std::size_t y = 0; y < t.height(); ++y) {
      for (std::size_t x = 0; x < t.width(); ++x) v.push_back(t(x, y));
    }
    return spacefts::common::stddev(v);
  };
  EXPECT_GT(field_stddev(spots.temperature_k), field_stddev(blob.temperature_k));
}

TEST(OtisScene, EmissivityWithinPhysicalRange) {
  sd::OtisSceneGenerator gen(6);
  const auto scene = gen.generate(sd::OtisSceneKind::kSpots);
  for (std::size_t y = 0; y < scene.emissivity.height(); ++y) {
    for (std::size_t x = 0; x < scene.emissivity.width(); ++x) {
      EXPECT_GE(scene.emissivity(x, y), 0.7);
      EXPECT_LE(scene.emissivity(x, y), 1.0);
    }
  }
}

TEST(OtisScene, DeterministicPerSeed) {
  sd::OtisSceneGenerator a(9), b(9);
  const auto sa = a.generate(sd::OtisSceneKind::kStripe);
  const auto sb = b.generate(sd::OtisSceneKind::kStripe);
  EXPECT_EQ(sa.radiance, sb.radiance);
}

// ----------------------------------------------------------------- telemetry

TEST(Telemetry, ChannelLengthMatchesSamples) {
  sd::TelemetrySimulator sim(3);
  sd::TelemetryParams params;
  params.samples = 48;
  EXPECT_EQ(sim.channel(params).size(), 48u);
}

TEST(Telemetry, StackIsOneRowPerChannelBank) {
  sd::TelemetrySimulator sim(4);
  sd::TelemetryParams params;
  params.channels = 12;
  params.samples = 20;
  const auto stack = sim.stack(params);
  EXPECT_EQ(stack.width(), 12u);
  EXPECT_EQ(stack.height(), 1u);
  EXPECT_EQ(stack.frames(), 20u);
}

TEST(Telemetry, DeterministicPerSeed) {
  sd::TelemetrySimulator a(7), b(7);
  const sd::TelemetryParams params;
  EXPECT_EQ(a.stack(params).cube(), b.stack(params).cube());
}

TEST(Telemetry, SignalActuallyVaries) {
  // Drift plus oscillation: a channel is never a flat line.
  sd::TelemetrySimulator sim(8);
  const auto series = sim.channel({});
  EXPECT_NE(*std::min_element(series.begin(), series.end()),
            *std::max_element(series.begin(), series.end()));
}

TEST(Telemetry, RejectsBadParams) {
  sd::TelemetrySimulator sim(9);
  sd::TelemetryParams params;
  params.samples = 0;
  EXPECT_THROW((void)sim.channel(params), std::invalid_argument);
  params = {};
  params.channels = 0;
  EXPECT_THROW((void)sim.stack(params), std::invalid_argument);
}
