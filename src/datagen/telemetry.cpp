#include "spacefts/datagen/telemetry.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "spacefts/datagen/ngst.hpp"

namespace spacefts::datagen {
namespace {

constexpr double kBaseMin = 20000.0;     ///< channel base level range (counts)
constexpr double kBaseMax = 34000.0;
static_assert(kBaseMin <= kBaseMax);
constexpr double kJitter = 0.25;         ///< sampling-clock jitter (samples)
static_assert(kJitter >= 0.0 && kJitter < 0.5);
constexpr double kDriftSigma = 12.0;     ///< per-sample random-walk σ
constexpr double kOscAmpMax = 600.0;     ///< oscillation amplitude range [0, max]
constexpr double kOscPeriodMin = 16.0;   ///< oscillation period range (samples)
constexpr double kOscPeriodMax = 128.0;

void validate(const TelemetryParams& params) {
  if (params.samples == 0) {
    throw std::invalid_argument("telemetry: samples must be > 0");
  }
}

}  // namespace

std::vector<std::uint16_t> TelemetrySimulator::channel(
    const TelemetryParams& params) {
  validate(params);
  // Per-channel character draws first, then one (jitter, drift) pair per
  // sample — a fixed draw order, so a bank regenerates bit-identically.
  const double base = rng_.uniform(kBaseMin, kBaseMax);
  const double amp = rng_.uniform(0.0, kOscAmpMax);
  const double period = rng_.uniform(kOscPeriodMin, kOscPeriodMax);
  const double phase = rng_.uniform(0.0, 2.0 * std::numbers::pi);

  std::vector<std::uint16_t> out;
  out.reserve(params.samples);
  double walk = 0.0;
  for (std::size_t i = 0; i < params.samples; ++i) {
    const double t = static_cast<double>(i) +
                     kJitter * rng_.uniform(-1.0, 1.0);
    walk += rng_.gaussian(0.0, kDriftSigma);
    const double v =
        base + amp * std::sin(2.0 * std::numbers::pi * t / period + phase) +
        walk;
    out.push_back(clamp_pixel(v));
  }
  return out;
}

common::TemporalStack<std::uint16_t> TelemetrySimulator::stack(
    const TelemetryParams& params) {
  validate(params);
  if (params.channels == 0) {
    throw std::invalid_argument("telemetry: channels must be > 0");
  }
  common::TemporalStack<std::uint16_t> stack(params.channels, 1,
                                             params.samples);
  for (std::size_t x = 0; x < params.channels; ++x) {
    const auto series = channel(params);
    for (std::size_t t = 0; t < params.samples; ++t) {
      stack(x, 0, t) = series[t];
    }
  }
  return stack;
}

}  // namespace spacefts::datagen
