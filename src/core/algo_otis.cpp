#include "spacefts/core/algo_otis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "kernel_detail.hpp"
#include "spacefts/common/bitops.hpp"
#include "spacefts/common/parallel.hpp"
#include "spacefts/common/stats.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/core/voter_matrix.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::core {

AlgoOtis::AlgoOtis(AlgoOtisConfig config) : config_(std::move(config)) {
  if (config_.upsilon == 0 || config_.upsilon % 2 != 0) {
    throw std::invalid_argument("AlgoOtis: upsilon must be even and > 0");
  }
  if (!is_valid_sensitivity(config_.lambda)) {
    throw std::invalid_argument("AlgoOtis: lambda outside [0, 100]");
  }
}

namespace {

namespace par = spacefts::common::parallel;

/// Pixel classification for one plane pass; shared with the vector kernels
/// (kernel_detail.hpp), which derive clean-lane masks from the raw bytes.
using PixelState = spacefts::core::detail::OtisPixelState;

/// Per-plane buffers of a plane pass, allocated once for a cube's planes.
struct PlaneScratch {
  common::Image<std::uint8_t> state;
  common::Image<float> medians;
  common::Image<float> residuals;
  std::vector<float> pool;  ///< |residual| of the in-bounds pixels

  void fit(std::size_t w, std::size_t h) {
    if (state.width() == w && state.height() == h) return;
    state = common::Image<std::uint8_t>(w, h);
    medians = common::Image<float>(w, h);
    residuals = common::Image<float>(w, h);
    pool.resize(w * h);
  }
};

AlgoOtisReport preprocess_plane_with(const AlgoOtisConfig& config,
                                     common::Image<float>& plane,
                                     double wavelength_um, PlaneScratch& s) {
  AlgoOtisReport report;
  report.pixels_examined = plane.size();
  if (config.lambda <= 0.0 || plane.width() < 3 || plane.height() < 3) {
    return report;
  }
  SPACEFTS_TSPAN("otis.plane", {"lambda", config.lambda},
                 {"wavelength_um", wavelength_um});
  const std::size_t w = plane.width();
  const std::size_t h = plane.height();
  const otis::RadianceInterval interval =
      otis::PhysicalBounds::global().radiance_interval(wavelength_um);
  const std::size_t lanes = par::resolve_threads(config.threads);
  const detail::Voter& voter = detail::voter(config.kernel);
  telemetry::counter(voter.otis_counter).add(1);
  const detail::VoterEntries& kernel = *voter.entries;
  s.fit(w, h);
  common::Image<std::uint8_t>& state = s.state;
  common::Image<float>& medians = s.medians;
  common::Image<float>& residuals = s.residuals;

  // ---- Phase 1: classification, on the dispatched kernel --------------------
  {
    SPACEFTS_TSPAN("otis.classify");
    kernel.otis_phase1(detail::OtisPhase1Ctx{
        &plane, &state, &medians, &residuals, &interval, &config, lanes});
  }
  // The in-bounds |r| in pixel order; the order statistic below does not
  // depend on it.  |r| as float converts exactly to the double the
  // reference pools.
  std::size_t pooled = 0;
  {
    const std::uint8_t* const st = state.pixels().data();
    const float* const res = residuals.pixels().data();
    for (std::size_t i = 0; i < w * h; ++i) {
      s.pool[pooled] = std::abs(res[i]);
      pooled += st[i] == static_cast<std::uint8_t>(PixelState::kClean) ? 1 : 0;
    }
  }
  report.out_of_bounds = w * h - pooled;

  // Robust scale of the conforming residuals.  The 30th percentile of |r|
  // stays uncontaminated even when well over half the pixels carry faults
  // (the classic MAD breaks at 50%); for Gaussian residuals
  // P30(|r|) = 0.385 σ, so scale back to a σ estimate.
  double sigma_est = 0.0;
  if (pooled != 0) {
    const auto rank = std::min(
        static_cast<std::size_t>(0.3 * static_cast<double>(pooled)),
        pooled - 1);
    sigma_est = static_cast<double>(common::kth_smallest_nonnegative(
                    std::span(s.pool).first(pooled), rank)) /
                0.385;
  }
  const double factor =
      kOutlierBaseFactor * (1.0 + (100.0 - config.lambda) / 50.0);
  // Floor the threshold to keep pure float rounding noise from qualifying.
  const double tau = std::max(factor * sigma_est, 1e-12);

  std::vector<std::size_t> lane_outliers(lanes, 0);
  std::vector<std::size_t> lane_protected(lanes, 0);
  {
  SPACEFTS_TSPAN("otis.classify", {"tau", tau});
  par::parallel_for(h, /*grain=*/4, lanes, [&](std::size_t y0, std::size_t y1,
                                               std::size_t lane) {
    for (std::size_t y = y0; y < y1; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        if (state(x, y) != static_cast<std::uint8_t>(PixelState::kClean)) {
          continue;
        }
        const float r = residuals(x, y);
        if (std::abs(static_cast<double>(r)) <= tau) continue;
        ++lane_outliers[lane];
        // Hypothesis (1): a trend in the neighbourhood is natural.  An ally
        // is a neighbour whose *value* deviates from this pixel's local
        // median in the same direction by a comparable amount — this also
        // protects the rim of a plateau anomaly (geyser, eruption front),
        // whose interior neighbours are not residual-outliers themselves
        // (their own local medians are already hot) but visibly share the
        // deviation.
        if (config.enable_trend_test) {
          const float m = medians(x, y);
          std::size_t allies = 0;
          for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
            for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0) continue;
              const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x) + dx;
              const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(y) + dy;
              if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(w) ||
                  ny >= static_cast<std::ptrdiff_t>(h)) {
                continue;
              }
              const float nv = plane(static_cast<std::size_t>(nx),
                                     static_cast<std::size_t>(ny));
              if (!std::isfinite(nv) || !std::isfinite(m)) continue;
              const double ndev =
                  static_cast<double>(nv) - static_cast<double>(m);
              // An ally shares the deviation's direction AND magnitude: a
              // physical trend is spatially coherent, while coincidentally
              // corrupted neighbours deviate by unrelated (bit-weight)
              // amounts.
              const double rmag = std::abs(static_cast<double>(r));
              if (std::abs(ndev) >= 0.5 * rmag &&
                  std::abs(ndev) <= 2.5 * rmag &&
                  std::signbit(static_cast<float>(ndev)) == std::signbit(r)) {
                ++allies;
              }
            }
          }
          if (allies >= kTrendNeighbors) {
            state(x, y) = static_cast<std::uint8_t>(PixelState::kProtected);
            ++lane_protected[lane];
            continue;
          }
        }
        state(x, y) = static_cast<std::uint8_t>(PixelState::kCandidate);
      }
    }
  });
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    report.outliers += lane_outliers[l];
    report.trend_protected += lane_protected[l];
  }

  // ---- Phases 2 + 3: thresholds and vote, on the dispatched kernel ---------
  kernel.otis_phase23(detail::OtisPhase23Ctx{&plane, &state, &medians,
                                             &interval, tau, &config, lanes},
                      report);
  telemetry::counter("otis.bit_corrected").add(report.bit_corrected);
  telemetry::counter("otis.median_replaced").add(report.median_replaced);
  telemetry::counter("otis.trend_protected").add(report.trend_protected);
  telemetry::counter("otis.out_of_bounds").add(report.out_of_bounds);
  return report;
}

}  // namespace

AlgoOtisReport AlgoOtis::preprocess_plane(common::Image<float>& plane,
                                          double wavelength_um) const {
  PlaneScratch scratch;
  return preprocess_plane_with(config_, plane, wavelength_um, scratch);
}

AlgoOtisReport AlgoOtis::preprocess_spectral(
    common::Cube<float>& cube, std::span<const double> wavelengths_um) const {
  if (wavelengths_um.size() != cube.depth()) {
    throw std::invalid_argument("AlgoOtis: wavelengths/bands mismatch");
  }
  AlgoOtisReport report;
  report.pixels_examined = cube.size();
  const std::size_t bands = cube.depth();
  if (config_.lambda <= 0.0 || bands < 3) return report;
  SPACEFTS_TSPAN("otis.spectral", {"lambda", config_.lambda},
                 {"bands", static_cast<double>(bands)});

  // Per-band physical envelopes for hypothesis (2).
  std::vector<otis::RadianceInterval> intervals;
  intervals.reserve(bands);
  for (double wl : wavelengths_um) {
    intervals.push_back(otis::PhysicalBounds::global().radiance_interval(wl));
  }

  // Row-parallel over ground pixels; every lane owns a full scratch set
  // (series, voter matrix, sort buffer, voters) so the per-pixel loop does
  // not allocate once warm.  Each pixel touches only its own spectral
  // column, so output is bit-identical for every thread count.
  const std::size_t lanes = par::resolve_threads(config_.threads);
  struct SpectralScratch {
    std::vector<std::uint32_t> series;
    VoterMatrix<std::uint32_t> matrix;
    std::vector<std::uint32_t> sort_buf;
    std::vector<std::uint32_t> voters;
  };
  std::vector<SpectralScratch> scratch(lanes);
  std::vector<std::size_t> lane_oob(lanes, 0);
  std::vector<std::size_t> lane_bit(lanes, 0);
  std::vector<std::size_t> lane_median(lanes, 0);

  par::parallel_for(cube.height(), /*grain=*/4, lanes, [&](std::size_t y0,
                                                           std::size_t y1,
                                                           std::size_t lane) {
    SpectralScratch& s = scratch[lane];
    s.series.resize(bands);
    s.voters.reserve(config_.upsilon);
    for (std::size_t y = y0; y < y1; ++y) {
      for (std::size_t x = 0; x < cube.width(); ++x) {
        for (std::size_t b = 0; b < bands; ++b) {
          s.series[b] = common::float_to_bits(cube(x, y, b));
        }
        // Dynamic per-pixel thresholds along the wavelength axis.  The
        // Planck slope between bands is natural variation, so the spectral
        // matrix's thresholds end up wide — the §7.1 effect.
        rebuild_voter_matrix<std::uint32_t>(s.series, config_.upsilon,
                                            config_.lambda, true, s.matrix,
                                            s.sort_buf);
        if (s.matrix.ways.empty()) continue;
        for (std::size_t b = 0; b < bands; ++b) {
          gather_voters(s.matrix, b, bands, s.voters);
          const std::uint32_t corr = correction_vector<std::uint32_t>(
              s.voters, s.matrix.lsb_mask, s.matrix.msb_mask);
          const float original = cube(x, y, b);
          const bool oob =
              config_.enable_bounds &&
              (!std::isfinite(original) ||
               !intervals[b].contains(static_cast<double>(original)));
          if (oob) ++lane_oob[lane];
          if (corr != 0) {
            const float cand = common::bits_to_float(s.series[b] ^ corr);
            const bool physical =
                std::isfinite(cand) &&
                (!config_.enable_bounds ||
                 intervals[b].contains(static_cast<double>(cand)));
            if (physical) {
              cube(x, y, b) = cand;
              ++lane_bit[lane];
              continue;
            }
          }
          // Unrehabilitated out-of-bounds band: interpolate its neighbours.
          if (oob) {
            const float lo = b > 0 ? cube(x, y, b - 1)
                                   : std::numeric_limits<float>::quiet_NaN();
            const float hi = b + 1 < bands
                                 ? cube(x, y, b + 1)
                                 : std::numeric_limits<float>::quiet_NaN();
            float fallback;
            if (std::isfinite(lo) && std::isfinite(hi)) {
              fallback = 0.5f * (lo + hi);
            } else if (std::isfinite(lo)) {
              fallback = lo;
            } else {
              fallback = hi;
            }
            if (std::isfinite(fallback) &&
                intervals[b].contains(static_cast<double>(fallback))) {
              cube(x, y, b) = fallback;
              ++lane_median[lane];
            }
          }
        }
      }
    }
  });
  for (std::size_t l = 0; l < lanes; ++l) {
    report.out_of_bounds += lane_oob[l];
    report.bit_corrected += lane_bit[l];
    report.median_replaced += lane_median[l];
  }
  return report;
}

AlgoOtisReport AlgoOtis::preprocess(
    common::Cube<float>& cube, std::span<const double> wavelengths_um) const {
  if (wavelengths_um.size() != cube.depth()) {
    throw std::invalid_argument("AlgoOtis: wavelengths/bands mismatch");
  }
  AlgoOtisReport total;
  PlaneScratch scratch;
  for (std::size_t b = 0; b < cube.depth(); ++b) {
    auto img = cube.plane_image(b);
    const AlgoOtisReport r =
        preprocess_plane_with(config_, img, wavelengths_um[b], scratch);
    cube.set_plane(b, img);
    total.pixels_examined += r.pixels_examined;
    total.out_of_bounds += r.out_of_bounds;
    total.outliers += r.outliers;
    total.trend_protected += r.trend_protected;
    total.bit_corrected += r.bit_corrected;
    total.median_replaced += r.median_replaced;
  }
  return total;
}

}  // namespace spacefts::core
