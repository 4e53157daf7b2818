#include "spacefts/check/oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "spacefts/common/bitops.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/otis/bounds.hpp"
#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"

namespace spacefts::check {

namespace {

// ---------------------------------------------------------------- Algo_NGST

/// One pairing distance, built with a full sort (Algorithm 1, steps 1–2).
struct OracleWay {
  std::size_t distance = 0;
  std::vector<std::uint16_t> xors;
  std::uint16_t v_val = 0;
};

/// [R3] Window delimiter: keep the bits strictly above the threshold's
/// octave; a zero threshold keeps every bit, a saturated one only the top.
[[nodiscard]] std::uint16_t ngst_mask_from(std::uint16_t v) {
  if (v == 0) return 0xFFFF;
  if (v >= 0x8000) return 0x8000;
  return static_cast<std::uint16_t>(
      ~static_cast<std::uint16_t>(static_cast<std::uint16_t>(v << 1) - 1));
}

/// [R4] Per-bit tally: a bit flips on unanimity anywhere inside the LSB
/// window, or on an (n−1)-of-n vote inside window A (≥ 3 voters); window C
/// bits never flip.
[[nodiscard]] std::uint16_t oracle_correction(
    const std::vector<std::uint16_t>& voters, std::uint16_t lsb_mask,
    std::uint16_t msb_mask) {
  if (voters.size() < 2) return 0;
  std::uint16_t corr = 0;
  for (unsigned bit = 0; bit < 16; ++bit) {
    const auto probe = static_cast<std::uint16_t>(1u << bit);
    std::size_t assenting = 0;
    for (std::uint16_t v : voters) {
      if (v & probe) ++assenting;
    }
    const bool unanimous = assenting == voters.size();
    const bool near_unanimous =
        voters.size() >= 3 && assenting + 1 >= voters.size();
    const bool in_window_a = (msb_mask & probe) != 0;
    if (unanimous || (near_unanimous && in_window_a)) {
      corr = static_cast<std::uint16_t>(corr | probe);
    }
  }
  return static_cast<std::uint16_t>(corr & lsb_mask);
}

/// §3.1 carry-propagation gate: the corrected bit's weight must show up as
/// an arithmetic deviation from the median of the consulted neighbours.
[[nodiscard]] bool oracle_plausible(std::span<const std::uint16_t> series,
                                    std::size_t i,
                                    const std::vector<OracleWay>& ways,
                                    std::uint16_t corr) {
  std::vector<std::uint16_t> partners;
  const std::size_t n = series.size();
  for (const OracleWay& way : ways) {
    const std::size_t d = way.distance;
    if (i + d < n) partners.push_back(series[i + d]);
    if (i >= d) partners.push_back(series[i - d]);
  }
  if (partners.empty()) return false;
  std::sort(partners.begin(), partners.end());
  const std::int32_t med = partners[partners.size() / 2];
  const std::int32_t dev = std::abs(static_cast<std::int32_t>(series[i]) - med);
  const std::int32_t top_weight = std::int32_t{1}
                                  << common::msb_index(corr);
  return 4 * dev >= 3 * top_weight;
}

// ---------------------------------------------------------------- Algo_OTIS

enum class OracleState : std::uint8_t { kClean = 0, kProtected, kCandidate };

/// Median of the finite 3x3 neighbourhood; NaN when it is empty.
[[nodiscard]] float oracle_local_median(const common::Image<float>& img,
                                        std::size_t x, std::size_t y) {
  std::vector<float> window;
  for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
    for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x) + dx;
      const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(y) + dy;
      if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(img.width()) ||
          ny >= static_cast<std::ptrdiff_t>(img.height())) {
        continue;
      }
      const float v = img(static_cast<std::size_t>(nx),
                          static_cast<std::size_t>(ny));
      if (std::isfinite(v)) window.push_back(v);
    }
  }
  if (window.empty()) return std::numeric_limits<float>::quiet_NaN();
  std::sort(window.begin(), window.end());
  return window[window.size() / 2];
}

struct OracleSpatialWay {
  std::ptrdiff_t dx = 0;
  std::ptrdiff_t dy = 0;
  std::uint32_t v_val = 0;
};

// --------------------------------------------------------------------- Rice

/// MSB-first bits, one per step, with the codec's error messages.
struct OracleBits {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  bool bit() {
    if (pos >= bytes.size() * 8) {
      throw rice::BitstreamError("BitReader: past end of stream");
    }
    const bool b = (bytes[pos / 8] >> (7 - pos % 8)) & 1;
    ++pos;
    return b;
  }
  std::uint64_t bits(unsigned count) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < count; ++i) v = (v << 1) | std::uint64_t{bit()};
    return v;
  }
  std::uint64_t unary(std::uint64_t max_run) {
    std::uint64_t run = 0;
    while (bit()) {
      if (++run > max_run) {
        throw rice::BitstreamError("BitReader: unary run exceeds bound");
      }
    }
    return run;
  }
};

}  // namespace

std::vector<std::uint8_t> oracle_rice_encode(
    std::span<const std::uint16_t> samples) {
  constexpr unsigned kEscape = 31;
  constexpr unsigned kMaxK = 16;
  std::vector<bool> bits;
  const auto put = [&bits](std::uint64_t value, unsigned count) {
    for (unsigned i = count; i-- > 0;) bits.push_back((value >> i) & 1);
  };
  std::uint16_t previous = 0;
  for (std::size_t begin = 0; begin < samples.size();
       begin += rice::kBlockSamples) {
    const std::size_t len =
        std::min(rice::kBlockSamples, samples.size() - begin);
    // Zigzag: non-negative deltas to even codes, negative ones to odd.
    std::vector<std::uint64_t> mapped;
    for (std::size_t j = begin; j < begin + len; ++j) {
      const std::int64_t delta =
          std::int64_t{samples[j]} - std::int64_t{previous};
      mapped.push_back(delta >= 0 ? 2 * static_cast<std::uint64_t>(delta)
                                  : 2 * static_cast<std::uint64_t>(-delta) - 1);
      previous = samples[j];
    }
    unsigned best_k = 0;
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    for (unsigned k = 0; k <= kMaxK; ++k) {
      std::uint64_t cost = 0;
      for (const std::uint64_t m : mapped) cost += (m >> k) + 1 + k;
      if (cost < best_cost) {
        best_cost = cost;
        best_k = k;
      }
    }
    if (len * 16 < best_cost) {
      put(kEscape, 5);
      for (std::size_t j = begin; j < begin + len; ++j) put(samples[j], 16);
      continue;
    }
    put(best_k, 5);
    for (const std::uint64_t m : mapped) {
      for (std::uint64_t q = m >> best_k; q > 0; --q) bits.push_back(true);
      bits.push_back(false);
      put(m, best_k);
    }
  }
  // MSB first, the last byte zero-padded.
  std::vector<std::uint8_t> out((bits.size() + 7) / 8);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  return out;
}

std::vector<std::uint16_t> oracle_rice_decode(
    std::span<const std::uint8_t> stream, std::size_t count) {
  constexpr std::uint64_t kEscape = 31;
  constexpr std::uint64_t kMaxK = 16;
  // zigzag(±65535): the largest residual a legal stream can carry.
  constexpr std::uint64_t kMaxMapped = 131070;
  OracleBits in{stream};
  std::vector<std::uint16_t> out;
  std::uint16_t previous = 0;
  while (out.size() < count) {
    const std::uint64_t k = in.bits(5);
    if (k != kEscape && k > kMaxK) {
      throw rice::BitstreamError("decompress16: invalid k");
    }
    const std::size_t len = std::min(rice::kBlockSamples, count - out.size());
    for (std::size_t j = 0; j < len; ++j) {
      if (k == kEscape) {
        previous = static_cast<std::uint16_t>(in.bits(16));
      } else {
        const std::uint64_t quotient = in.unary(kMaxMapped >> k);
        const std::uint64_t mapped =
            (quotient << k) | in.bits(static_cast<unsigned>(k));
        // Even codes are non-negative deltas, odd ones negative.
        const std::int64_t delta =
            mapped % 2 == 0 ? static_cast<std::int64_t>(mapped / 2)
                            : -static_cast<std::int64_t>((mapped + 1) / 2);
        previous = static_cast<std::uint16_t>(previous + delta);
      }
      out.push_back(previous);
    }
  }
  return out;
}

std::uint32_t oracle_crc32(std::span<const std::uint8_t> bytes,
                           std::uint32_t crc) {
  // The CRC register is the bit reversal of the reflected one that crc32
  // hands out (inverted before and after).  Each byte enters least
  // significant bit first; a bit that differs from the register's top bit
  // subtracts the polynomial.
  constexpr std::uint32_t kPoly = 0x04C11DB7;
  const auto reverse = [](std::uint32_t v) {
    std::uint32_t r = 0;
    for (int i = 0; i < 32; ++i) r |= ((v >> i) & 1u) << (31 - i);
    return r;
  };
  std::uint32_t reg = reverse(~crc);
  for (const std::uint8_t byte : bytes) {
    for (int i = 0; i < 8; ++i) {
      const bool in = ((byte >> i) & 1u) != 0;
      const bool top = (reg >> 31) != 0;
      reg <<= 1;
      if (in != top) reg ^= kPoly;
    }
  }
  return ~reverse(reg);
}

core::AlgoNgstReport oracle_ngst_series(std::span<std::uint16_t> series,
                                        const core::AlgoNgstConfig& config) {
  core::AlgoNgstReport report;
  report.pixels_examined = series.size();
  // Λ = 0 is header-sanity-only; fewer than three readouts leave no
  // meaningful neighbourhood (§3.2).
  if (config.lambda <= 0.0 || series.size() < 3) return report;

  const std::size_t n = series.size();
  const std::size_t way_count = std::min(config.upsilon / 2, n - 1);
  std::vector<OracleWay> ways(way_count);
  for (std::size_t d = 1; d <= way_count; ++d) {
    OracleWay& way = ways[d - 1];
    way.distance = d;
    way.xors.resize(n - d);
    for (std::size_t i = 0; i + d < n; ++i) {
      way.xors[i] = static_cast<std::uint16_t>(series[i] ^ series[i + d]);
    }
    std::vector<std::uint16_t> sorted(way.xors);
    std::sort(sorted.begin(), sorted.end());
    const std::size_t rank = core::prune_rank(sorted.size(), config.lambda);
    const std::uint16_t quantile = sorted[rank];
    way.v_val = quantile == 0 ? std::uint16_t{0} : common::ceil_pow2(quantile);
  }
  if (ways.empty()) return report;

  std::uint16_t min_vval = 0xFFFF;
  std::uint16_t max_vval = 0;
  for (const OracleWay& way : ways) {
    min_vval = std::min(min_vval, way.v_val);
    max_vval = std::max(max_vval, way.v_val);
  }
  const std::uint16_t lsb_mask =
      config.enable_windows ? ngst_mask_from(min_vval) : std::uint16_t{0xFFFF};
  const std::uint16_t msb_mask =
      config.enable_windows ? ngst_mask_from(max_vval) : std::uint16_t{0};
  report.lsb_mask = lsb_mask;
  report.msb_mask = msb_mask;

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint16_t> voters;
    for (const OracleWay& way : ways) {
      const std::size_t d = way.distance;
      const auto surviving = [&](std::size_t j) -> std::uint16_t {
        const std::uint16_t x = way.xors[j];
        if (!config.enable_pruning) return x;
        return x > way.v_val ? x : std::uint16_t{0};
      };
      if (i + d < n) voters.push_back(surviving(i));
      if (i >= d) voters.push_back(surviving(i - d));
    }
    const std::uint16_t corr = oracle_correction(voters, lsb_mask, msb_mask);
    if (corr != 0) {
      if (config.enable_plausibility_gate &&
          !oracle_plausible(series, i, ways, corr)) {
        ++report.pixels_vetoed;
      } else {
        series[i] = static_cast<std::uint16_t>(series[i] ^ corr);
        ++report.pixels_corrected;
        report.bits_corrected += static_cast<std::size_t>(std::popcount(corr));
      }
    }
  }
  return report;
}

core::AlgoNgstReport oracle_ngst_stack(
    common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config) {
  core::AlgoNgstReport total;
  if (stack.width() == 0 || stack.height() == 0 || stack.frames() == 0) {
    return total;
  }
  for (std::size_t y = 0; y < stack.height(); ++y) {
    for (std::size_t x = 0; x < stack.width(); ++x) {
      std::vector<std::uint16_t> series = stack.series(x, y);
      const core::AlgoNgstReport r = oracle_ngst_series(series, config);
      stack.set_series(x, y, series);
      total.pixels_examined += r.pixels_examined;
      total.pixels_corrected += r.pixels_corrected;
      total.bits_corrected += r.bits_corrected;
      total.pixels_vetoed += r.pixels_vetoed;
      total.lsb_mask = r.lsb_mask;
      total.msb_mask = r.msb_mask;
    }
  }
  return total;
}

core::AlgoOtisReport oracle_otis_plane(common::Image<float>& plane,
                                       double wavelength_um,
                                       const core::AlgoOtisConfig& config) {
  core::AlgoOtisReport report;
  report.pixels_examined = plane.size();
  if (config.lambda <= 0.0 || plane.width() < 3 || plane.height() < 3) {
    return report;
  }
  const std::size_t w = plane.width();
  const std::size_t h = plane.height();
  const otis::RadianceInterval interval =
      otis::PhysicalBounds::global().radiance_interval(wavelength_um);

  // Phase 1: classification.  Hypothesis (2) marks every value outside the
  // grey-body envelope; the rest contribute residuals against their local
  // median for the robust scale estimate.
  common::Image<std::uint8_t> state(w, h,
                                    static_cast<std::uint8_t>(OracleState::kClean));
  common::Image<float> medians(w, h, 0.0f);
  common::Image<float> residuals(w, h, 0.0f);
  std::vector<double> abs_residuals;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const float v = plane(x, y);
      const bool in_bounds =
          std::isfinite(v) && (!config.enable_bounds ||
                               interval.contains(static_cast<double>(v)));
      const float m = oracle_local_median(plane, x, y);
      medians(x, y) = m;
      if (!in_bounds) {
        state(x, y) = static_cast<std::uint8_t>(OracleState::kCandidate);
        ++report.out_of_bounds;
        residuals(x, y) = std::numeric_limits<float>::quiet_NaN();
        continue;
      }
      const float r = std::isfinite(m) ? v - m : 0.0f;
      residuals(x, y) = r;
      abs_residuals.push_back(std::abs(static_cast<double>(r)));
    }
  }
  // 30th percentile of |r|, rescaled to a Gaussian σ (P30(|r|) = 0.385 σ).
  double sigma_est = 0.0;
  if (!abs_residuals.empty()) {
    const auto rank = static_cast<std::size_t>(
        0.3 * static_cast<double>(abs_residuals.size()));
    std::vector<double> sorted(abs_residuals);
    std::sort(sorted.begin(), sorted.end());
    sigma_est = sorted[std::min(rank, sorted.size() - 1)] / 0.385;
  }
  const double factor =
      core::kOutlierBaseFactor * (1.0 + (100.0 - config.lambda) / 50.0);
  const double tau = std::max(factor * sigma_est, 1e-12);

  // Hypothesis (1): residual outliers whose neighbours share the deviation
  // are natural trends and stay protected.
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (state(x, y) != static_cast<std::uint8_t>(OracleState::kClean)) {
        continue;
      }
      const float r = residuals(x, y);
      if (std::abs(static_cast<double>(r)) <= tau) continue;
      ++report.outliers;
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
            const double rmag = std::abs(static_cast<double>(r));
            if (std::abs(ndev) >= 0.5 * rmag && std::abs(ndev) <= 2.5 * rmag &&
                std::signbit(static_cast<float>(ndev)) == std::signbit(r)) {
              ++allies;
            }
          }
        }
        if (allies >= core::kTrendNeighbors) {
          state(x, y) = static_cast<std::uint8_t>(OracleState::kProtected);
          ++report.trend_protected;
          continue;
        }
      }
      state(x, y) = static_cast<std::uint8_t>(OracleState::kCandidate);
    }
  }

  // Phase 2: per-way bit thresholds from clean pixel pairs [R5].
  std::vector<OracleSpatialWay> ways;
  for (std::size_t k = 1; k <= config.upsilon / 2; ++k) {
    const auto dist = static_cast<std::ptrdiff_t>((k + 1) / 2);
    if (k % 2 == 1) {
      ways.push_back(OracleSpatialWay{dist, 0, 0});
    } else {
      ways.push_back(OracleSpatialWay{0, dist, 0});
    }
  }
  const auto is_clean = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
    return x >= 0 && y >= 0 && x < static_cast<std::ptrdiff_t>(w) &&
           y < static_cast<std::ptrdiff_t>(h) &&
           state(static_cast<std::size_t>(x), static_cast<std::size_t>(y)) ==
               static_cast<std::uint8_t>(OracleState::kClean);
  };
  std::uint32_t min_vval = 0xFFFFFFFFu;
  std::uint32_t max_vval = 0;
  bool have_thresholds = true;
  for (OracleSpatialWay& way : ways) {
    std::vector<std::uint32_t> xors;
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const auto nx = static_cast<std::ptrdiff_t>(x) + way.dx;
        const auto ny = static_cast<std::ptrdiff_t>(y) + way.dy;
        if (!is_clean(static_cast<std::ptrdiff_t>(x),
                      static_cast<std::ptrdiff_t>(y)) ||
            !is_clean(nx, ny)) {
          continue;
        }
        xors.push_back(common::float_to_bits(plane(x, y)) ^
                       common::float_to_bits(
                           plane(static_cast<std::size_t>(nx),
                                 static_cast<std::size_t>(ny))));
      }
    }
    if (xors.size() < 8) {
      have_thresholds = false;
      break;
    }
    const std::size_t rank = core::prune_rank(xors.size(), config.lambda);
    std::sort(xors.begin(), xors.end());
    const std::uint32_t q = xors[rank];
    way.v_val = q == 0 ? 0u : common::ceil_pow2(q);
    min_vval = std::min(min_vval, way.v_val);
    max_vval = std::max(max_vval, way.v_val);
  }
  const auto mask_from = [](std::uint32_t v) -> std::uint32_t {
    return v <= 1 ? 0xFFFFFFFFu : ~(v - 1);
  };
  const std::uint32_t lsb_mask = have_thresholds ? mask_from(min_vval) : 0;
  const std::uint32_t msb_mask = have_thresholds ? mask_from(max_vval) : 0;

  // Phase 3: Jacobi-style vote reading an immutable snapshot, so no pixel's
  // repair depends on sweep order.
  const common::Image<float> source = plane;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (state(x, y) == static_cast<std::uint8_t>(OracleState::kProtected)) {
        continue;
      }
      const bool candidate =
          state(x, y) == static_cast<std::uint8_t>(OracleState::kCandidate);
      const float original = source(x, y);
      const float fallback = medians(x, y);

      if (have_thresholds) {
        std::vector<std::uint32_t> voters;
        const std::uint32_t self = common::float_to_bits(original);
        for (const OracleSpatialWay& way : ways) {
          for (int sign : {+1, -1}) {
            const auto nx = static_cast<std::ptrdiff_t>(x) + sign * way.dx;
            const auto ny = static_cast<std::ptrdiff_t>(y) + sign * way.dy;
            if (!is_clean(nx, ny)) continue;
            const std::uint32_t xr =
                self ^ common::float_to_bits(
                           source(static_cast<std::size_t>(nx),
                                  static_cast<std::size_t>(ny)));
            voters.push_back(xr > way.v_val ? xr : 0u);
          }
        }
        // The shared [R4] combination rule, naive per-bit form.
        std::uint32_t corr = 0;
        if (voters.size() >= 2) {
          for (unsigned bit = 0; bit < 32; ++bit) {
            const std::uint32_t probe = 1u << bit;
            std::size_t assenting = 0;
            for (std::uint32_t v : voters) {
              if (v & probe) ++assenting;
            }
            const bool unanimous = assenting == voters.size();
            const bool near_unanimous =
                voters.size() >= 3 && assenting + 1 >= voters.size();
            if (unanimous || (near_unanimous && (msb_mask & probe) != 0)) {
              corr |= probe;
            }
          }
          corr &= lsb_mask;
        }
        if (corr != 0) {
          const float cand = common::bits_to_float(self ^ corr);
          const bool physical =
              std::isfinite(cand) &&
              (!config.enable_bounds ||
               interval.contains(static_cast<double>(cand)));
          const bool converges =
              std::isfinite(fallback) &&
              (!std::isfinite(original) ||
               std::abs(static_cast<double>(cand) -
                        static_cast<double>(fallback)) <
                   std::abs(static_cast<double>(original) -
                            static_cast<double>(fallback)));
          if (physical && converges) {
            plane(x, y) = cand;
            ++report.bit_corrected;
          }
        }
      }

      if (candidate && std::isfinite(fallback)) {
        const float now = plane(x, y);
        const bool conforming =
            std::isfinite(now) &&
            (!config.enable_bounds ||
             interval.contains(static_cast<double>(now))) &&
            std::abs(static_cast<double>(now) -
                     static_cast<double>(fallback)) <= 2.0 * tau;
        if (!conforming) {
          plane(x, y) = fallback;
          ++report.median_replaced;
        }
      }
    }
  }
  return report;
}

core::AlgoOtisReport oracle_otis_cube(common::Cube<float>& cube,
                                      std::span<const double> wavelengths_um,
                                      const core::AlgoOtisConfig& config) {
  if (wavelengths_um.size() != cube.depth()) {
    throw std::invalid_argument("oracle_otis_cube: wavelengths/bands mismatch");
  }
  core::AlgoOtisReport total;
  for (std::size_t b = 0; b < cube.depth(); ++b) {
    auto img = cube.plane_image(b);
    const core::AlgoOtisReport r =
        oracle_otis_plane(img, wavelengths_um[b], config);
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

}  // namespace spacefts::check
