#include "spacefts/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "spacefts/common/bitops.hpp"

namespace spacefts::common {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double sq = 0.0;
  for (double v : values) sq += (v - m) * (v - m);
  return std::sqrt(sq / static_cast<double>(values.size()));
}

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> copy(values.begin(), values.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(mid),
                   copy.end());
  const double hi = copy[mid];
  if (copy.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

float kth_smallest_nonnegative(std::span<float> values, std::size_t k) {
  if (k >= values.size()) {
    throw std::out_of_range("kth_smallest_nonnegative: k out of range");
  }
  std::size_t n = values.size();
  for (int shift = 24; shift >= 0 && n > 1; shift -= 8) {
    const auto digit_of = [shift](float v) {
      return (float_to_bits(v) >> shift) & 0xFFu;
    };
    std::size_t counts[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++counts[digit_of(values[i])];
    std::uint32_t digit = 0;
    while (k >= counts[digit]) k -= counts[digit++];
    if (counts[digit] == n) continue;  // nothing to narrow
    // Keep the candidates with this digit, in order; k is now their rank.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = values[i];
      values[kept] = v;
      kept += digit_of(v) == digit ? 1 : 0;
    }
    n = kept;
  }
  // One candidate left, or all of them share every bit.
  return values[0];
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  if (copy.size() == 1) return copy[0];
  const double rank = p / 100.0 * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= copy.size()) return copy.back();
  return copy[lo] + frac * (copy[lo + 1] - copy[lo]);
}

}  // namespace spacefts::common
