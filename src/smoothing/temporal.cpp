#include "spacefts/smoothing/temporal.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace spacefts::smoothing {

namespace {

[[nodiscard]] std::uint16_t median3(std::uint16_t a, std::uint16_t b,
                                    std::uint16_t c) noexcept {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

void require_odd_width(std::size_t width) {
  if (width == 0 || width % 2 == 0) {
    throw std::invalid_argument("smoothing: window width must be odd and > 0");
  }
}

}  // namespace

void median_smooth3(std::span<std::uint16_t> data, bool recursive) {
  const std::size_t n = data.size();
  if (n < 3) return;
  if (recursive) {
    // Paper-literal in-place reading.
    data[0] = median3(data[0], data[1], data[2]);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      data[i] = median3(data[i - 1], data[i], data[i + 1]);
    }
    data[n - 1] = median3(data[n - 3], data[n - 2], data[n - 1]);
    return;
  }
  const std::vector<std::uint16_t> src(data.begin(), data.end());
  data[0] = median3(src[0], src[1], src[2]);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    data[i] = median3(src[i - 1], src[i], src[i + 1]);
  }
  data[n - 1] = median3(src[n - 3], src[n - 2], src[n - 1]);
}

void median_smooth(std::span<std::uint16_t> data, std::size_t width,
                   bool recursive) {
  require_odd_width(width);
  if (width == 3) {
    median_smooth3(data, recursive);
    return;
  }
  const std::size_t n = data.size();
  if (n < 2 || width == 1) return;
  const std::size_t half = width / 2;
  const std::vector<std::uint16_t> src(data.begin(), data.end());
  std::vector<std::uint16_t> window;
  window.reserve(width);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    window.clear();
    for (std::size_t j = lo; j <= hi; ++j) {
      window.push_back(recursive && j < i ? data[j] : src[j]);
    }
    // Lower median: with the window clipped to an even size at the ends, the
    // lower-middle element keeps the filter outlier-proof there too.
    const std::size_t mid = (window.size() - 1) / 2;
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(mid),
                     window.end());
    data[i] = window[mid];
  }
}

void mean_smooth(std::span<std::uint16_t> data, std::size_t width) {
  require_odd_width(width);
  const std::size_t n = data.size();
  if (n < 2 || width == 1) return;
  const std::size_t half = width / 2;
  const std::vector<std::uint16_t> src(data.begin(), data.end());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    std::uint64_t sum = 0;
    for (std::size_t j = lo; j <= hi; ++j) sum += src[j];
    data[i] = static_cast<std::uint16_t>(sum / (hi - lo + 1));
  }
}

void majority_bit_vote3(std::span<std::uint16_t> data) {
  const std::size_t n = data.size();
  if (n < 3) return;
  const std::vector<std::uint16_t> src(data.begin(), data.end());
  // Virtual neighbours per Algorithm 3: three distinct voters at each edge.
  const auto neighbour = [&](std::ptrdiff_t i) -> std::uint16_t {
    if (i < 0) return src[2];                          // P(0) = P(3)
    if (i >= static_cast<std::ptrdiff_t>(n)) return src[n - 3];  // P(N+1) = P(N-2)
    return src[static_cast<std::size_t>(i)];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t a = neighbour(static_cast<std::ptrdiff_t>(i) - 1);
    const std::uint16_t b = src[i];
    const std::uint16_t c = neighbour(static_cast<std::ptrdiff_t>(i) + 1);
    // Bitwise majority of three: (a&b) | (a&c) | (b&c).
    data[i] = static_cast<std::uint16_t>((a & b) | (a & c) | (b & c));
  }
}

void majority_bit_vote(std::span<std::uint16_t> data, std::size_t width) {
  require_odd_width(width);
  if (width == 3) {
    majority_bit_vote3(data);
    return;
  }
  const std::size_t n = data.size();
  if (n < 2 || width == 1) return;
  const std::size_t half = width / 2;
  const std::vector<std::uint16_t> src(data.begin(), data.end());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    const std::size_t voters = hi - lo + 1;
    std::uint16_t out = 0;
    for (unsigned bit = 0; bit < 16; ++bit) {
      std::size_t ones = 0;
      for (std::size_t j = lo; j <= hi; ++j) {
        ones += (src[j] >> bit) & 1u;
      }
      if (2 * ones > voters) out = static_cast<std::uint16_t>(out | (1u << bit));
    }
    data[i] = out;
  }
}

void running_average(std::span<std::uint16_t> data, std::size_t window) {
  if (window == 0) throw std::invalid_argument("running_average: zero window");
  const std::size_t n = data.size();
  const std::vector<std::uint16_t> src(data.begin(), data.end());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += src[i];
    if (i >= window) sum -= src[i - window];
    const std::size_t len = std::min(i + 1, window);
    data[i] = static_cast<std::uint16_t>(sum / len);
  }
}

void exponential_smooth(std::span<std::uint16_t> data, double alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("exponential_smooth: alpha outside (0, 1]");
  }
  if (data.empty()) return;
  double level = static_cast<double>(data[0]);
  for (std::size_t i = 1; i < data.size(); ++i) {
    level = alpha * static_cast<double>(data[i]) + (1.0 - alpha) * level;
    data[i] = static_cast<std::uint16_t>(level + 0.5);
  }
}

}  // namespace spacefts::smoothing
