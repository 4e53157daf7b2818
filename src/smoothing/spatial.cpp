#include "spacefts/smoothing/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "spacefts/common/bitops.hpp"

namespace spacefts::smoothing {

namespace {

/// Mirrors an index into [0, n).
[[nodiscard]] std::size_t mirror(std::ptrdiff_t i, std::size_t n) noexcept {
  if (i < 0) return static_cast<std::size_t>(-i);
  if (i >= static_cast<std::ptrdiff_t>(n)) {
    return 2 * n - 2 - static_cast<std::size_t>(i);
  }
  return static_cast<std::size_t>(i);
}

template <typename Fn>
void for_each_plane(common::Cube<float>& cube, Fn&& fn) {
  for (std::size_t z = 0; z < cube.depth(); ++z) {
    auto img = cube.plane_image(z);
    fn(img);
    cube.set_plane(z, img);
  }
}

}  // namespace

void median_smooth_2d(common::Image<float>& image) {
  const std::size_t w = image.width();
  const std::size_t h = image.height();
  if (w < 2 || h < 2) return;
  const common::Image<float> src = image;
  float window[9];
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      std::size_t count = 0;
      for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
        for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
          const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x) + dx;
          const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(y) + dy;
          if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(w) ||
              ny >= static_cast<std::ptrdiff_t>(h)) {
            continue;
          }
          window[count++] = src(static_cast<std::size_t>(nx),
                                static_cast<std::size_t>(ny));
        }
      }
      // NaNs sort last so a corrupted neighbour can never be the median of
      // a mostly clean window.  Insertion sort: count <= 9.
      const auto nan_less = [](float a, float b) {
        if (std::isnan(a)) return false;
        if (std::isnan(b)) return true;
        return a < b;
      };
      for (std::size_t i = 1; i < count; ++i) {
        const float key = window[i];
        std::size_t j = i;
        while (j > 0 && nan_less(key, window[j - 1])) {
          window[j] = window[j - 1];
          --j;
        }
        window[j] = key;
      }
      image(x, y) = window[count / 2];
    }
  }
}

void majority_bit_vote_2d(common::Image<float>& image) {
  const std::size_t w = image.width();
  const std::size_t h = image.height();
  if (w < 3 || h < 3) return;
  const common::Image<float> src = image;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::uint32_t voters[5] = {
          common::float_to_bits(src(x, y)),
          common::float_to_bits(src(mirror(static_cast<std::ptrdiff_t>(x) - 1, w), y)),
          common::float_to_bits(src(mirror(static_cast<std::ptrdiff_t>(x) + 1, w), y)),
          common::float_to_bits(src(x, mirror(static_cast<std::ptrdiff_t>(y) - 1, h))),
          common::float_to_bits(src(x, mirror(static_cast<std::ptrdiff_t>(y) + 1, h))),
      };
      std::uint32_t out = 0;
      for (unsigned bit = 0; bit < 32; ++bit) {
        unsigned ones = 0;
        for (std::uint32_t v : voters) ones += (v >> bit) & 1u;
        if (ones >= 3) out |= (1u << bit);
      }
      image(x, y) = common::bits_to_float(out);
    }
  }
}

void median_smooth_cube(common::Cube<float>& cube) {
  for_each_plane(cube, [](common::Image<float>& img) { median_smooth_2d(img); });
}

void majority_bit_vote_cube(common::Cube<float>& cube) {
  for_each_plane(cube,
                 [](common::Image<float>& img) { majority_bit_vote_2d(img); });
}

}  // namespace spacefts::smoothing
