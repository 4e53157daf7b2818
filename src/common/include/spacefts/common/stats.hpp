/// \file stats.hpp
/// Small descriptive-statistics helpers used by the dataset generators,
/// the dynamic thresholding in the preprocessing algorithms, and the
/// experiment harnesses.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace spacefts::common {

/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Population standard deviation; 0 for fewer than two values.
[[nodiscard]] double stddev(std::span<const double> values) noexcept;

/// Median (average of the two central elements for even sizes); 0 for an
/// empty input.  The input is copied, not reordered.
[[nodiscard]] double median(std::span<const double> values);

/// The k-th smallest element (0-based) of \p values.
/// \throws std::out_of_range if k >= values.size() or the input is empty.
[[nodiscard]] double kth_smallest(std::span<const double> values, std::size_t k);

/// Linear-interpolated percentile, p in [0, 100].
/// \throws std::invalid_argument for an empty input or p outside [0,100].
[[nodiscard]] double percentile(std::span<const double> values, double p);

}  // namespace spacefts::common
