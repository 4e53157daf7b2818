/// \file stats.hpp
/// Small descriptive-statistics helpers used by the cosmic-ray rejection,
/// the dataset tests, and the benchmark ledger.
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

/// The k-th smallest element (0-based) of \p values, which must have the
/// sign bit clear and not be NaN (magnitudes as std::abs returns them;
/// +inf is allowed).  Selects in place, reordering \p values: such floats
/// order like their bit patterns, so a most-significant-byte-first radix
/// select narrows the candidates with branch-free counting and compaction.
/// \throws std::out_of_range if k >= values.size().
[[nodiscard]] float kth_smallest_nonnegative(std::span<float> values,
                                             std::size_t k);

/// Linear-interpolated percentile, p in [0, 100].
/// \throws std::invalid_argument for an empty input or p outside [0,100].
[[nodiscard]] double percentile(std::span<const double> values, double p);

}  // namespace spacefts::common
