/// \file aggregate.hpp
/// Streaming scalar aggregation for campaign statistics.
///
/// The fault-injection campaign runner folds per-trial observables
/// (coverage, makespan, correction rate, …) into per-cell summaries.  The
/// accumulator is order-sensitive only in the usual floating-point sense;
/// the campaign feeds it in a fixed trial order, so summaries are
/// bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <limits>

namespace spacefts::metrics {

/// Running count / mean / min / max of a scalar stream.
class RunningStats {
 public:
  void add(double value) noexcept {
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Min/max of the values seen; 0 for an empty stream.
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace spacefts::metrics
