#include "spacefts/ngst/cr_reject.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "spacefts/common/stats.hpp"

namespace spacefts::ngst {
namespace {

/// Difference-outlier cut, in robust σ.
constexpr double kThresholdSigmas = 5.0;
/// Scale floor (counts) so a perfectly quiet ramp cannot reject everything.
constexpr double kMinSigma = 8.0;

}  // namespace

IntegrationResult reject_and_integrate(
    const common::TemporalStack<std::uint16_t>& readouts) {
  const std::size_t frames = readouts.frames();
  if (frames < 3) {
    throw std::invalid_argument("reject_and_integrate: need >= 3 frames");
  }
  IntegrationResult out{
      common::Image<float>(readouts.width(), readouts.height()),
      common::Image<std::uint8_t>(readouts.width(), readouts.height(), 0),
      0,
  };
  std::vector<double> diffs(frames - 1);
  std::vector<double> deviations(frames - 1);
  for (std::size_t y = 0; y < readouts.height(); ++y) {
    for (std::size_t x = 0; x < readouts.width(); ++x) {
      for (std::size_t t = 0; t + 1 < frames; ++t) {
        diffs[t] = static_cast<double>(readouts(x, y, t + 1)) -
                   static_cast<double>(readouts(x, y, t));
      }
      const double med = common::median(diffs);
      for (std::size_t t = 0; t < diffs.size(); ++t) {
        deviations[t] = std::abs(diffs[t] - med);
      }
      // 1.4826 * MAD estimates σ for Gaussian noise.
      const double sigma =
          std::max(1.4826 * common::median(deviations), kMinSigma);
      double sum = 0.0;
      std::size_t kept = 0;
      bool flagged = false;
      for (double d : diffs) {
        if (std::abs(d - med) > kThresholdSigmas * sigma) {
          ++out.rejected_differences;
          flagged = true;
          continue;
        }
        sum += d;
        ++kept;
      }
      out.flux(x, y) = kept ? static_cast<float>(sum / static_cast<double>(kept))
                            : static_cast<float>(med);
      if (flagged) out.cr_flagged(x, y) = 1;
    }
  }
  return out;
}

namespace {

/// Least-squares slope of readouts[lo..hi] against frame index; for a
/// segment of two points this is the single difference.
[[nodiscard]] double segment_slope(std::span<const double> values,
                                   std::size_t lo, std::size_t hi) {
  const std::size_t n = hi - lo + 1;
  if (n < 2) return 0.0;
  double sum_t = 0.0, sum_v = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    sum_t += static_cast<double>(i);
    sum_v += values[i];
  }
  const double mean_t = sum_t / static_cast<double>(n);
  const double mean_v = sum_v / static_cast<double>(n);
  double cov = 0.0, var = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    const double dt = static_cast<double>(i) - mean_t;
    cov += dt * (values[i] - mean_v);
    var += dt * dt;
  }
  return var > 0.0 ? cov / var : 0.0;
}

}  // namespace

IntegrationResult reject_segmented(
    const common::TemporalStack<std::uint16_t>& readouts) {
  const std::size_t frames = readouts.frames();
  if (frames < 3) {
    throw std::invalid_argument("reject_segmented: need >= 3 frames");
  }
  IntegrationResult out{
      common::Image<float>(readouts.width(), readouts.height()),
      common::Image<std::uint8_t>(readouts.width(), readouts.height(), 0),
      0,
  };
  std::vector<double> values(frames);
  std::vector<double> diffs(frames - 1);
  std::vector<double> deviations(frames - 1);
  std::vector<std::size_t> cuts;
  for (std::size_t y = 0; y < readouts.height(); ++y) {
    for (std::size_t x = 0; x < readouts.width(); ++x) {
      for (std::size_t t = 0; t < frames; ++t) {
        values[t] = static_cast<double>(readouts(x, y, t));
      }
      for (std::size_t t = 0; t + 1 < frames; ++t) {
        diffs[t] = values[t + 1] - values[t];
      }
      const double med = common::median(diffs);
      for (std::size_t t = 0; t < diffs.size(); ++t) {
        deviations[t] = std::abs(diffs[t] - med);
      }
      const double sigma =
          std::max(1.4826 * common::median(deviations), kMinSigma);
      // Jump positions: the ramp is cut *after* frame t when the step
      // t -> t+1 is an outlier.
      cuts.clear();
      for (std::size_t t = 0; t < diffs.size(); ++t) {
        if (std::abs(diffs[t] - med) > kThresholdSigmas * sigma) {
          cuts.push_back(t);
          ++out.rejected_differences;
        }
      }
      if (!cuts.empty()) out.cr_flagged(x, y) = 1;
      // Weighted per-segment least-squares slopes.
      double weighted = 0.0;
      double weight = 0.0;
      std::size_t lo = 0;
      for (std::size_t c = 0; c <= cuts.size(); ++c) {
        const std::size_t hi = c < cuts.size() ? cuts[c] : frames - 1;
        if (hi > lo) {
          const double n = static_cast<double>(hi - lo + 1);
          weighted += segment_slope(values, lo, hi) * (n - 1.0);
          weight += n - 1.0;
        }
        lo = hi + 1;
      }
      out.flux(x, y) = weight > 0.0 ? static_cast<float>(weighted / weight)
                                    : static_cast<float>(med);
    }
  }
  return out;
}

common::Image<float> integrate_naive(
    const common::TemporalStack<std::uint16_t>& readouts) {
  const std::size_t frames = readouts.frames();
  if (frames < 2) {
    throw std::invalid_argument("integrate_naive: need >= 2 frames");
  }
  common::Image<float> flux(readouts.width(), readouts.height());
  for (std::size_t y = 0; y < readouts.height(); ++y) {
    for (std::size_t x = 0; x < readouts.width(); ++x) {
      const double first = static_cast<double>(readouts(x, y, 0));
      const double last = static_cast<double>(readouts(x, y, frames - 1));
      flux(x, y) = static_cast<float>((last - first) /
                                      static_cast<double>(frames - 1));
    }
  }
  return flux;
}

}  // namespace spacefts::ngst
