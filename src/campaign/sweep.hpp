/// \file sweep.hpp
/// What every campaign family shares: grid-axis validation and the seeded
/// slot runner.
///
/// The grid families (the fault campaign, the downlink sweep) fly `trials`
/// trials per cell through run_trials: one preassigned slot per (cell,
/// trial), each trial seeded by derive_stream_seed(seed, cell, trial) —
/// never by scheduling — and the slots handed back in grid order for the
/// family's serial fold, so every artifact is bit-identical for any thread
/// count.  The compute and drift families keep their own loops and share
/// check_axis only: compute's cells deliberately share fixed fault and
/// shadow streams, and drift's arms are serve-tier runs with their own
/// worker pools.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "spacefts/common/parallel.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::campaign {

/// \throws std::invalid_argument("<who>: empty axis <name>") for an empty
/// \p axis, or "<who>: <name> value out of range" for a value outside
/// [lo, hi] (NaN included).
inline void check_axis(const std::vector<double>& axis, const char* who,
                       const char* name, double lo, double hi) {
  if (axis.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty axis " + name);
  }
  for (const double v : axis) {
    if (!(v >= lo && v <= hi)) {
      throw std::invalid_argument(std::string(who) + ": " + name +
                                  " value out of range");
    }
  }
}

/// Flies trial(cell, seed) for every (cell, trial) of a \p cells ×
/// \p trials grid on up to \p threads lanes (0 = all) and returns the
/// records cell-major, trial-minor.
template <typename Trial>
auto run_trials(std::size_t cells, std::size_t trials, std::uint64_t seed,
                std::size_t threads, const Trial& trial) {
  std::vector<std::invoke_result_t<const Trial&, std::size_t, std::uint64_t>>
      records(cells * trials);
  common::parallel::parallel_for(
      records.size(), 1, common::parallel::resolve_threads(threads),
      [&](std::size_t begin, std::size_t end, std::size_t /*lane*/) {
        for (std::size_t i = begin; i < end; ++i) {
          records[i] = trial(i / trials, common::derive_stream_seed(
                                             seed, i / trials, i % trials));
        }
      });
  return records;
}

}  // namespace spacefts::campaign
