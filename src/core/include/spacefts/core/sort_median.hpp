/// \file sort_median.hpp
/// Branchless small-array sorting for the plausibility gate's median.
///
/// The per-series gate (algo_ngst.cpp) needs the median of the up to Υ partner
/// values it gathered for one correction candidate; the vector kernels
/// (kernel_engine.hpp) run the same networks on whole lane groups.  The
/// original insertion sort is data-dependent in both trip count and branch
/// pattern; on the hot sparse-correction path that shows up as mispredicts.
/// For the two production Υ values the partner count is almost always
/// exactly 4 or 8 (fewer only within Υ/2 samples of a series boundary), so
/// those counts get fixed compare-exchange networks — Batcher's odd-even
/// merge for 8 (19 exchanges), the optimal 5-exchange network for 4 — whose
/// exchange sequence is independent of the data.  Each compare-exchange is
/// a min/max pair, which the compiler lowers to conditional moves.
///
/// Bit-identity: every path fully sorts the array, and a sorted multiset is
/// unique, so `v[count / 2]` is the same element whichever path ran.  The
/// insertion-sort fallback stays for the boundary counts (and as the
/// reference the microbench and tests compare against).
#pragma once

#include <cstddef>
#include <cstdint>

namespace spacefts::core {

namespace detail {

/// One compare-exchange: after the call v[a] <= v[b].  min/max compile to
/// branchless cmov/pminuw-style code on every target this repo builds for.
inline void cswap(std::uint16_t& a, std::uint16_t& b) noexcept {
  const std::uint16_t lo = a < b ? a : b;
  const std::uint16_t hi = a < b ? b : a;
  a = lo;
  b = hi;
}

}  // namespace detail

/// Reference implementation (and fallback for boundary-truncated partner
/// lists): plain insertion sort, exactly the loop the gate always used.
inline void insertion_sort_u16(std::uint16_t* v, std::size_t count) noexcept {
  for (std::size_t a = 1; a < count; ++a) {
    const std::uint16_t key = v[a];
    std::size_t b = a;
    while (b > 0 && key < v[b - 1]) {
      v[b] = v[b - 1];
      --b;
    }
    v[b] = key;
  }
}

/// Optimal 4-element network (5 exchanges), as a sequence of
/// compare-exchange calls cx(a, b) that leave element a <= element b.  The
/// lane-parallel gate (kernel_engine.hpp) runs the same sequence on whole
/// lane groups.
template <class CompareExchange>
inline void sort4_network(CompareExchange&& cx) {
  cx(0, 1);
  cx(2, 3);
  cx(0, 2);
  cx(1, 3);
  cx(1, 2);
}

/// Batcher odd-even merge network for 8 elements (19 exchanges).
template <class CompareExchange>
inline void sort8_network(CompareExchange&& cx) {
  cx(0, 1);
  cx(2, 3);
  cx(4, 5);
  cx(6, 7);
  cx(0, 2);
  cx(1, 3);
  cx(4, 6);
  cx(5, 7);
  cx(1, 2);
  cx(5, 6);
  cx(0, 4);
  cx(1, 5);
  cx(2, 6);
  cx(3, 7);
  cx(2, 4);
  cx(3, 5);
  cx(1, 2);
  cx(3, 4);
  cx(5, 6);
}

/// Data-oblivious ascending sort of \p count elements through \p cx: the
/// fixed networks above for 4 and 8, otherwise the insertion network (the
/// insertion sort with every adjacent exchange made unconditionally,
/// count·(count−1)/2 exchanges).
template <class CompareExchange>
inline void sort_network(std::size_t count, CompareExchange&& cx) {
  if (count == 4) return sort4_network(cx);
  if (count == 8) return sort8_network(cx);
  for (std::size_t a = 1; a < count; ++a) {
    for (std::size_t b = a; b > 0; --b) cx(b - 1, b);
  }
}

inline void sort4_network(std::uint16_t* v) noexcept {
  sort4_network([v](int a, int b) { detail::cswap(v[a], v[b]); });
}

inline void sort8_network(std::uint16_t* v) noexcept {
  sort8_network([v](int a, int b) { detail::cswap(v[a], v[b]); });
}

/// Sorts \p v ascending: fixed networks for the production partner counts
/// (4, 8), insertion sort otherwise.  Equivalent to insertion_sort_u16 for
/// every input — a full sort of the same multiset yields the same array.
inline void sort_small_u16(std::uint16_t* v, std::size_t count) noexcept {
  switch (count) {
    case 4:
      sort4_network(v);
      return;
    case 8:
      sort8_network(v);
      return;
    default:
      insertion_sort_u16(v, count);
      return;
  }
}

}  // namespace spacefts::core
