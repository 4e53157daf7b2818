/// \file kernel_engine.hpp
/// The data-parallel voter engine, written once against a lane-ops policy
/// (`Ops`) and instantiated per kernel TU (SwarOps in kernel_swar.cpp,
/// Avx2Ops in kernel_avx2.cpp, Avx512Ops in kernel_avx512.cpp): the NGST
/// tile kernel, OTIS phase 1 (3x3 medians, bounds test, residuals) and
/// OTIS phases 2 + 3 (thresholds, vote).  Internal header — include only
/// from those TUs.  Its non-template helpers are `static inline`: each TU
/// keeps a private copy built with its own ISA flags, where a plain
/// `inline` one would be a weak symbol the linker may pick from an AVX
/// object for the SWAR path too (the isa_objects_export_no_weak ctest).
///
/// # Bit-identity to the serial reference
///
/// The reference is the serial per-series vote: AlgoNgst::preprocess(span)
/// and the naive oracles in src/check (check::oracle_ngst_stack,
/// check::oracle_otis_plane).  Every stage either performs the same integer
/// arithmetic as that code in a different order (XOR/AND/OR are associative and commutative;
/// the unanimous-AND and the GRT leave-one-out vote are symmetric functions
/// of the voter multiset), or substitutes a provably equivalent algorithm:
///
/// * **Threshold selection.**  The serial path computes
///   `q = nth_element(xors, rank)` and `v_val = q == 0 ? 0 : ceil_pow2(q)`.
///   The composed map x -> (x == 0 ? 0 : ceil_pow2(x)) is monotone
///   non-decreasing, so it commutes with order statistics:
///   v_val = value-class of the rank-th smallest element, where the classes
///   are 0, 1, 2, 4, ..., high-bit saturation — exactly the values that map
///   distinguishes.  Selection is the policy's `way_vplus1` primitive:
///   AVX2 and AVX-512 count C_b = #{x <= class bound b} lane-parallel with
///   one byte compare per pair of classes and row, and the class is the
///   number of b with C_b <= rank; SWAR, whose compares cost ~12 word ops,
///   buckets each lane's XORs into a histogram and walks it to the rank.
///   Same v_val, no sort, O(n).  The two wide tiers keep their own copy of
///   the count: AVX-512 tests into mask registers and increments under the
///   mask (two ops per class pair), which AVX2 has no form for (three).
/// * **Window masks.**  V_vals are 0 or powers of two, so the window
///   delimiters of a lane group come from lane-wise min/max and a few
///   bitwise ops (ngst_mask_from).
/// * **AND/GRT accumulation.**  With A_0 = ~0, B_0 = 0 and per voter v:
///   B' = (B & v) | A,  A' = A & v,  after m voters A is the AND of all and
///   B is the OR of leave-one-out ANDs (induction: the new leave-one-out
///   set is {leave out v: A} ∪ {leave out an old voter k: (old LOO_k) & v}).
///   This matches common::grt for every m >= 1, and correction_vector only
///   consults it for m >= 3.
/// * **Lane padding.**  NGST tiles are padded with all-zero series; every
///   XOR of a zero series is 0, so its unanimous AND is 0 and its
///   correction is always 0 — pad lanes can never touch data or counters.
/// * **OTIS 3x3 median.**  A lane group clear of the left and right edge
///   columns sorts its eight neighbour loads (five on the top and bottom
///   rows) through the same networks with lane-wise float min/max and
///   takes element count / 2, the reference's window[count / 2].  min/max
///   treat +0 and -0 as equal and may return either, so a network keeps
///   the multiset up to the sign of a zero; every other finite float
///   compares equal only to its own bit pattern.  A lane whose median is
///   finite and nonzero therefore has the reference's bits.  The other
///   lanes go to the reference one by one: a non-finite neighbour (the
///   reference drops it, so fewer values vote) or a median that compares
///   equal to zero.  The bounds test compares floats against the interval
///   rounded inwards to float, which admits exactly the floats the
///   reference's double compare admits, and the residual is the same
///   float subtraction.
/// * **Plausibility gate.**  The apply stage evaluates the gate for a whole
///   lane group per readout row: the in-range partners i±d of the *live*
///   series (their count depends only on i), their median through a
///   min/max sort network (any full sort gives the same median; interior
///   rows of Υ = 4 and 8 keep the network in registers),
///   dev = |self − med| as `subs(self, med) | subs(med, self)`, and the top
///   corrected weight w by bit-smearing.  The serial test 4·dev >= 3·w is
///   dev >= ceil(3w/4) = w − (w >> 2) for every power of two w (w = 1, 2
///   round up; w >= 4 divides exactly).  Rows run in readout order and a
///   lane reads only its own series, so the sequencing matches the serial
///   reference lane by lane.
/// * **Write-through.**  The apply stage stores an accepted lane group
///   twice: into the live tile, whose later rows the gate reads, and to
///   the tile's home in the stack (NgstTileCtx::home).  Every other stack
///   word already holds what the tile holds, so the stack ends as the
///   serial reference leaves it with no scatter pass.  A group with no
///   accepted lane stores nothing, and one that runs past the tile's
///   real columns copies only those home, so pad lanes never reach the
///   stack.  Worker lanes own disjoint stack rows, so their stores never
///   overlap.
///
/// The cross-kernel differential harness (src/check) and
/// tests/kernel_test.cpp enforce the identity end to end.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "kernel_detail.hpp"
#include "spacefts/common/bitops.hpp"
#include "spacefts/common/parallel.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/core/sort_median.hpp"
#include "spacefts/core/voter_matrix.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::core::detail {

// ---------------------------------------------------------------------------
// Exact histogram order-statistic selection (see file comment).

/// Value-class bucket of one XOR result: bucket 0 holds x == 0, bucket
/// b >= 1 holds the x with (x == 0 ? 0 : ceil_pow2(x)) == 2^(b-1),
/// including the saturation class at the type's high bit.
template <typename Word>
[[nodiscard]] inline std::size_t vval_bucket(Word x) noexcept {
  constexpr int kCap = static_cast<int>(sizeof(Word) * 8) - 1;
  // bit_width(x - 1) from a bit scan of a never-zero argument, and selects
  // for x == 0 and the cap: histogram inputs are unpredictable, so any
  // branch here mispredicts.
  const std::uint64_t below = static_cast<Word>(x - 1);
  const int bw = std::bit_width((below << 1) | 1) - 1;
  const std::size_t bucket = 1 + static_cast<std::size_t>(std::min(bw, kCap));
  return x == 0 ? 0 : bucket;
}

template <typename Word>
inline constexpr std::size_t kVvalBuckets = sizeof(Word) * 8 + 1;

/// The v_val of the rank-th smallest element (0-based) of the multiset the
/// histogram describes.
template <typename Word>
[[nodiscard]] inline Word vval_from_hist(
    const std::uint32_t (&counts)[kVvalBuckets<Word>],
    std::size_t rank) noexcept {
  std::size_t acc = 0;
  for (std::size_t b = 0; b < kVvalBuckets<Word>; ++b) {
    acc += counts[b];
    if (acc > rank) {
      return b == 0 ? Word{0} : static_cast<Word>(Word{1} << (b - 1));
    }
  }
  return Word{0};  // unreachable while rank < total count
}

// ---------------------------------------------------------------------------
// NGST tile kernel.

/// Window delimiters of a lane group from its V_vals (each 0 or a power of
/// two up to 0x8000): the lane-wise form of the mask_from lambda in
/// rebuild_voter_matrix (voter_matrix.cpp), which maps 0 to 0xFFFF, 0x8000
/// to 0x8000 and any other v to ~(2v - 1).  For those v,
/// v | (v -sat 1) is 2v - 1, 0 for v = 0, and 0xFFFF for v = 0x8000.
template <class Ops>
[[nodiscard]] typename Ops::V ngst_mask_from(typename Ops::V v) {
  const typename Ops::V one16 = Ops::bcast32(0x00010001u);
  const typename Ops::V top16 = Ops::bcast32(0x80008000u);
  return Ops::vor(Ops::vnot(Ops::vor(v, Ops::subsu16(v, one16))),
                  Ops::vand(v, top16));
}

/// Lane-wise median of the 2·kWays partners of an interior readout row
/// (every i±d in range): the partners load into a local array and the
/// fixed network runs with compile-time indices, so it stays in registers.
template <class Ops, std::size_t kWays>
[[nodiscard]] typename Ops::V interior_median(const std::uint16_t* self,
                                              std::size_t twp) {
  using V = typename Ops::V;
  V p[2 * kWays];
  for (std::size_t d = 1; d <= kWays; ++d) {
    p[2 * d - 2] = Ops::load(self + d * twp);
    p[2 * d - 1] = Ops::load(self - d * twp);
  }
  const auto cx = [&p](std::size_t a, std::size_t b) {
    const V lo = Ops::minu16(p[a], p[b]);
    p[b] = Ops::maxu16(p[a], p[b]);
    p[a] = lo;
  };
  if constexpr (kWays == 2) {
    sort4_network(cx);
  } else {
    sort8_network(cx);
  }
  return p[kWays];
}

/// Lane-wise median of the in-range partners i±d of readout row \p i for
/// the lane group at \p c0, read from the live tile.  Interior rows of
/// Υ = 4 and 8 take the register networks; every other row sorts its
/// \p count partners (a function of i alone) through \p spill, count lane
/// groups of u16.
template <class Ops>
[[nodiscard]] typename Ops::V partner_median(const std::uint16_t* soa,
                                             std::size_t twp, std::size_t i,
                                             std::size_t n, std::size_t c0,
                                             std::size_t way_count,
                                             std::size_t count,
                                             std::uint16_t* spill) {
  using V = typename Ops::V;
  constexpr std::size_t kL = Ops::kLanes16;
  const std::uint16_t* const self = soa + i * twp + c0;
  if (i >= way_count && i + way_count < n) {
    if (way_count == 2) return interior_median<Ops, 2>(self, twp);
    if (way_count == 4) return interior_median<Ops, 4>(self, twp);
  }
  std::size_t j = 0;
  for (std::size_t d = 1; d <= way_count; ++d) {
    if (i + d < n) Ops::store(spill + kL * j++, Ops::load(self + d * twp));
    if (i >= d) Ops::store(spill + kL * j++, Ops::load(self - d * twp));
  }
  sort_network(count, [spill](std::size_t a, std::size_t b) {
    const V va = Ops::load(spill + a * kL);
    const V vb = Ops::load(spill + b * kL);
    Ops::store(spill + a * kL, Ops::minu16(va, vb));
    Ops::store(spill + b * kL, Ops::maxu16(va, vb));
  });
  return Ops::load(spill + count / 2 * kL);
}

template <class Ops>
[[nodiscard]] AlgoNgstReport ngst_tile_engine(const NgstTileCtx& c) {
  using V = typename Ops::V;
  AlgoNgstReport report;
  const std::size_t n = c.n;
  const std::size_t tw = c.tw;
  const std::size_t twp = c.tw_padded;
  const AlgoNgstConfig& cfg = *c.cfg;
  NgstScratch& s = *c.scratch;
  report.pixels_examined = tw * n;
  // Same header-sanity-only early-out as the per-series reference.
  if (cfg.lambda <= 0.0 || n < 3) return report;

  const std::size_t way_count = std::min(cfg.upsilon / 2, n - 1);
  std::uint16_t* const soa = s.soa.data();
  s.vplus1.resize(way_count * twp);
  s.lane_lsb.resize(twp);
  s.lane_msb.resize(twp);
  s.corr.resize(n * twp);

  // ---- Threshold stage: per-lane per-way V_val through the policy's
  // selection primitive (see file comment), stored as V_val+1 so the prune
  // compare becomes unsigned x >= vp (no overflow: V_val saturates at
  // 0x8000).
  for (std::size_t d = 1; d <= way_count; ++d) {
    Ops::way_vplus1(soa, twp, d, n - d, prune_rank(n - d, cfg.lambda),
                    s.vplus1.data() + (d - 1) * twp);
  }

  // ---- Mask stage: per-lane window delimiters from the min and max of the
  // per-way V_vals, a lane group at a time.
  const V one16 = Ops::bcast32(0x00010001u);
  for (std::size_t c0 = 0; c0 < twp; c0 += Ops::kLanes16) {
    V min_vval = Ops::ones();
    V max_vval = Ops::zero();
    for (std::size_t d = 1; d <= way_count; ++d) {
      const V v =
          Ops::sub16(Ops::load(s.vplus1.data() + (d - 1) * twp + c0), one16);
      min_vval = Ops::minu16(min_vval, v);
      max_vval = Ops::maxu16(max_vval, v);
    }
    Ops::store(s.lane_lsb.data() + c0, cfg.enable_windows
                                            ? ngst_mask_from<Ops>(min_vval)
                                            : Ops::ones());
    Ops::store(s.lane_msb.data() + c0, cfg.enable_windows
                                            ? ngst_mask_from<Ops>(max_vval)
                                            : Ops::zero());
  }
  // Serial accumulate() keeps the last series' masks; that is lane tw-1.
  report.lsb_mask = s.lane_lsb[tw - 1];
  report.msb_mask = s.lane_msb[tw - 1];

  // In-range pairings of readout i: its voter count, and its partner
  // count in the gate; uniform across lanes.
  const auto pairings = [n, way_count](std::size_t i) {
    std::size_t m = 0;
    for (std::size_t d = 1; d <= way_count; ++d) {
      m += (i + d < n ? 1u : 0u) + (i >= d ? 1u : 0u);
    }
    return m;
  };

  // ---- Vote stage: per readout position, accumulate the unanimous AND (A)
  // and the leave-one-out GRT (B) across all in-range voters, vectorized
  // across lanes.  All loads read the pre-correction tile — the reference
  // also computes every correction from the original series (its voter
  // matrix is built once, before the apply sweep).
  const bool prune = cfg.enable_pruning;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t* const corr_row = s.corr.data() + i * twp;
    const std::size_t m = pairings(i);
    if (m < 2) {  // fewer than two voters never correct
      std::fill(corr_row, corr_row + twp, std::uint16_t{0});
      continue;
    }
    const std::uint16_t* const self_row = soa + i * twp;
    for (std::size_t c0 = 0; c0 < twp; c0 += Ops::kLanes16) {
      const V self = Ops::load(self_row + c0);
      V acc_and = Ops::ones();
      V acc_grt = Ops::zero();
      const auto feed = [&](const std::uint16_t* partner_row, const V vp) {
        const V x = Ops::vxor(self, Ops::load(partner_row + c0));
        const V v = prune ? Ops::vand(x, Ops::geu16(x, vp)) : x;
        const V prev_and = acc_and;
        acc_and = Ops::vand(acc_and, v);
        acc_grt = Ops::vor(Ops::vand(acc_grt, v), prev_and);
      };
      for (std::size_t d = 1; d <= way_count; ++d) {
        const V vp = Ops::load(s.vplus1.data() + (d - 1) * twp + c0);
        if (i + d < n) feed(soa + (i + d) * twp, vp);
        if (i >= d) feed(soa + (i - d) * twp, vp);
      }
      const V lsb = Ops::load(s.lane_lsb.data() + c0);
      const V msb = Ops::load(s.lane_msb.data() + c0);
      const V aux = m >= 3 ? Ops::vand(acc_grt, msb) : Ops::zero();
      Ops::store(corr_row + c0, Ops::vand(Ops::vor(acc_and, aux), lsb));
    }
  }

  // ---- Apply stage: the gate for a whole lane group per readout row (see
  // file comment).  Lanes without a correction pass the gate (w = 0) and
  // apply nothing, so the counters come from lane counts of corr and of the
  // applied words.  An accepted group is written to the live tile, which
  // later rows' gates read, and to its home in the stack.
  const bool gate = cfg.enable_plausibility_gate;
  if (gate) s.partners.resize(2 * way_count * Ops::kLanes16);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t* const corr_row = s.corr.data() + i * twp;
    std::uint16_t* const self_row = soa + i * twp;
    std::uint16_t* const home_row = c.home + i * c.plane;
    const std::size_t count = pairings(i);
    for (std::size_t c0 = 0; c0 < twp; c0 += Ops::kLanes16) {
      const V corr = Ops::load(corr_row + c0);
      const std::size_t flagged = Ops::count_nonzero16(corr);
      if (flagged == 0) continue;  // quiet groups, pad groups included
      const V self = Ops::load(self_row + c0);
      V applied = corr;
      if (gate) {
        const V med = partner_median<Ops>(soa, twp, i, n, c0, way_count,
                                          count, s.partners.data());
        const V dev = Ops::vor(Ops::subsu16(self, med), Ops::subsu16(med, self));
        V top = Ops::vor(corr, Ops::template srl16<1>(corr));
        top = Ops::vor(top, Ops::template srl16<2>(top));
        top = Ops::vor(top, Ops::template srl16<4>(top));
        top = Ops::vor(top, Ops::template srl16<8>(top));
        top = Ops::vxor(top, Ops::template srl16<1>(top));
        const V bar = Ops::sub16(top, Ops::template srl16<2>(top));
        applied = Ops::vand(corr, Ops::geu16(dev, bar));
      }
      const std::size_t accepted = Ops::count_nonzero16(applied);
      report.pixels_vetoed += flagged - accepted;
      if (accepted == 0) continue;
      report.pixels_corrected += accepted;
      report.bits_corrected += Ops::popcount(applied);
      const V fixed = Ops::vxor(self, applied);
      Ops::store(self_row + c0, fixed);
      // A group that runs past the tile's real columns copies only its
      // real lanes home; pad lanes never leave scratch.
      if (c0 + Ops::kLanes16 <= tw) {
        Ops::store(home_row + c0, fixed);
      } else {
        std::memcpy(home_row + c0, self_row + c0,
                    (tw - c0) * sizeof(std::uint16_t));
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// OTIS plane kernel, phase 1 (classification).

/// Median of the finite 3x3 neighbourhood of (x, y), the centre excluded;
/// NaN if none.  The reference the vector path defers to (see file
/// comment).
[[nodiscard]] static inline float otis_local_median(
    const common::Image<float>& img, std::size_t x, std::size_t y) {
  float window[8];
  std::size_t count = 0;
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
      if (std::isfinite(v)) window[count++] = v;
    }
  }
  if (count == 0) return std::numeric_limits<float>::quiet_NaN();
  // Insertion sort: count <= 8, and std::sort trips a GCC-12 array-bounds
  // false positive on small stack arrays.
  for (std::size_t i = 1; i < count; ++i) {
    const float key = window[i];
    std::size_t j = i;
    while (j > 0 && key < window[j - 1]) {
      window[j] = window[j - 1];
      --j;
    }
    window[j] = key;
  }
  return window[count / 2];
}

/// Lane-wise median of the \p kCount in-image 3x3 neighbours \p nb of a
/// lane group (8 inside the plane, 5 on its top and bottom rows), stored
/// to \p out.  Lanes whose answer the network cannot guarantee — a
/// non-finite neighbour, or a median that compares equal to zero — are
/// recomputed by the reference, column \p x0 + lane of row \p y.
template <class Ops, std::size_t kCount>
void otis_group_median(const common::Image<float>& plane,
                       const float* const (&nb)[kCount], std::size_t x0,
                       std::size_t y, float* out) {
  using V = typename Ops::V;
  constexpr std::size_t kL = Ops::kLanes32;
  const V magnitude = Ops::bcast32(0x7FFFFFFFu);
  V p[kCount];
  V widest = Ops::zero();
  for (std::size_t k = 0; k < kCount; ++k) {
    p[k] = Ops::load(nb[k]);
    widest = Ops::maxu32(widest, Ops::vand(p[k], magnitude));
  }
  sort_network(kCount, [&p](std::size_t a, std::size_t b) {
    const V lo = Ops::minf32(p[a], p[b]);
    p[b] = Ops::maxf32(p[a], p[b]);
    p[a] = lo;
  });
  const V med = p[kCount / 2];
  Ops::store(out, med);
  const V defer =
      Ops::vor(Ops::geu32(widest, Ops::bcast32(0x7F800000u)),
               Ops::geu32(Ops::zero(), Ops::vand(med, magnitude)));
  if (Ops::count_nonzero16(defer) == 0) return;
  std::uint32_t lanes[kL];
  Ops::store(lanes, defer);
  for (std::size_t l = 0; l < kL; ++l) {
    if (lanes[l] != 0) out[l] = otis_local_median(plane, x0 + l, y);
  }
}

/// The float interval holding exactly the floats of [lo, hi]: lo rounded
/// up and hi rounded down to float, so a float compare against it agrees
/// with the reference's double compare for every float.
[[nodiscard]] static inline std::pair<float, float> float_interval(
    const otis::RadianceInterval& interval) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float lo = static_cast<float>(interval.lo);
  float hi = static_cast<float>(interval.hi);
  if (static_cast<double>(lo) < interval.lo) lo = std::nextafter(lo, kInf);
  if (static_cast<double>(hi) > interval.hi) hi = std::nextafter(hi, -kInf);
  return {lo, hi};
}

template <class Ops>
void otis_phase1_engine(const OtisPhase1Ctx& c) {
  using V = typename Ops::V;
  namespace par = spacefts::common::parallel;
  constexpr std::size_t kL = Ops::kLanes32;
  const common::Image<float>& plane = *c.plane;
  const otis::RadianceInterval& interval = *c.interval;
  const bool bounds = c.cfg->enable_bounds;
  const auto [lo, hi] = float_interval(interval);
  const V lo_v = Ops::bcast32(common::float_to_bits(lo));
  const V hi_v = Ops::bcast32(common::float_to_bits(hi));
  const V magnitude = Ops::bcast32(0x7FFFFFFFu);
  const V max_finite = Ops::bcast32(0x7F7FFFFFu);
  const V nan = Ops::bcast32(
      common::float_to_bits(std::numeric_limits<float>::quiet_NaN()));
  const std::size_t w = plane.width();
  const std::size_t h = plane.height();
  const float* const px = plane.pixels().data();
  std::uint8_t* const st = c.state->pixels().data();
  float* const med = c.medians->pixels().data();
  float* const res = c.residuals->pixels().data();
  const auto classify = [&](std::size_t i) {
    const float v = px[i];
    const bool in_bounds =
        std::isfinite(v) &&
        (!bounds || interval.contains(static_cast<double>(v)));
    const float m = med[i];
    st[i] = static_cast<std::uint8_t>(in_bounds ? OtisPixelState::kClean
                                                : OtisPixelState::kCandidate);
    res[i] = !in_bounds ? std::numeric_limits<float>::quiet_NaN()
             : std::isfinite(m) ? v - m
                                : 0.0f;
  };
  // Lane groups of a row: a row that is not a whole number of groups ends
  // with one group flush against its end, overlapping the one before it;
  // every output depends only on the input, so it stores the same words
  // again.
  const auto for_groups = [](std::size_t x_begin, std::size_t x_end,
                             auto&& group) {
    for (std::size_t next = x_begin; next < x_end; next += kL) {
      group(std::min(next, x_end - kL));
    }
  };
  // Row-parallel: every write targets the pixel's own row, and the plane
  // is only read.
  par::parallel_for(h, /*grain=*/4, c.lanes, [&](std::size_t y0,
                                                 std::size_t y1,
                                                 std::size_t) {
    for (std::size_t y = y0; y < y1; ++y) {
      // Medians: reference end columns (and every column of a row whose
      // inner w - 2 columns are less than a group), lane groups between.
      float* const med_row = med + y * w;
      const float* const mid = px + y * w;
      const std::size_t xv_end = w - 2 >= kL ? w - 1 : 1;
      med_row[0] = otis_local_median(plane, 0, y);
      for_groups(1, xv_end, [&](std::size_t x0) {
        const float* const c0 = mid + x0;
        if (y == 0) {
          const float* const nb[5] = {c0 - 1, c0 + 1, c0 + w - 1, c0 + w,
                                      c0 + w + 1};
          otis_group_median<Ops>(plane, nb, x0, y, med_row + x0);
        } else if (y + 1 == h) {
          const float* const nb[5] = {c0 - w - 1, c0 - w, c0 - w + 1, c0 - 1,
                                      c0 + 1};
          otis_group_median<Ops>(plane, nb, x0, y, med_row + x0);
        } else {
          const float* const nb[8] = {c0 - w - 1, c0 - w,     c0 - w + 1,
                                      c0 - 1,     c0 + 1,     c0 + w - 1,
                                      c0 + w,     c0 + w + 1};
          otis_group_median<Ops>(plane, nb, x0, y, med_row + x0);
        }
      });
      for (std::size_t x = xv_end; x < w; ++x) {
        med_row[x] = otis_local_median(plane, x, y);
      }
      // Hypothesis (2) and the residual against the median.
      const std::size_t row = y * w;
      if (w < kL) {
        for (std::size_t x = 0; x < w; ++x) classify(row + x);
        continue;
      }
      for_groups(0, w, [&](std::size_t x0) {
        const std::size_t i = row + x0;
        const V v = Ops::load(px + i);
        const V m = Ops::load(med + i);
        V in = Ops::geu32(max_finite, Ops::vand(v, magnitude));
        if (bounds) {
          in = Ops::vand(in,
                         Ops::vand(Ops::gef32(v, lo_v), Ops::gef32(hi_v, v)));
        }
        const V m_finite = Ops::geu32(max_finite, Ops::vand(m, magnitude));
        const V r = Ops::vand(Ops::subf32(v, m), m_finite);
        Ops::store(res + i, Ops::vor(Ops::vand(r, in),
                                     Ops::vand(nan, Ops::vnot(in))));
        std::uint32_t clean[kL];
        Ops::store(clean, in);
        for (std::size_t l = 0; l < kL; ++l) {
          st[i + l] = static_cast<std::uint8_t>(
              clean[l] != 0 ? OtisPixelState::kClean
                            : OtisPixelState::kCandidate);
        }
      });
    }
  });
}

// ---------------------------------------------------------------------------
// OTIS plane kernel (phases 2 + 3).

/// One spatial pairing axis at one distance (dx, dy >= 0; both signs are
/// consulted at vote time).
struct OtisWay {
  std::ptrdiff_t dx = 0;
  std::ptrdiff_t dy = 0;
  std::uint32_t v_val = 0;
};

[[nodiscard]] static inline std::uint32_t otis_mask_from(
    std::uint32_t v) noexcept {
  return v <= 1 ? 0xFFFFFFFFu : ~(v - 1);
}

/// Phase 2: dynamic thresholds from clean pairs, via the exact histogram
/// selection.  Returns have_thresholds (false when any way has fewer than 8
/// clean pairs, same bail-out and way order as the serial reference).
[[nodiscard]] static inline bool otis_thresholds(
    const common::Image<float>& plane, const common::Image<std::uint8_t>& state,
    const AlgoOtisConfig& cfg, std::vector<OtisWay>& ways,
    std::uint32_t& lsb_mask, std::uint32_t& msb_mask) {
  ways.clear();
  for (std::size_t k = 1; k <= cfg.upsilon / 2; ++k) {
    const auto dist = static_cast<std::ptrdiff_t>((k + 1) / 2);
    if (k % 2 == 1) {
      ways.push_back(OtisWay{dist, 0, 0});
    } else {
      ways.push_back(OtisWay{0, dist, 0});
    }
  }
  const std::size_t w = plane.width();
  const std::size_t h = plane.height();
  const float* const px = plane.pixels().data();
  const std::uint8_t* const st = state.pixels().data();
  std::uint32_t min_vval = 0xFFFFFFFFu;
  std::uint32_t max_vval = 0;
  bool have = true;
  for (auto& way : ways) {
    std::uint32_t counts[kVvalBuckets<std::uint32_t>] = {};
    std::size_t total = 0;
    // dx, dy >= 0, so the only out-of-image neighbours are past the
    // high edge; the scan bound excludes them up front.
    const std::size_t x_end =
        way.dx < static_cast<std::ptrdiff_t>(w) ? w - static_cast<std::size_t>(way.dx) : 0;
    const std::size_t y_end =
        way.dy < static_cast<std::ptrdiff_t>(h) ? h - static_cast<std::size_t>(way.dy) : 0;
    const std::size_t noff =
        static_cast<std::size_t>(way.dy) * w + static_cast<std::size_t>(way.dx);
    for (std::size_t y = 0; y < y_end; ++y) {
      const std::size_t row = y * w;
      for (std::size_t x = 0; x < x_end; ++x) {
        if (st[row + x] != 0 || st[row + x + noff] != 0) continue;
        const std::uint32_t xr = common::float_to_bits(px[row + x]) ^
                                 common::float_to_bits(px[row + x + noff]);
        ++counts[vval_bucket(xr)];
        ++total;
      }
    }
    if (total < 8) {
      have = false;
      break;
    }
    const std::size_t rank = prune_rank(total, cfg.lambda);
    way.v_val = vval_from_hist<std::uint32_t>(counts, rank);
    min_vval = std::min(min_vval, way.v_val);
    max_vval = std::max(max_vval, way.v_val);
  }
  lsb_mask = have ? otis_mask_from(min_vval) : 0;
  msb_mask = have ? otis_mask_from(max_vval) : 0;
  return have;
}

/// Correction vector for one pixel, one lane at a time — the reference
/// voter loop verbatim; used for the edge columns the vector path cannot load safely.
[[nodiscard]] static inline std::uint32_t otis_corr_scalar(
    const common::Image<float>& source, const common::Image<std::uint8_t>& state,
    const std::vector<OtisWay>& ways, std::size_t x, std::size_t y,
    std::uint32_t lsb_mask, std::uint32_t msb_mask,
    std::vector<std::uint32_t>& voters) {
  const std::size_t w = source.width();
  const std::size_t h = source.height();
  voters.clear();
  const std::uint32_t self = common::float_to_bits(source(x, y));
  for (const auto& way : ways) {
    for (const int sign : {+1, -1}) {
      const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x) + sign * way.dx;
      const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(y) + sign * way.dy;
      if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(w) ||
          ny >= static_cast<std::ptrdiff_t>(h)) {
        continue;
      }
      if (state(static_cast<std::size_t>(nx), static_cast<std::size_t>(ny)) !=
          0) {
        continue;
      }
      const std::uint32_t xr =
          self ^ common::float_to_bits(source(static_cast<std::size_t>(nx),
                                              static_cast<std::size_t>(ny)));
      voters.push_back(xr > way.v_val ? xr : 0u);
    }
  }
  return correction_vector<std::uint32_t>(voters, lsb_mask, msb_mask);
}

template <class Ops>
void otis_phase23_engine(const OtisPhase23Ctx& c, AlgoOtisReport& report) {
  using V = typename Ops::V;
  namespace par = spacefts::common::parallel;
  common::Image<float>& plane = *c.plane;
  const common::Image<std::uint8_t>& state = *c.state;
  const common::Image<float>& medians = *c.medians;
  const otis::RadianceInterval& interval = *c.interval;
  const AlgoOtisConfig& cfg = *c.cfg;
  const double tau = c.tau;
  const std::size_t w = plane.width();
  const std::size_t h = plane.height();

  std::vector<OtisWay> ways;
  std::uint32_t lsb_mask = 0;
  std::uint32_t msb_mask = 0;
  bool have_thresholds = false;
  {
    SPACEFTS_TSPAN("otis.thresholds", {"lambda", cfg.lambda});
    have_thresholds =
        otis_thresholds(plane, state, cfg, ways, lsb_mask, msb_mask);
  }

  // Jacobi snapshot, as in the reference: voters never see this pass's own
  // repairs, which is what makes row-parallel execution order-free.
  const common::Image<float> source = plane;
  const float* const src = source.pixels().data();
  const std::uint8_t* const st = state.pixels().data();
  const std::size_t lanes = c.lanes;
  std::vector<std::size_t> lane_bit(lanes, 0);
  std::vector<std::size_t> lane_median(lanes, 0);
  // Widest horizontal reach: inside [dmax, w - dmax) every neighbour load
  // of a lane group stays within the image rows.
  std::size_t dmax = 0;
  for (const auto& way : ways) {
    dmax = std::max(dmax, static_cast<std::size_t>(way.dx));
  }
  {
    SPACEFTS_TSPAN("otis.vote");
    par::parallel_for(h, /*grain=*/4, lanes, [&](std::size_t y0, std::size_t y1,
                                                 std::size_t lane) {
      std::vector<std::uint32_t> corr_row(w, 0);
      std::vector<std::uint32_t> voters;
      voters.reserve(cfg.upsilon);
      for (std::size_t y = y0; y < y1; ++y) {
        if (have_thresholds) {
          // Scalar edge columns, vector middle.  A middle that is not a
          // whole number of groups ends with one group flush against xb,
          // overlapping the one before it: a column's correction depends
          // only on the snapshot, so computing it twice stores the same
          // word.
          const std::size_t xa = std::min(dmax, w);
          std::size_t xb = w > dmax ? w - dmax : 0;
          if (xb < xa) xb = xa;
          const std::size_t xv_end = xb - xa >= Ops::kLanes32 ? xb : xa;
          for (std::size_t x = 0; x < xa; ++x) {
            corr_row[x] = otis_corr_scalar(source, state, ways, x, y, lsb_mask,
                                           msb_mask, voters);
          }
          for (std::size_t next = xa; next < xv_end; next += Ops::kLanes32) {
            const std::size_t x0 = std::min(next, xv_end - Ops::kLanes32);
            const V self = Ops::load(src + y * w + x0);
            V acc_and = Ops::ones();
            V acc_grt = Ops::zero();
            V count = Ops::zero();
            for (const auto& way : ways) {
              const V vp = Ops::bcast32(way.v_val + 1);
              for (const int sign : {+1, -1}) {
                const std::ptrdiff_t ny =
                    static_cast<std::ptrdiff_t>(y) + sign * way.dy;
                if (ny < 0 || ny >= static_cast<std::ptrdiff_t>(h)) continue;
                const std::size_t off =
                    static_cast<std::size_t>(ny) * w +
                    static_cast<std::size_t>(static_cast<std::ptrdiff_t>(x0) +
                                             sign * way.dx);
                // Clean-lane mask: included voters; others leave A, B, and
                // the count untouched.
                const V valid = Ops::clean_mask32(st + off);
                const V x = Ops::vxor(self, Ops::load(src + off));
                const V v = Ops::vand(x, Ops::geu32(x, vp));
                const V prev_and = acc_and;
                acc_and = Ops::vand(acc_and, Ops::vor(v, Ops::vnot(valid)));
                acc_grt = Ops::vor(
                    Ops::vand(Ops::vor(Ops::vand(acc_grt, v), prev_and), valid),
                    Ops::vand(acc_grt, Ops::vnot(valid)));
                count = Ops::add32(count, Ops::vand(valid, Ops::bcast32(1)));
              }
            }
            const V ge2 = Ops::geu32(count, Ops::bcast32(2));
            const V ge3 = Ops::geu32(count, Ops::bcast32(3));
            const V aux =
                Ops::vand(Ops::vand(acc_grt, ge3), Ops::bcast32(msb_mask));
            const V corr = Ops::vand(
                Ops::vand(Ops::vor(acc_and, aux), Ops::bcast32(lsb_mask)), ge2);
            Ops::store(corr_row.data() + x0, corr);
          }
          for (std::size_t x = xv_end; x < w; ++x) {
            corr_row[x] = otis_corr_scalar(source, state, ways, x, y, lsb_mask,
                                           msb_mask, voters);
          }
        }
        // Apply sweep — the reference phase-3 body, reading the precomputed
        // correction vector instead of re-gathering voters.
        for (std::size_t x = 0; x < w; ++x) {
          const std::uint8_t stv = st[y * w + x];
          if (stv == static_cast<std::uint8_t>(OtisPixelState::kProtected)) {
            continue;
          }
          const bool candidate =
              stv == static_cast<std::uint8_t>(OtisPixelState::kCandidate);
          const float original = source(x, y);
          const float fallback = medians(x, y);
          if (have_thresholds) {
            const std::uint32_t corr = corr_row[x];
            if (corr != 0) {
              const std::uint32_t self = common::float_to_bits(original);
              const float cand = common::bits_to_float(self ^ corr);
              const bool physical =
                  std::isfinite(cand) &&
                  (!cfg.enable_bounds ||
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
                ++lane_bit[lane];
              }
            }
          }
          if (candidate && std::isfinite(fallback)) {
            const float now = plane(x, y);
            const bool conforming =
                std::isfinite(now) &&
                (!cfg.enable_bounds ||
                 interval.contains(static_cast<double>(now))) &&
                std::abs(static_cast<double>(now) -
                         static_cast<double>(fallback)) <= 2.0 * tau;
            if (!conforming) {
              plane(x, y) = fallback;
              ++lane_median[lane];
            }
          }
        }
      }
    });
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    report.bit_corrected += lane_bit[l];
    report.median_replaced += lane_median[l];
  }
}

}  // namespace spacefts::core::detail
