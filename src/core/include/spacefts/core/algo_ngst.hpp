/// \file algo_ngst.hpp
/// Algo_NGST (Algorithm 1): the paper's dynamic preprocessing algorithm for
/// temporally redundant datasets.
///
/// One NGST baseline yields N (= 64) readouts of every detector coordinate;
/// the algorithm treats each coordinate's time series independently:
///
///  1. build the Υ-way voter matrix of XOR bit-incongruences between each
///     pixel and its Υ/2 forward / Υ/2 backward temporal neighbours,
///  2. threshold each way at the Λ-derived rank — XOR results at or below
///     the threshold are natural variation and are pruned,
///  3. derive the A/B/C bit-window masks from the per-way thresholds,
///  4. per pixel, combine the surviving voters: window A bits flip on a
///     (Υ−1)-of-Υ vote, window B bits only on a unanimous vote, window C is
///     masked off; XOR the result into the pixel.
///
/// The analysis (steps 1–3) is *dynamic*: every dataset derives its own
/// thresholds, so calm regions get tight bounds and turbulent ones loose
/// bounds — the property §3.3 credits for beating the static baselines.
///
/// Λ = 0 disables data preprocessing entirely (header-sanity-only mode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "spacefts/common/aligned.hpp"
#include "spacefts/common/image.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/core/voter_matrix.hpp"

namespace spacefts::core {

/// Tuning parameters for Algo_NGST.
struct AlgoNgstConfig {
  /// Number of temporal neighbours each pixel consults (even, >= 2).
  /// The paper found Υ = 4 best for both benchmarks (§3.3).
  std::size_t upsilon = 4;
  /// Sensitivity Λ in [0, 100]; 0 = sanity-only (no data changes).
  double lambda = 80.0;
  /// Ablation A1 switches.
  bool enable_pruning = true;
  bool enable_windows = true;
  /// Carry-propagation plausibility gate (§3.1): a correction is applied
  /// only when the pixel's arithmetic deviation from its neighbours matches
  /// the weight of the bit being corrected.  Off = pure XOR voting.
  bool enable_plausibility_gate = true;
  /// Worker lanes for the stack-level preprocessing path; 1 = serial,
  /// 0 = one lane per hardware thread.  The output is bit-identical for
  /// every value (the row partition and per-pixel work are independent of
  /// the lane count); the differential harness (src/check) enforces this
  /// against a naive serial oracle.
  std::size_t threads = 1;
  /// Compute kernel for the stack hot path (kernel.hpp): kAuto resolves to
  /// the widest kernel this host supports.  Every kernel produces output
  /// bit-identical to check::oracle_ngst_stack at every thread count.  The
  /// per-series entry points do not dispatch; they run one series at a
  /// time.
  Kernel kernel = Kernel::kAuto;
};

/// Reusable workspace for the allocation-free preprocessing path.  Buffers
/// grow to their steady-state capacity within the first few pixels and are
/// recycled for every subsequent pixel; the parallel stack path keeps one
/// scratch per lane.
struct NgstScratch {
  VoterMatrix<std::uint16_t> matrix;
  std::vector<std::uint16_t> sort_buf;   ///< nth_element workspace
  std::vector<std::uint16_t> voters;     ///< surviving voters of one pixel
  /// Plausibility-gate neighbours: one series' (per-series entry points),
  /// or whole lane groups' partner rows (stack kernels).
  std::vector<std::uint16_t> partners;
  /// Structure-of-arrays buffers for the stack kernels: frame-major tiles
  /// padded to a whole number of lane groups, 32-byte aligned so AVX2
  /// lane-group loads never split a cache line.
  common::AlignedVector<std::uint16_t> soa;       ///< frame-major tile
  common::AlignedVector<std::uint16_t> corr;      ///< per-readout corrections
  common::AlignedVector<std::uint16_t> vplus1;    ///< per-way per-lane V_val+1
  common::AlignedVector<std::uint16_t> lane_lsb;  ///< per-lane window-C mask
  common::AlignedVector<std::uint16_t> lane_msb;  ///< per-lane window-A mask
};

/// Diagnostics from one sequence (or one stack) pass.
struct AlgoNgstReport {
  std::uint16_t lsb_mask = 0;          ///< window C delimiter used
  std::uint16_t msb_mask = 0;          ///< window A delimiter used
  std::size_t pixels_examined = 0;
  std::size_t pixels_corrected = 0;    ///< pixels with a non-zero correction
  std::size_t bits_corrected = 0;      ///< total bits flipped back
  /// Corrections the plausibility gate rejected: the voter said "flip" but
  /// the arithmetic deviation disagreed.  A proxy for averted false alarms.
  std::size_t pixels_vetoed = 0;
};

/// The preprocessing algorithm.  Stateless and const; one instance can be
/// shared across threads/nodes.
class AlgoNgst {
 public:
  /// \throws std::invalid_argument for odd/zero Υ or Λ outside [0, 100].
  explicit AlgoNgst(AlgoNgstConfig config = {});

  [[nodiscard]] const AlgoNgstConfig& config() const noexcept { return config_; }

  /// Preprocesses one coordinate's time series in place.
  [[nodiscard]] AlgoNgstReport preprocess(std::span<std::uint16_t> series) const;

  /// Reference implementation that iterates bit positions serially across
  /// the active windows, mirroring the cost structure the paper measured in
  /// Fig. 3 (overhead grows with Λ because Λ widens window B).  Produces
  /// bit-identical output to preprocess(); used by the overhead bench and
  /// cross-checked by the test suite.
  [[nodiscard]] AlgoNgstReport preprocess_bitserial(
      std::span<std::uint16_t> series) const;

  /// Preprocesses every coordinate of a temporal stack.
  ///
  /// Hot path: coordinates are processed in tile blocks — a tile of (x, y)
  /// series is gathered frame-major into per-lane scratch, voted there by
  /// the dispatched kernel, and scattered back — and rows are distributed
  /// over `config().threads` lanes.  The steady-state path performs zero heap
  /// allocations per pixel, and the output (pixels and report counters) is
  /// bit-identical for every thread count, including 1.
  [[nodiscard]] AlgoNgstReport preprocess(
      common::TemporalStack<std::uint16_t>& stack) const;

 private:
  template <bool BitSerial>
  [[nodiscard]] AlgoNgstReport run(std::span<std::uint16_t> series,
                                   NgstScratch& scratch) const;

  AlgoNgstConfig config_;
};

}  // namespace spacefts::core
