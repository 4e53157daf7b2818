#include "spacefts/core/algo_ngst.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "kernel_detail.hpp"
#include "spacefts/common/bitops.hpp"
#include "spacefts/common/parallel.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/core/sort_median.hpp"
#include "spacefts/core/voter_matrix.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::core {

AlgoNgst::AlgoNgst(AlgoNgstConfig config) : config_(config) {
  if (config_.upsilon == 0 || config_.upsilon % 2 != 0) {
    throw std::invalid_argument("AlgoNgst: upsilon must be even and > 0");
  }
  if (!is_valid_sensitivity(config_.lambda)) {
    throw std::invalid_argument("AlgoNgst: lambda outside [0, 100]");
  }
}

namespace {

/// Width of the coordinate tiles gathered into contiguous scratch by the
/// stack path: 64 series of 64 readouts are 8 KiB, small enough that the
/// tile's working set stays in L1.  A multiple of every kernel's pad, so a
/// full tile needs no pad series.
constexpr std::size_t kTileWidth = 64;
static_assert(kTileWidth % detail::kNgstPad == 0 &&
              kTileWidth % detail::kNgstPadAvx512 == 0);

/// Bit-serial equivalent of correction_vector(): walks bit positions from
/// the window-C boundary upward, tallying votes per bit.  Identical output;
/// cost proportional to the number of active bit positions, which is how
/// the paper's implementation scales with Λ.
[[nodiscard]] std::uint16_t correction_vector_bitserial(
    std::span<const std::uint16_t> voters, std::uint16_t lsb_mask,
    std::uint16_t msb_mask) {
  if (voters.size() < 2 || lsb_mask == 0) return 0;
  const unsigned first_bit =
      static_cast<unsigned>(std::countr_zero(lsb_mask));
  std::uint16_t corr = 0;
  for (unsigned bit = first_bit; bit < 16; ++bit) {
    const std::uint16_t probe = static_cast<std::uint16_t>(1u << bit);
    std::size_t assenting = 0;
    for (std::uint16_t v : voters) {
      if (v & probe) ++assenting;
    }
    const bool unanimous = assenting == voters.size();
    const bool near_unanimous =
        voters.size() >= 3 && assenting + 1 >= voters.size();
    const bool in_window_a = (msb_mask & probe) != 0;
    if (unanimous || (near_unanimous && in_window_a)) {
      corr = static_cast<std::uint16_t>(corr | probe);
    }
  }
  return corr;
}

/// Carry-propagation plausibility gate (§3.1 considers window boundaries
/// "after taking carry propagation effects into consideration"): two values
/// a small arithmetic step apart can differ in a long run of bits when the
/// step crosses a power-of-two boundary, so XOR unanimity alone
/// occasionally indicts a clean pixel.  A genuine flip of bit b, however,
/// displaces the *value* by ~2^b; a carry coincidence does not.  The
/// correction is accepted only if the pixel deviates from the median of its
/// consulted neighbours by at least 3/4 of the top corrected bit's weight.
/// \p partners is caller-owned scratch sized by the matrix (up to Υ
/// entries), so arbitrarily large Υ cannot overflow it.
[[nodiscard]] bool correction_is_plausible(
    std::span<const std::uint16_t> series, std::size_t i,
    const VoterMatrix<std::uint16_t>& matrix, std::uint16_t corr,
    std::vector<std::uint16_t>& partners) {
  partners.clear();
  const std::size_t n = series.size();
  for (const auto& way : matrix.ways) {
    const std::size_t d = way.distance;
    if (i + d < n) partners.push_back(series[i + d]);
    if (i >= d) partners.push_back(series[i - d]);
  }
  const std::size_t count = partners.size();
  if (count == 0) return false;
  // Median via the branchless small-sort (networks for the production
  // counts 4 and 8, insertion sort at series boundaries); a full sort of
  // the same multiset yields the same median either way.
  sort_small_u16(partners.data(), count);
  const std::int32_t med = partners[count / 2];
  const std::int32_t dev = std::abs(static_cast<std::int32_t>(series[i]) - med);
  const std::int32_t top_weight = std::int32_t{1}
                                  << common::msb_index(corr);
  return 4 * dev >= 3 * top_weight;
}

/// Serial-order accumulation of one pixel's (or one chunk's) report into a
/// running total: counters add, the masks keep the most recent value — the
/// same "last pixel wins" semantics the serial sweep has always had.
void accumulate(AlgoNgstReport& total, const AlgoNgstReport& r) {
  total.pixels_examined += r.pixels_examined;
  total.pixels_corrected += r.pixels_corrected;
  total.bits_corrected += r.bits_corrected;
  total.pixels_vetoed += r.pixels_vetoed;
  total.lsb_mask = r.lsb_mask;
  total.msb_mask = r.msb_mask;
}

/// Publishes one stack's report to the voter's telemetry counters.
void count_stack(const detail::Voter& voter, const AlgoNgstReport& total) {
  telemetry::counter(voter.ngst_counter).add(1);
  telemetry::counter("ngst.pixels_corrected").add(total.pixels_corrected);
  telemetry::counter("ngst.bits_corrected").add(total.bits_corrected);
  telemetry::counter("voter.gate_vetoed").add(total.pixels_vetoed);
}

}  // namespace

template <bool BitSerial>
AlgoNgstReport AlgoNgst::run(std::span<std::uint16_t> series,
                             NgstScratch& scratch) const {
  AlgoNgstReport report;
  report.pixels_examined = series.size();
  // Λ = 0: header-sanity-only mode, never touches the data (§3.2).
  if (config_.lambda <= 0.0 || series.size() < 3) return report;

  rebuild_voter_matrix<std::uint16_t>(series, config_.upsilon, config_.lambda,
                                      config_.enable_pruning, scratch.matrix,
                                      scratch.sort_buf);
  const VoterMatrix<std::uint16_t>& matrix = scratch.matrix;
  if (matrix.ways.empty()) return report;

  // Ablation A1: with windows disabled every bit needs unanimity and
  // nothing is masked off.
  const std::uint16_t lsb_mask =
      config_.enable_windows ? matrix.lsb_mask : std::uint16_t{0xFFFF};
  const std::uint16_t msb_mask =
      config_.enable_windows ? matrix.msb_mask : std::uint16_t{0};
  report.lsb_mask = lsb_mask;
  report.msb_mask = msb_mask;

  const std::size_t n = series.size();
  std::vector<std::uint16_t>& voters = scratch.voters;
  voters.reserve(config_.upsilon);
  for (std::size_t i = 0; i < n; ++i) {
    gather_voters(matrix, i, n, voters);
    std::uint16_t corr;
    if constexpr (BitSerial) {
      corr = correction_vector_bitserial(voters, lsb_mask, msb_mask);
    } else {
      corr = correction_vector<std::uint16_t>(voters, lsb_mask, msb_mask);
    }
    if (corr != 0) {
      if (config_.enable_plausibility_gate &&
          !correction_is_plausible(series, i, matrix, corr,
                                   scratch.partners)) {
        ++report.pixels_vetoed;
      } else {
        series[i] = static_cast<std::uint16_t>(series[i] ^ corr);
        ++report.pixels_corrected;
        report.bits_corrected += static_cast<std::size_t>(std::popcount(corr));
      }
    }
  }
  return report;
}

AlgoNgstReport AlgoNgst::preprocess(std::span<std::uint16_t> series) const {
  NgstScratch scratch;
  return run<false>(series, scratch);
}

AlgoNgstReport AlgoNgst::preprocess_bitserial(
    std::span<std::uint16_t> series) const {
  NgstScratch scratch;
  return run<true>(series, scratch);
}

AlgoNgstReport AlgoNgst::preprocess(
    common::TemporalStack<std::uint16_t>& stack) const {
  const std::size_t width = stack.width();
  const std::size_t height = stack.height();
  const std::size_t frames = stack.frames();
  AlgoNgstReport total;
  if (width == 0 || height == 0 || frames == 0) return total;

  SPACEFTS_TSPAN("ngst.preprocess_stack", {"lambda", config_.lambda},
                 {"frames", static_cast<double>(frames)});
  // Kernel dispatch: every kernel gets frame-major SoA tiles padded to
  // whole lane groups (pad series are all-zero and can never produce a
  // correction).
  const detail::Voter& voter = detail::voter(config_.kernel);
  // Λ = 0 or fewer than three readouts: no series can change (the same
  // early-out as run() and the tile kernels), so skip the gather, vote and
  // scatter sweep and report what it would have.
  if (config_.lambda <= 0.0 || frames < 3) {
    total.pixels_examined = width * height * frames;
    count_stack(voter, total);
    return total;
  }
  const detail::VoterEntries& kernel = *voter.entries;
  const std::size_t pad = kernel.ngst_pad;
  const std::size_t lanes = common::parallel::resolve_threads(config_.threads);
  std::vector<NgstScratch> scratch(std::max<std::size_t>(lanes, 1));
  // One report per row, reduced in row order below: the partition, the
  // per-pixel work, and the reduction order are all independent of the lane
  // count, so the result is bit-identical to the serial sweep.
  std::vector<AlgoNgstReport> row_reports(height);

  std::uint16_t* const data = stack.cube().voxels().data();
  const std::size_t plane = width * height;
  common::parallel::parallel_for(
      height, /*grain=*/1, lanes,
      [&](std::size_t y0, std::size_t y1, std::size_t lane) {
        NgstScratch& s = scratch[lane];
        for (std::size_t y = y0; y < y1; ++y) {
          AlgoNgstReport& row = row_reports[y];
          for (std::size_t x0 = 0; x0 < width; x0 += kTileWidth) {
            const std::size_t tw = std::min(kTileWidth, width - x0);
            SPACEFTS_TSPAN("ngst.tile", {"lambda", config_.lambda},
                           {"width", static_cast<double>(tw)});
            // Frame-major SoA gather: each frame's tile row is one
            // contiguous copy (both sides contiguous), of a compile-time
            // size for a full tile, padded with zero series to a whole
            // number of the kernel's lane group.  The kernel writes its
            // corrections back to the stack itself.
            const std::size_t twp = (tw + pad - 1) / pad * pad;
            s.soa.resize(twp * frames);
            std::uint16_t* const home = data + y * width + x0;
            for (std::size_t t = 0; t < frames; ++t) {
              const std::uint16_t* src = home + t * plane;
              std::uint16_t* dst = s.soa.data() + t * twp;
              if (tw == kTileWidth) {
                std::memcpy(dst, src, kTileWidth * sizeof(std::uint16_t));
              } else {
                std::memcpy(dst, src, tw * sizeof(std::uint16_t));
                std::fill(dst + tw, dst + twp, std::uint16_t{0});
              }
            }
            // One span per tile for the voting itself (per-series spans
            // would swamp the ring: a 128x128x64 stack has 16k series).
            SPACEFTS_TSPAN("voter.vote", {"series", static_cast<double>(tw)});
            const detail::NgstTileCtx ctx{
                tw, twp, frames, &config_, &s, home, plane};
            accumulate(row, kernel.ngst_tile(ctx));
          }
        }
      });
  for (const AlgoNgstReport& row : row_reports) accumulate(total, row);
  count_stack(voter, total);
  return total;
}

}  // namespace spacefts::core
