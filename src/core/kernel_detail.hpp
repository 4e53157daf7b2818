/// \file kernel_detail.hpp
/// Internal interface between the algorithm drivers (algo_ngst.cpp,
/// algo_otis.cpp) and the data-parallel kernel translation units
/// (kernel_swar.cpp, kernel_avx2.cpp, kernel_avx512.cpp), and the voter's
/// dispatch table (kernel.cpp), which tests/kernel_test.cpp reads too.
/// Not installed; the public dispatch surface is spacefts/core/kernel.hpp.
///
/// The AVX2 and AVX-512 entry points are defined only in builds that
/// compile their TU; only the voter table names them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "spacefts/common/cpu.hpp"
#include "spacefts/common/image.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/otis/bounds.hpp"

namespace spacefts::core::detail {

/// NGST SoA tile padding: a whole number of the dispatched kernel's u16
/// lane group, 32 for AVX-512 and 16 for the narrower vector kernels (a
/// multiple of their 4- and 16-lane groups, so they do no extra pad work).
inline constexpr std::size_t kNgstPadAvx512 = 32;
inline constexpr std::size_t kNgstPad = 16;

/// Pixel classification shared between the OTIS driver and its kernels.
/// kClean must stay 0: the vector path derives clean-lane masks by
/// comparing raw state bytes against zero.
enum class OtisPixelState : std::uint8_t {
  kClean = 0,      ///< conforming; acts as a voter
  kProtected = 1,  ///< natural trend (hypothesis 1); never touched
  kCandidate = 2,  ///< fault candidate; to be repaired
};

/// One NGST tile handed to a kernel: `tw` real coordinate series of `n`
/// readouts each, laid out frame-major in `scratch->soa`
/// (soa[t * tw_padded + k] = readout t of series k), padded with all-zero
/// series up to `tw_padded` (a multiple of the kernel's lane group).  Zero
/// pad series can never produce a correction — every XOR is 0, so the
/// unanimous AND is 0 — and the per-tile counters are derived from `tw`,
/// so padding affects neither data nor report.
///
/// `home` is where the tile lives in the stack: readout t of series k is
/// home[t * plane + k], and soa holds a copy of those `tw` columns.  The
/// kernel writes every accepted correction to both; it writes only the
/// `tw` real columns home, and nothing at all for a lane group whose gate
/// accepts nothing, so the caller never scatters the tile back.
struct NgstTileCtx {
  std::size_t tw = 0;         ///< real series in the tile
  std::size_t tw_padded = 0;  ///< allocated lane count (see kNgstPad)
  std::size_t n = 0;          ///< readouts per series (>= 3)
  const AlgoNgstConfig* cfg = nullptr;
  NgstScratch* scratch = nullptr;  ///< holds soa and the kernel work buffers
  std::uint16_t* home = nullptr;   ///< the tile's readout 0 in the stack
  std::size_t plane = 0;           ///< stack plane stride, in words
};

/// Phase 1 of one OTIS plane pass: per pixel the median of its finite 3x3
/// neighbours, the hypothesis-(2) bounds test, and the residual against
/// the median.  The kernel writes every pixel of the three output images.
struct OtisPhase1Ctx {
  const common::Image<float>* plane = nullptr;
  common::Image<std::uint8_t>* state = nullptr;  ///< kCandidate if out of bounds, else kClean
  common::Image<float>* medians = nullptr;       ///< 3x3 medians (NaN if none finite)
  common::Image<float>* residuals = nullptr;     ///< value - median; NaN if out of bounds
  const otis::RadianceInterval* interval = nullptr;
  const AlgoOtisConfig* cfg = nullptr;
  std::size_t lanes = 1;  ///< resolved worker lanes for the row partition
};

/// Phases 2 + 3 of one OTIS plane pass (dynamic thresholds from clean
/// pairs, then the Jacobi bit vote + candidate fallback).  The trend test
/// between the phases stays in algo_otis.cpp; this context carries the
/// classification.
struct OtisPhase23Ctx {
  common::Image<float>* plane = nullptr;
  const common::Image<std::uint8_t>* state = nullptr;   ///< OtisPixelState
  const common::Image<float>* medians = nullptr;        ///< 3x3 medians
  const otis::RadianceInterval* interval = nullptr;
  double tau = 0.0;  ///< conformance threshold from phase 1
  const AlgoOtisConfig* cfg = nullptr;
  std::size_t lanes = 1;  ///< resolved worker lanes for the row partition
};

/// The entry points of one voter kernel, defined by its TU.
struct VoterEntries {
  /// Runs the XOR/threshold/vote/mask/apply stages over one tile, in place
  /// in scratch->soa and through to the tile's home in the stack.
  /// Bit-identical to running AlgoNgst::preprocess over each series and
  /// accumulating the reports in series order.
  AlgoNgstReport (*ngst_tile)(const NgstTileCtx&);
  std::size_t ngst_pad;  ///< NGST SoA tiles pad to a multiple of this
  /// Bit-identical to check::oracle_otis_plane's first classification
  /// sweep at every lane count.
  void (*otis_phase1)(const OtisPhase1Ctx&);
  /// Appends bit_corrected / median_replaced to the report.  Bit-identical
  /// to check::oracle_otis_plane's phases 2 + 3 at every lane count.
  void (*otis_phase23)(const OtisPhase23Ctx&, AlgoOtisReport&);
};
extern const VoterEntries kSwarEntries;
extern const VoterEntries kAvx2Entries;    ///< x86 SIMD builds only
extern const VoterEntries kAvx512Entries;  ///< x86 SIMD builds only

/// One row of the voter's dispatch table: the kernel, the telemetry
/// counters that name it, and its entry points.
struct Voter {
  Kernel kernel;
  const char* ngst_counter;  ///< "ngst.kernel.<name>"
  const char* otis_counter;  ///< "otis.kernel.<name>"
  const VoterEntries* entries;
};

/// The voter's dispatch table, widest first; the last row, kSwar, needs
/// no feature.  Every function of kernel.hpp reads it.
[[nodiscard]] std::span<const common::cpu::Row<Voter>> voter_rows() noexcept;

/// The row that runs for \p requested, as resolve_kernel() resolves it.
[[nodiscard]] const Voter& voter(Kernel requested) noexcept;

}  // namespace spacefts::core::detail
