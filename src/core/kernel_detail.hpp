/// \file kernel_detail.hpp
/// Internal interface between the algorithm drivers (algo_ngst.cpp,
/// algo_otis.cpp) and the data-parallel kernel translation units
/// (kernel_swar.cpp, kernel_avx2.cpp, kernel_avx512.cpp).  Not installed;
/// the public dispatch surface is spacefts/core/kernel.hpp.
///
/// The AVX2 and AVX-512 entry points exist only when the build compiled
/// their TU (SPACEFTS_HAVE_AVX2, SPACEFTS_HAVE_AVX512); dispatch goes
/// through core::resolve_kernel(), which never selects Kernel::kAvx2 or
/// Kernel::kAvx512 without it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "spacefts/common/image.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/otis/bounds.hpp"

namespace spacefts::core::detail {

/// Telemetry counter naming the kernel that ran ("ngst.kernel.avx512",
/// "otis.kernel.swar", ...), from the same table as kernel_name().
[[nodiscard]] const char* ngst_kernel_counter(Kernel kernel) noexcept;
[[nodiscard]] const char* otis_kernel_counter(Kernel kernel) noexcept;

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

/// Runs the XOR/threshold/vote/mask/apply stages over one tile, in place in
/// scratch->soa and through to the tile's home in the stack.  Bit-identical
/// to running AlgoNgst::preprocess over each series and accumulating the
/// reports in series order.
[[nodiscard]] AlgoNgstReport ngst_tile_swar(const NgstTileCtx& ctx);
#if defined(SPACEFTS_HAVE_AVX2)
[[nodiscard]] AlgoNgstReport ngst_tile_avx2(const NgstTileCtx& ctx);
#endif
#if defined(SPACEFTS_HAVE_AVX512)
[[nodiscard]] AlgoNgstReport ngst_tile_avx512(const NgstTileCtx& ctx);
#endif

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

/// Bit-identical to check::oracle_otis_plane's first classification
/// sweep at every lane count.
void otis_phase1_swar(const OtisPhase1Ctx& ctx);
#if defined(SPACEFTS_HAVE_AVX2)
void otis_phase1_avx2(const OtisPhase1Ctx& ctx);
#endif
#if defined(SPACEFTS_HAVE_AVX512)
void otis_phase1_avx512(const OtisPhase1Ctx& ctx);
#endif

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

/// Appends bit_corrected / median_replaced to \p report.  Bit-identical to
/// check::oracle_otis_plane's phases 2 + 3 at every lane count.
void otis_phase23_swar(const OtisPhase23Ctx& ctx, AlgoOtisReport& report);
#if defined(SPACEFTS_HAVE_AVX2)
void otis_phase23_avx2(const OtisPhase23Ctx& ctx, AlgoOtisReport& report);
#endif
#if defined(SPACEFTS_HAVE_AVX512)
void otis_phase23_avx512(const OtisPhase23Ctx& ctx, AlgoOtisReport& report);
#endif

}  // namespace spacefts::core::detail
