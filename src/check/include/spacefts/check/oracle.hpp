/// \file oracle.hpp
/// Naive scalar golden references for the voting algorithms and the Rice
/// codec.
///
/// Every function here re-derives the paper's semantics from scratch —
/// straight-line loops, full sorts instead of nth_element, fresh vectors
/// instead of scratch reuse — so the code audits directly against PAPER.md
/// (Algorithm 1 and §7) rather than against the optimized implementation it
/// checks.  The optimized `src/core` paths are specified to be bit-identical
/// to these references for every thread count; the differential harness
/// (differential.hpp) enforces that.
///
/// Oracle semantics mirrored deliberately:
///  * voter thresholds: full ascending sort, element at the Λ-derived rank,
///    rounded up to a power of two [R2];
///  * window masks from the min/max per-way thresholds [R3];
///  * per-pixel vote: unanimous AND everywhere, (n−1)-of-n GRT inside
///    window A only (and only with ≥ 3 voters), window C masked off [R4];
///  * the carry-propagation plausibility gate of §3.1;
///  * report counters accumulate in row-major pixel order, the window masks
///    keep the last processed series' value ("last pixel wins") — matching
///    the serial sweep the threaded stack path reproduces.
///
/// The Rice references write and read their streams one bit at a time, the
/// way the codec first shipped, and restate the format from its
/// definition: a 5-bit k per 32-sample block (31 = verbatim 16-bit
/// samples), a unary quotient bounded by the largest legal residual, k
/// remainder bits, and the zigzag-mapped delta against the previous
/// sample.
///
/// The CRC-32 reference divides the message bit by bit in the textbook
/// MSB-first register with the unreflected polynomial 0x04C11DB7, so it
/// shares neither the reflected tables nor the folding kernel of
/// edac::crc32.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"

namespace spacefts::check {

/// Golden Algo_NGST over one temporal series, in place.  Same contract as
/// AlgoNgst::preprocess(span) — the threads knob of \p config is ignored
/// (the oracle is serial by construction).
[[nodiscard]] core::AlgoNgstReport oracle_ngst_series(
    std::span<std::uint16_t> series, const core::AlgoNgstConfig& config);

/// Golden Algo_NGST over a whole temporal stack, in place: every (x, y)
/// series in row-major order, counters summed, masks last-pixel-wins.
[[nodiscard]] core::AlgoNgstReport oracle_ngst_stack(
    common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config);

/// Golden Algo_OTIS over one band plane, in place.  Replicates the
/// three-phase pass (classification, clean-pair thresholds, snapshot vote)
/// with the exact arithmetic of the optimized path, expressed as plain
/// serial loops.
[[nodiscard]] core::AlgoOtisReport oracle_otis_plane(
    common::Image<float>& plane, double wavelength_um,
    const core::AlgoOtisConfig& config);

/// Golden Algo_OTIS over a radiance cube, band by band (spatial locality).
/// \throws std::invalid_argument if wavelengths_um.size() != cube.depth().
[[nodiscard]] core::AlgoOtisReport oracle_otis_cube(
    common::Cube<float>& cube, std::span<const double> wavelengths_um,
    const core::AlgoOtisConfig& config);

/// Golden Rice encoder, bit by bit: per block the first strict minimum of
/// the Rice cost over every k in 0..16, the verbatim escape when it is
/// strictly cheaper, and each unary quotient and remainder written one bit
/// at a time.  Same bytes as rice::compress16.
[[nodiscard]] std::vector<std::uint8_t> oracle_rice_encode(
    std::span<const std::uint16_t> samples);

/// Golden Rice decoder: exactly \p count samples of \p stream, bit by bit.
/// Same contract as rice::decompress16 — the same samples, or a
/// rice::BitstreamError with the same message.
[[nodiscard]] std::vector<std::uint16_t> oracle_rice_decode(
    std::span<const std::uint8_t> stream, std::size_t count);

/// Golden CRC-32 (IEEE 802.3), one message bit at a time.  Same contract
/// as edac::crc32, streaming included: pass a previous return value as
/// \p crc to continue.
[[nodiscard]] std::uint32_t oracle_crc32(std::span<const std::uint8_t> bytes,
                                         std::uint32_t crc = 0);

}  // namespace spacefts::check
