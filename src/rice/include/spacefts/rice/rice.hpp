/// \file rice.hpp
/// Block-adaptive Rice (Golomb power-of-two) compression.
///
/// NGST downlinks one integrated image per baseline "after compression
/// using [the] Rice Algorithm" (§2); this codec is the downlink substrate
/// used by the end-to-end experiments, and also demonstrates the paper's
/// side-claim that bit flips degrade the achievable compression ratio
/// (cosmic rays alone cost "about 12%").
///
/// Scheme (CCSDS-121 / FITS RICE_1 family): samples are differenced against
/// the previous sample, residuals are zigzag-mapped to unsigned, and each
/// block of kBlockSamples residuals is coded with the Rice parameter k that
/// minimises that block's cost; k is sent in a small header per block, with
/// an escape value for incompressible blocks, which are stored verbatim.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spacefts/common/cpu.hpp"

namespace spacefts::rice {

/// Residuals per independently parameterised block.
inline constexpr std::size_t kBlockSamples = 32;

/// Compresses 16-bit samples. The output is self-contained except for the
/// sample count, which the caller must carry (as FITS does via NAXISn).
/// The first row of detail::compress16_rows() the host can run codes it.
[[nodiscard]] std::vector<std::uint8_t> compress16(
    std::span<const std::uint16_t> samples);

/// Decompresses exactly \p count samples, through the first row of
/// detail::decompress16_rows() the host can run.
/// \throws BitstreamError if the stream is truncated or malformed.
[[nodiscard]] std::vector<std::uint16_t> decompress16(
    std::span<const std::uint8_t> stream, std::size_t count);

namespace detail {

/// One implementation of compress16() / of decompress16().
using Encoder = std::vector<std::uint8_t> (*)(std::span<const std::uint16_t>);
using Decoder = std::vector<std::uint16_t> (*)(std::span<const std::uint8_t>,
                                               std::size_t);

/// compress16()'s dispatch table, widest first: residuals, the k choice
/// and the codes of each full block after the first in AVX2 lanes (x86
/// SIMD builds; AVX2 and BMI2), then the portable per-sample coder, which
/// needs nothing.  Every row writes the same bytes.
[[nodiscard]] std::span<const common::cpu::Row<Encoder>>
compress16_rows() noexcept;

/// decompress16()'s dispatch table, widest first: the portable decoder
/// compiled for BMI2 and LZCNT (x86 SIMD builds), then the portable
/// decoder itself, which needs nothing.  Every row returns the same
/// samples and throws on the same streams.
[[nodiscard]] std::span<const common::cpu::Row<Decoder>>
decompress16_rows() noexcept;

}  // namespace detail

/// Compression ratio achieved on \p samples (uncompressed bytes / compressed
/// bytes); returns 0 for empty input.
[[nodiscard]] double compression_ratio16(std::span<const std::uint16_t> samples);

}  // namespace spacefts::rice
