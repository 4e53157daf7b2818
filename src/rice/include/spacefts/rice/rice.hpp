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

namespace spacefts::rice {

/// Residuals per independently parameterised block.
inline constexpr std::size_t kBlockSamples = 32;

/// Compresses 16-bit samples. The output is self-contained except for the
/// sample count, which the caller must carry (as FITS does via NAXISn).
/// On x86-64 hosts with AVX2 and BMI2 (SPACEFTS_SIMD builds) the residuals,
/// the k choice and the codes of each full block after the first are
/// formed in vector lanes; every path writes the same bytes.
[[nodiscard]] std::vector<std::uint8_t> compress16(
    std::span<const std::uint16_t> samples);

namespace detail {

/// The portable per-sample path of compress16(), whatever the host: the
/// reference the vector encoder is tested against.
[[nodiscard]] std::vector<std::uint8_t> compress16_portable(
    std::span<const std::uint16_t> samples);

}  // namespace detail

/// Decompresses exactly \p count samples.  On x86-64 hosts with BMI2 and
/// LZCNT (SPACEFTS_SIMD builds) the same code runs compiled for them.
/// \throws BitstreamError if the stream is truncated or malformed.
[[nodiscard]] std::vector<std::uint16_t> decompress16(
    std::span<const std::uint8_t> stream, std::size_t count);

/// Compression ratio achieved on \p samples (uncompressed bytes / compressed
/// bytes); returns 0 for empty input.
[[nodiscard]] double compression_ratio16(std::span<const std::uint16_t> samples);

}  // namespace spacefts::rice
