/// \file hamming.hpp
/// Hamming (72, 64) SEC-DED — the classical EDAC alternative the paper's
/// preprocessing is positioned against (§1 notes hardware redundancy "is
/// often prohibitively expensive"; §9 claims preprocessing "substantially
/// reduc[es] the need for expensive hardware and software redundancy").
///
/// The codec is the textbook extended Hamming code: 64 data bits, 7
/// Hamming parity bits (single-error correction) plus one overall parity
/// bit (double-error detection), 12.5% storage overhead.  The ablation
/// bench `ablation_edac` compares a SEC-DED-scrubbed memory with the
/// paper's zero-overhead preprocessing under all three fault models.
///
/// encode_parity() codes one word; encode_parities() codes a run of words
/// laid out in memory, as the downlink frame and the protected memory store
/// them, through the first row of detail::encode_parities_rows() the host
/// can run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "spacefts/common/cpu.hpp"

namespace spacefts::edac {

/// Decode outcome of one code word.
enum class DecodeStatus : std::uint8_t {
  kClean,          ///< syndrome zero: no error seen
  kCorrected,      ///< single-bit error corrected (data or parity)
  kUncorrectable,  ///< double (or worse, aliased) error detected
};

/// One decoded word.
struct DecodeResult {
  std::uint64_t data = 0;
  DecodeStatus status = DecodeStatus::kClean;
};

/// Computes the 8 check bits (7 Hamming + 1 overall) for a data word.
[[nodiscard]] std::uint8_t encode_parity(std::uint64_t data) noexcept;

/// Writes out[w] = encode_parity(word w) for the \p words native-order
/// 8-byte words at \p data, each read as std::memcpy reads a uint64_t.
/// \pre \p data holds 8 * words bytes and \p out words bytes, not
/// overlapping them; neither needs any alignment.
void encode_parities(const std::uint8_t* data, std::size_t words,
                     std::uint8_t* out) noexcept;

namespace detail {

/// One implementation of encode_parities(), with its signature.
using ParitiesFn = void (*)(const std::uint8_t*, std::size_t,
                            std::uint8_t*) noexcept;

/// encode_parities()'s dispatch table, widest first: eight words per step
/// through one GF(2) affine transform of their transposed bytes (x86 SIMD
/// builds; AVX-512F/BW, GFNI and AVX-512 VBMI), then the portable
/// per-word byte tables, which need nothing.  Every row writes the same
/// bytes.
[[nodiscard]] std::span<const common::cpu::Row<ParitiesFn>>
encode_parities_rows() noexcept;

}  // namespace detail

/// Decodes a (data, parity) pair, correcting a single flipped bit anywhere
/// in the 72-bit code word.
[[nodiscard]] DecodeResult decode(std::uint64_t data,
                                  std::uint8_t parity) noexcept;

}  // namespace spacefts::edac
