#include "spacefts/edac/hamming.hpp"

#include <bit>
#include <cstring>

#if defined(SPACEFTS_X86_SIMD)
#include <immintrin.h>
#endif

namespace spacefts::edac {

namespace {

// Code-word layout: positions 1..71 in standard Hamming numbering.
// Positions 1, 2, 4, 8, 16, 32, 64 hold the seven Hamming parity bits;
// every other position up to 71 holds one data bit, in ascending order.
// Bit 0 of the parity byte is Hamming p1 (position 1) ... bit 6 is p64;
// bit 7 is the overall (extended) parity over all 72 bits.

/// Code-word position of data bit `i` (0-based), skipping parity slots.
constexpr int data_position(int i) noexcept {
  // Precomputable: walk positions 1.. skipping powers of two.
  int position = 0;
  int seen = -1;
  while (seen < i) {
    ++position;
    if ((position & (position - 1)) != 0) ++seen;  // not a power of two
  }
  return position;
}

/// Lookup table: position of each of the 64 data bits.
struct PositionTable {
  int at[64];
  constexpr PositionTable() : at{} {
    for (int i = 0; i < 64; ++i) at[i] = data_position(i);
  }
};
constexpr PositionTable kPositions{};

/// XOR of code-word positions of all set data bits = Hamming syndrome core.
[[nodiscard]] constexpr std::uint32_t position_xor(std::uint64_t data) noexcept {
  std::uint32_t acc = 0;
  while (data != 0) {
    const int i = std::countr_zero(data);
    acc ^= static_cast<std::uint32_t>(kPositions.at[i]);
    data &= data - 1;
  }
  return acc;
}

/// The 8 check bits of a data word, from the definition: the 7 Hamming bits
/// of position_xor, and the overall parity of all 72 bits in bit 7.
[[nodiscard]] constexpr std::uint8_t parity_of(std::uint64_t data) noexcept {
  const std::uint32_t hamming = position_xor(data) & 0x7Fu;
  const int ones = std::popcount(data) + std::popcount(hamming);
  return static_cast<std::uint8_t>(hamming | (ones % 2 != 0 ? 0x80u : 0u));
}

/// Every check bit is an XOR of data bits, so the parity of a word is the
/// XOR of the parities of its eight bytes in place: at[b][v] is the parity
/// of byte value v at byte b.
struct ByteParityTable {
  std::uint8_t at[8][256];
  constexpr ByteParityTable() : at{} {
    for (int b = 0; b < 8; ++b) {
      for (std::uint64_t v = 0; v < 256; ++v) {
        at[b][v] = parity_of(v << (8 * b));
      }
    }
  }
};
constexpr ByteParityTable kByteParity{};

/// Index of the data bit stored at code-word position `pos`, or -1 if the
/// position holds a parity bit / is out of range.
[[nodiscard]] constexpr int data_index_of_position(int pos) noexcept {
  if (pos <= 0 || (pos & (pos - 1)) == 0) return -1;
  int index = -1;
  for (int p = 1; p <= pos; ++p) {
    if ((p & (p - 1)) != 0) ++index;
  }
  return index <= 63 ? index : -1;
}

/// The portable row: the byte tables, one word at a time.
void encode_parities_table(const std::uint8_t* data, std::size_t words,
                           std::uint8_t* out) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word;
    std::memcpy(&word, data + 8 * w, sizeof word);
    out[w] = encode_parity(word);
  }
}

#if defined(SPACEFTS_X86_SIMD)

/// kByteParity.at[b] as the 8x8 bit matrix of vgf2p8affineqb: byte 7 - i
/// of the qword selects the input bits that output bit i XORs, so an
/// affine transform of byte value v by matrix b yields kByteParity.at[b][v].
struct ByteParityMatrices {
  std::uint64_t at[8];
  constexpr ByteParityMatrices() : at{} {
    for (int b = 0; b < 8; ++b) {
      for (int i = 0; i < 8; ++i) {
        std::uint64_t row = 0;
        for (int k = 0; k < 8; ++k) {
          row |= std::uint64_t{(kByteParity.at[b][1u << k] >> i) & 1u} << k;
        }
        at[b] |= row << (8 * (7 - i));
      }
    }
  }
};
constexpr ByteParityMatrices kMatrices{};

/// vpermb indices that transpose eight words of eight bytes: byte b of word
/// w moves to byte w of qword lane b.
struct TransposeIndex {
  std::uint8_t at[64];
  constexpr TransposeIndex() : at{} {
    for (int b = 0; b < 8; ++b) {
      for (int w = 0; w < 8; ++w) {
        at[8 * b + w] = static_cast<std::uint8_t>(8 * w + b);
      }
    }
  }
};
constexpr TransposeIndex kTranspose{};

/// The GFNI row: eight words per step.  Their bytes are transposed so that
/// qword lane b holds byte b of each word, one affine transform applies
/// matrix b to lane b, and XOR-folding the eight lanes leaves the eight
/// parity bytes in qword 0.  The last 0-7 words take the table row.
[[gnu::target("avx512f,avx512bw,avx512vbmi,gfni")]] void encode_parities_gfni(
    const std::uint8_t* data, std::size_t words, std::uint8_t* out) noexcept {
  constexpr __mmask64 kAll8 = ~__mmask64{0};
  const __m512i transpose = _mm512_loadu_si512(kTranspose.at);
  const __m512i matrices = _mm512_loadu_si512(kMatrices.at);
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i bytes = _mm512_maskz_permutexvar_epi8(
        kAll8, transpose, _mm512_loadu_si512(data + 8 * w));
    __m512i v = _mm512_gf2p8affine_epi64_epi8(bytes, matrices, 0);
    // Lanes b ^= b + 4, then b ^= b + 2, then b ^= b + 1.
    v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E));
    v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1));
    v = _mm512_xor_si512(
        v, _mm512_maskz_shuffle_epi32(0xFFFF, v, _MM_PERM_BADC));
    _mm512_mask_storeu_epi8(out + w, 0xFF, v);
  }
  encode_parities_table(data + 8 * w, words - w, out + w);
}

#endif  // SPACEFTS_X86_SIMD

constexpr common::cpu::Row<detail::ParitiesFn> kParitiesRows[] = {
#if defined(SPACEFTS_X86_SIMD)
    {"gfni", common::cpu::kAvx512 | common::cpu::kGfni, encode_parities_gfni},
#endif
    {"table", 0, encode_parities_table},
};

}  // namespace

namespace detail {

std::span<const common::cpu::Row<ParitiesFn>> encode_parities_rows() noexcept {
  return kParitiesRows;
}

}  // namespace detail

std::uint8_t encode_parity(std::uint64_t data) noexcept {
  std::uint8_t parity = 0;
  for (int b = 0; b < 8; ++b) {
    parity ^= kByteParity.at[b][(data >> (8 * b)) & 0xFFu];
  }
  return parity;
}

void encode_parities(const std::uint8_t* data, std::size_t words,
                     std::uint8_t* out) noexcept {
  static const detail::ParitiesFn fn =
      common::cpu::pick(detail::encode_parities_rows()).impl;
  fn(data, words, out);
}

DecodeResult decode(std::uint64_t data, std::uint8_t parity) noexcept {
  DecodeResult out{data, DecodeStatus::kClean};
  const std::uint8_t expected = encode_parity(data);
  const std::uint8_t syndrome_bits =
      static_cast<std::uint8_t>((expected ^ parity) & 0x7F);
  // Overall-parity check over the received 72 bits.
  const int ones = std::popcount(data) +
                   std::popcount(static_cast<std::uint32_t>(parity & 0x7Fu));
  const bool overall_stored = (parity & 0x80) != 0;
  const bool overall_mismatch = ((ones % 2) != 0) != overall_stored;

  if (syndrome_bits == 0 && !overall_mismatch) {
    return out;  // clean
  }
  if (syndrome_bits == 0 && overall_mismatch) {
    // The overall parity bit itself flipped.
    out.status = DecodeStatus::kCorrected;
    return out;
  }
  if (overall_mismatch) {
    // Odd number of flips with a non-zero syndrome: a single-bit error at
    // code-word position `syndrome_bits`.
    const int index = data_index_of_position(syndrome_bits);
    if (index >= 0) {
      out.data = data ^ (std::uint64_t{1} << index);
    }
    // index < 0: the flipped bit was one of the Hamming parity bits — the
    // data is intact either way.
    out.status = DecodeStatus::kCorrected;
    return out;
  }
  // Non-zero syndrome with even overall parity: a double error.  SEC-DED
  // detects it but cannot repair.
  out.status = DecodeStatus::kUncorrectable;
  return out;
}

}  // namespace spacefts::edac
