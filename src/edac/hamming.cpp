#include "spacefts/edac/hamming.hpp"

#include <bit>

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

}  // namespace

std::uint8_t encode_parity(std::uint64_t data) noexcept {
  std::uint8_t parity = 0;
  for (int b = 0; b < 8; ++b) {
    parity ^= kByteParity.at[b][(data >> (8 * b)) & 0xFFu];
  }
  return parity;
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
