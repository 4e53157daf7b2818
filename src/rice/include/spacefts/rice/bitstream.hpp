/// \file bitstream.hpp
/// MSB-first bit-level I/O used by the Rice codec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace spacefts::rice {

/// Thrown when a reader runs past the end of its buffer.
class BitstreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends bits MSB-first into a growing byte buffer, a 32-bit
/// big-endian word at a time.
class BitWriter {
 public:
  /// Writes the low \p count bits of \p value (MSB of that slice first).
  /// \pre count <= 64.
  void write_bits(std::uint64_t value, unsigned count);

  /// Writes \p count consecutive one-bits followed by a zero (unary code).
  void write_unary(std::uint64_t count);

  /// Reserves room for \p bytes of output, so a caller that knows a bound
  /// on the stream length pays for no regrowth.
  void reserve(std::size_t bytes);

  /// Pads to a byte boundary with zeros and returns the buffer.  The writer
  /// is reset to its initial state, so it can be reused for another stream.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Bits written so far (before padding).
  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }

 private:
  /// Appends the low \p count bits of \p value. \pre 0 < count <= 32 and
  /// no bits of \p value above \p count.
  void put(std::uint64_t value, unsigned count);

  std::vector<std::uint8_t> bytes_;  ///< whole flushed words
  std::uint64_t acc_ = 0;            ///< unflushed bits, in the low end
  unsigned pending_ = 0;             ///< unflushed bit count, < 32
  std::size_t bit_count_ = 0;
};

/// Reads bits MSB-first from a byte buffer through a 64-bit window.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads \p count bits as an unsigned value. \pre count <= 64.
  /// \throws BitstreamError past the end.
  [[nodiscard]] std::uint64_t read_bits(unsigned count);

  /// Reads a unary code: the number of one-bits before the next zero.
  /// \param max_run upper bound on the run length a well-formed stream can
  ///        contain at this position; a longer run is corruption and throws
  ///        instead of consuming the rest of the stream bit by bit.
  /// \throws BitstreamError past the end or when the run exceeds \p max_run.
  [[nodiscard]] std::uint64_t read_unary(
      std::uint64_t max_run = std::numeric_limits<std::uint64_t>::max());

  /// Bits consumed so far.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Total bits available.
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size() * 8; }

 private:
  /// The 64 bits from position() on, MSB first; bits past the end of the
  /// buffer read as zeros and at least 57 bits are real when available.
  /// Never loads a byte past the buffer.  \pre position() < size().
  [[nodiscard]] std::uint64_t window() const noexcept;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace spacefts::rice
