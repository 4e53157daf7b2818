#include "spacefts/rice/bitstream.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace spacefts::rice {

namespace {

/// Bits a window holds past its bit offset: 64 minus at most 7.
constexpr unsigned kWindowBits = 57;

constexpr const char* kPastEnd = "BitReader: past end of stream";

}  // namespace

void BitWriter::put(std::uint64_t value, unsigned count) {
  // acc_ holds pending_ < 32 unflushed bits in its low end; bits above them
  // are already flushed and fall off the top as later bits shift in.
  acc_ = (acc_ << count) | value;
  pending_ += count;
  if (pending_ >= 32) {
    pending_ -= 32;
    const auto word = static_cast<std::uint32_t>(acc_ >> pending_);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + 4);
    bytes_[at] = static_cast<std::uint8_t>(word >> 24);
    bytes_[at + 1] = static_cast<std::uint8_t>(word >> 16);
    bytes_[at + 2] = static_cast<std::uint8_t>(word >> 8);
    bytes_[at + 3] = static_cast<std::uint8_t>(word);
  }
}

void BitWriter::write_bits(std::uint64_t value, unsigned count) {
  if (count == 0) return;
  value &= ~std::uint64_t{0} >> (64 - count);  // drop junk above count
  bit_count_ += count;
  if (count > 32) {
    put(value >> 32, count - 32);
    put(value & 0xFFFFFFFFu, 32);
  } else {
    put(value, count);
  }
}

void BitWriter::write_unary(std::uint64_t count) {
  for (; count >= 32; count -= 32) write_bits(0xFFFFFFFFu, 32);
  // count ones then the terminating zero, at most 32 bits.
  write_bits(((std::uint64_t{1} << count) - 1) << 1,
             static_cast<unsigned>(count) + 1);
}

void BitWriter::reserve(std::size_t bytes) { bytes_.reserve(bytes); }

std::vector<std::uint8_t> BitWriter::finish() {
  // Flush the pending bits MSB-first, zero-padded to a byte boundary.
  for (unsigned left = pending_; left > 0; left -= std::min(left, 8u)) {
    const std::uint64_t top =
        left >= 8 ? acc_ >> (left - 8) : acc_ << (8 - left);
    bytes_.push_back(static_cast<std::uint8_t>(top));
  }
  std::vector<std::uint8_t> out = std::move(bytes_);
  // Reset so a reused writer starts a fresh stream.
  bytes_.clear();
  acc_ = 0;
  pending_ = 0;
  bit_count_ = 0;
  return out;
}

std::uint64_t BitReader::window() const noexcept {
  const std::size_t byte = pos_ / 8;
  std::uint64_t w = 0;
  if (bytes_.size() - byte >= 8) {
    std::memcpy(&w, bytes_.data() + byte, sizeof w);
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
  } else {
    // The last window of a stream loads only the bytes that exist.
    for (std::size_t i = byte; i < bytes_.size(); ++i) {
      w |= std::uint64_t{bytes_[i]} << (56 - 8 * (i - byte));
    }
  }
  return w << (pos_ % 8);
}

std::uint64_t BitReader::read_bits(unsigned count) {
  if (count == 0) return 0;
  if (count > size() - pos_) {
    pos_ = size();
    throw BitstreamError(kPastEnd);
  }
  std::uint64_t out = 0;
  if (count > 32) {
    out = (window() >> (64 - (count - 32))) << 32;
    pos_ += count - 32;
    count = 32;
  }
  out |= window() >> (64 - count);
  pos_ += count;
  return out;
}

std::uint64_t BitReader::read_unary(std::uint64_t max_run) {
  const std::size_t start = pos_;
  std::uint64_t count = 0;
  for (;;) {
    const std::size_t left = size() - pos_;
    if (left == 0) throw BitstreamError(kPastEnd);
    const auto valid =
        static_cast<unsigned>(std::min<std::size_t>(left, kWindowBits));
    // Bits past the window or the stream load as zeros, so the run of ones
    // never counts beyond them.
    const auto ones = static_cast<unsigned>(std::countl_one(window()));
    count += ones;
    if (count > max_run) {
      pos_ = start + max_run + 1;
      throw BitstreamError("BitReader: unary run exceeds bound");
    }
    if (ones < valid) {
      pos_ += ones + 1;
      return count;
    }
    pos_ += ones;
  }
}

}  // namespace spacefts::rice
