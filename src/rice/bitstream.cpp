#include "spacefts/rice/bitstream.hpp"

#include <algorithm>

namespace spacefts::rice {

namespace {

constexpr const char* kPastEnd = "BitReader: past end of stream";

}  // namespace

void BitWriter::write_unary(std::uint64_t count) {
  for (; count >= 32; count -= 32) write_bits(0xFFFFFFFFu, 32);
  // count ones then the terminating zero, at most 32 bits.
  write_bits(((std::uint64_t{1} << count) - 1) << 1,
             static_cast<unsigned>(count) + 1);
}

void BitWriter::grow(std::size_t bytes) {
  bytes_.resize(std::max(bytes_.size() * 2, used_ + bytes));
}

std::vector<std::uint8_t> BitWriter::finish() {
  bytes_.resize(used_);
  // The last pending bits, MSB-first and zero-padded to a byte boundary.
  if (pending_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - pending_)));
  }
  std::vector<std::uint8_t> out = std::move(bytes_);
  // Reset so a reused writer starts a fresh stream.
  bytes_.clear();
  used_ = 0;
  acc_ = 0;
  pending_ = 0;
  return out;
}

void BitReader::refill_tail() noexcept {
  for (; avail_ <= 55 && next_ < bytes_.size(); ++next_, avail_ += 8) {
    buf_ |= std::uint64_t{bytes_[next_]} << (56 - avail_);
  }
}

void BitReader::throw_past_end() {
  // A read past the end leaves the whole stream consumed.
  next_ = bytes_.size();
  buf_ = 0;
  avail_ = 0;
  throw BitstreamError(kPastEnd);
}

std::uint64_t BitReader::read_bits_slow(unsigned count) {
  if (count == 0) return 0;
  if (count > size() - position()) throw_past_end();
  // Enough bits remain, so each part of at most 32 bits reads on the fast
  // path: a refill loads at least 32 bits or the rest of the stream.
  std::uint64_t out = 0;
  if (count > 32) {
    out = read_bits(count - 32) << 32;
    count = 32;
  }
  return out | read_bits(count);
}

std::uint64_t BitReader::read_unary_slow(std::uint64_t max_run) {
  std::uint64_t count = 0;
  for (;;) {
    if (avail_ < 32) refill();
    if (avail_ == 0) throw_past_end();
    const unsigned ones = leading_ones(buf_);
    if (count + ones > max_run) {
      // Stop just past the first one-bit over the bound.
      skip(static_cast<unsigned>(max_run + 1 - count));
      throw BitstreamError("BitReader: unary run exceeds bound");
    }
    if (ones < avail_) {
      skip(ones + 1);
      return count + ones;
    }
    // The run fills the buffer; continue from its end.
    count += ones;
    skip(ones);
  }
}

}  // namespace spacefts::rice
