/// \file bitstream.hpp
/// MSB-first bit-level I/O used by the Rice codec.
///
/// Both directions keep their hot paths inline.  The writer packs bits into
/// a 64-bit accumulator and stores it as one big-endian word into a
/// presized buffer after every put, advancing by the whole bytes it holds.
/// The reader holds a left-aligned 64-bit buffer, so a Rice code (unary
/// quotient, stop bit and k remainder bits) decodes from one peek at it.
/// The block calls, write_rice(), write_codes() and read_rice_samples(),
/// keep that state in registers for a whole block.  read_rice_samples()
/// tops the buffer up from one 8-byte load per three codes while the block
/// is clear of the stream's end, and a 32-bit word at a time otherwise, as
/// read_bits() and read_unary() do; it also undoes the codec's zigzag delta
/// map and stores each 16-bit sample in place.  Stream tails, runs longer
/// than the buffer and every throw stay out of line.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Appends bits MSB-first into a growing byte buffer.
class BitWriter {
 public:
  /// Writes the low \p count bits of \p value (MSB of that slice first).
  /// \pre count <= 64.
  void write_bits(std::uint64_t value, unsigned count) {
    if (count == 0) return;
    value &= ~std::uint64_t{0} >> (64 - count);  // drop junk above count
    if (count > 32) {
      put(value >> 32, count - 32);
      count = 32;
      value &= 0xFFFFFFFFu;
    }
    put(value, count);
  }

  /// Writes \p count consecutive one-bits followed by a zero (unary code).
  void write_unary(std::uint64_t count);

  /// Writes each of \p values as a Rice code with parameter \p k: the
  /// quotient value >> k in unary, then the low k bits.  The same bits as
  /// write_unary(value >> k) followed by write_bits(value, k) per value.
  /// \pre k <= 31.
  void write_rice(unsigned k, std::span<const std::uint32_t> values) {
    // Room for the whole block up front, so the loop never checks.
    std::size_t bits = pending_;
    for (std::uint32_t v : values) bits += std::size_t{v >> k} + 1 + k;
    ensure(bits / 8);
    const std::uint32_t low_mask = (std::uint32_t{1} << k) - 1;
    // Bits k + 1 and up; base ^ (base << q) sets the q quotient ones above
    // the stop bit.
    const std::uint64_t base = ~std::uint64_t{0} << (k + 1);
    std::uint8_t* out = bytes_.data();
    std::size_t used = used_;
    std::uint64_t acc = acc_;
    unsigned pending = pending_;
    for (std::uint32_t v : values) {
      const std::uint32_t q = v >> k;
      if (q < 32 - k) [[likely]] {  // q + 1 + k <= 32, without wrapping
        // ones(q), the stop bit and the k-bit remainder in one put.
        emit(out, used, acc, pending, (base ^ (base << q)) | (v & low_mask),
             q + 1 + k);
        continue;
      }
      used_ = used;
      acc_ = acc;
      pending_ = pending;
      write_unary(q);
      write_bits(v & low_mask, k);
      out = bytes_.data();
      used = used_;
      acc = acc_;
      pending = pending_;
    }
    used_ = used;
    acc_ = acc;
    pending_ = pending;
  }

  /// Writes the low lengths[j] bits of each codes[j], in order: the same
  /// bits as write_bits(codes[j], lengths[j]) per code, one put per code of
  /// up to 56 bits and two for a longer one.
  /// \pre codes.size() == lengths.size(), 0 < lengths[j] <= 64 and no bits
  /// of codes[j] above lengths[j].
  void write_codes(std::span<const std::uint64_t> codes,
                   std::span<const std::uint64_t> lengths) {
    std::size_t bits = pending_;
    for (std::uint64_t n : lengths) bits += n;
    ensure(bits / 8);
    std::uint8_t* const out = bytes_.data();
    std::size_t used = used_;
    std::uint64_t acc = acc_;
    unsigned pending = pending_;
    for (std::size_t j = 0; j < codes.size(); ++j) {
      std::uint64_t code = codes[j];
      auto n = static_cast<unsigned>(lengths[j]);
      if (n > 56) {
        emit(out, used, acc, pending, code >> 32, n - 32);
        code &= 0xFFFFFFFFu;
        n = 32;
      }
      emit(out, used, acc, pending, code, n);
    }
    used_ = used;
    acc_ = acc;
    pending_ = pending;
  }

  /// Presizes the buffer for \p bytes of output, so a caller that knows a
  /// bound on the stream length pays for no regrowth.
  void reserve(std::size_t bytes) { ensure(bytes); }

  /// Pads to a byte boundary with zeros and returns the buffer.  The writer
  /// is reset to its initial state, so it can be reused for another stream.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Bits written so far (before padding).
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return used_ * 8 + pending_;
  }

 private:
  /// Appends the low \p count bits of \p value at out + used: shifts them
  /// into \p acc, stores its \p pending bits MSB-first as one big-endian
  /// 64-bit word, and advances \p used past the whole bytes among them.
  /// \pre 0 < count <= 56, no bits of \p value above \p count, pending < 8
  /// and 8 writable bytes at out + used.
  static void emit(std::uint8_t* out, std::size_t& used, std::uint64_t& acc,
                   unsigned& pending, std::uint64_t value,
                   unsigned count) noexcept {
    // Bits above the pending ones are already stored and fall off the top
    // as later bits shift in.
    acc = (acc << count) | value;
    pending += count;
    std::uint64_t word = acc << (64 - pending);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out + used, &word, sizeof word);
    used += pending / 8;
    pending %= 8;
  }

  /// Appends the low \p count bits of \p value. \pre 0 < count <= 32 and
  /// no bits of \p value above \p count.
  void put(std::uint64_t value, unsigned count) {
    ensure(0);
    emit(bytes_.data(), used_, acc_, pending_, value, count);
  }

  /// Makes the buffer hold \p bytes past used_ plus the 8 bytes a word
  /// store needs.
  void ensure(std::size_t bytes) {
    if (bytes_.size() - used_ < bytes + 8) [[unlikely]] grow(bytes + 8);
  }

  /// Resizes the buffer to hold at least \p bytes past used_.
  void grow(std::size_t bytes);

  std::vector<std::uint8_t> bytes_;  ///< presized; the first used_ are stream
  std::size_t used_ = 0;             ///< whole bytes written
  std::uint64_t acc_ = 0;            ///< pending bits, in the low end
  unsigned pending_ = 0;             ///< bits not yet in a whole byte, < 8
};

/// Reads bits MSB-first from a byte buffer through a left-aligned 64-bit
/// buffer.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads \p count bits as an unsigned value. \pre count <= 64.
  /// \throws BitstreamError past the end.
  [[nodiscard]] std::uint64_t read_bits(unsigned count) {
    if (count - 1u < 32u) {  // 1..32
      if (avail_ < 32) refill();
      if (count <= avail_) [[likely]] {
        const std::uint64_t out = buf_ >> (64 - count);
        skip(count);
        return out;
      }
    }
    return read_bits_slow(count);
  }

  /// Reads a unary code: the number of one-bits before the next zero.
  /// \param max_run upper bound on the run length a well-formed stream can
  ///        contain at this position; a longer run is corruption and throws
  ///        instead of consuming the rest of the stream bit by bit.
  /// \throws BitstreamError past the end or when the run exceeds \p max_run.
  [[nodiscard]] std::uint64_t read_unary(
      std::uint64_t max_run = std::numeric_limits<std::uint64_t>::max()) {
    if (avail_ < 32) refill();
    const unsigned ones = leading_ones(buf_);
    if (ones < avail_ && ones <= max_run) [[likely]] {
      skip(ones + 1);
      return ones;
    }
    return read_unary_slow(max_run);
  }

  /// Decodes out.size() samples from Rice codes with parameter \p k.  Per
  /// sample: a unary quotient bounded by \p max_run, then k remainder
  /// bits, forming the zigzag-mapped delta (quotient << k) | remainder
  /// from the sample before it, the first from \p previous.  Each sample
  /// is stored as soon as its code is read whole, and \p previous ends as
  /// the last one.  Same reads, position and errors as read_unary(max_run)
  /// then read_bits(k) per sample.  Always inlined, so each decoder build
  /// compiles the loop for its own ISA.
  /// \pre k <= 31 and max_run < 2^(32 - k), so every code fits 32 bits.
  [[gnu::always_inline]] void read_rice_samples(unsigned k,
                                                std::uint64_t max_run,
                                                std::uint16_t& previous,
                                                std::span<std::uint16_t> out) {
    const std::uint8_t* const data = bytes_.data();
    const std::size_t size = bytes_.size();
    // Whole 32-bit words start below this byte.
    const std::size_t words_end = size < 4 ? 0 : size - 3;
    const std::uint64_t low_mask = (std::uint64_t{1} << k) - 1;
    std::uint64_t buf = buf_;
    unsigned avail = avail_;
    std::size_t next = next_;
    // Sums wrap modulo 2^16 when stored, as the encoder's deltas did.
    std::uint32_t sample = previous;
    // The mapped value of the length-bit code at the top of b, whose
    // quotient is ones: the remainder is the code's low k bits.
    const auto code = [k, low_mask](std::uint64_t b, unsigned ones,
                                    unsigned length) {
      return static_cast<std::uint32_t>((std::uint64_t{ones} << k) |
                                        ((b >> (64 - length)) & low_mask));
    };
    const auto store = [&sample](std::uint16_t& slot, std::uint32_t mapped) {
      // Unzigzag: even codes are non-negative deltas, odd ones negative.
      sample += (mapped >> 1) ^ (0u - (mapped & 1u));
      slot = static_cast<std::uint16_t>(sample);
    };
    std::size_t j = 0;
    // Three codes per step.  A branchless refill tops buf up to 56..63
    // counted bits from an 8-byte load; the bits below them are the
    // stream's next bits, not zeros.  Three codes decode from buf, and one
    // test checks that they fit the counted bits and keep the run bound.
    // A step advances next by at most 7 bytes, so while the last of the
    // block's groups loads within the stream, every step does.
    const std::size_t groups = out.size() / 3;
    if (groups > 0 && next + 7 * (groups - 1) + 8 <= size) {
      for (; j + 3 <= out.size(); j += 3) {
        buf |= load_be64(data + next) >> avail;
        next += (63 - avail) >> 3;
        avail |= 56;
        // Shifts count modulo 64: a code of 64 bits or more fails the
        // length test, whatever the shifts made of the codes after it.
        const auto q0 = static_cast<unsigned>(std::countl_one(buf));
        const unsigned l0 = q0 + 1 + k;
        const std::uint64_t b1 = buf << (l0 & 63);
        const auto q1 = static_cast<unsigned>(std::countl_one(b1));
        const unsigned l1 = q1 + 1 + k;
        const std::uint64_t b2 = b1 << (l1 & 63);
        const auto q2 = static_cast<unsigned>(std::countl_one(b2));
        const unsigned l2 = q2 + 1 + k;
        if (l0 + l1 + l2 > avail || std::max({q0, q1, q2}) > max_run) break;
        store(out[j], code(buf, q0, l0));
        store(out[j + 1], code(b1, q1, l1));
        store(out[j + 2], code(b2, q2, l2));
        buf = b2 << l2;
        avail -= l0 + l1 + l2;
      }
      // Zero the bits below the counted ones again.
      buf &= ~(~std::uint64_t{0} >> avail);
    }
    // One code per step: the block's last one or two codes, a group the
    // test above refused, and blocks near the stream's end.
    for (; j < out.size(); ++j) {
      if (avail < 32 && next < words_end) load_word(data, next, buf, avail);
      const unsigned ones = leading_ones(buf);
      const unsigned length = ones + 1 + k;
      std::uint32_t mapped = 0;
      if (length <= avail && ones <= max_run) [[likely]] {
        mapped = code(buf, ones, length);
        buf <<= length;
        avail -= length;
      } else {
        // The stream's tail, a run past the buffer, or an error: continue
        // from here on the member state.
        buf_ = buf;
        avail_ = avail;
        next_ = next;
        const std::uint64_t quotient = read_unary(max_run);
        mapped = static_cast<std::uint32_t>((quotient << k) | read_bits(k));
        buf = buf_;
        avail = avail_;
        next = next_;
      }
      store(out[j], mapped);
    }
    buf_ = buf;
    avail_ = avail;
    next_ = next;
    previous = static_cast<std::uint16_t>(sample);
  }

  /// Bits consumed so far.
  [[nodiscard]] std::size_t position() const noexcept {
    return next_ * 8 - avail_;
  }

  /// Total bits available.
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size() * 8; }

 private:
  // Invariants: buf_ holds the avail_ <= 63 bits from position() on at its
  // top, every bit below them is zero, and next_ is the first byte not yet
  // loaded.  A run of ones therefore never counts past the loaded bits, and
  // buf_ always has a zero bit for leading_ones() to stop at.

  [[nodiscard]] static unsigned leading_ones(std::uint64_t buf) noexcept {
    return static_cast<unsigned>(__builtin_clzll(~buf));
  }

  /// The 8 bytes at \p p as a big-endian 64-bit word.
  [[nodiscard]] static std::uint64_t load_be64(const std::uint8_t* p) noexcept {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return word;
  }

  /// Puts the 32-bit big-endian word at data + next below the avail bits
  /// of buf.  \pre avail < 32 and 4 bytes at data + next.
  static void load_word(const std::uint8_t* data, std::size_t& next,
                        std::uint64_t& buf, unsigned& avail) noexcept {
    std::uint32_t word;
    std::memcpy(&word, data + next, sizeof word);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    buf |= std::uint64_t{word} << (32 - avail);
    next += 4;
    avail += 32;
  }

  /// Tops the buffer up from next_.  \pre avail_ < 32.  Loads a whole
  /// word while one remains, so avail_ ends in [32, 63]; only the stream's
  /// last three bytes go byte by byte.
  void refill() {
    if (bytes_.size() - next_ >= 4) [[likely]] {
      load_word(bytes_.data(), next_, buf_, avail_);
    } else {
      refill_tail();
    }
  }

  /// Drops \p count bits from the front of the buffer. \pre count <= avail_.
  void skip(unsigned count) noexcept {
    buf_ <<= count;
    avail_ -= count;
  }

  void refill_tail() noexcept;
  [[noreturn]] void throw_past_end();
  std::uint64_t read_bits_slow(unsigned count);
  std::uint64_t read_unary_slow(std::uint64_t max_run);

  std::span<const std::uint8_t> bytes_;
  std::size_t next_ = 0;   ///< next byte to load
  std::uint64_t buf_ = 0;  ///< loaded, unconsumed bits, MSB first
  unsigned avail_ = 0;     ///< valid bits at the top of buf_
};

}  // namespace spacefts::rice
