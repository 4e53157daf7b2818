// Unit tests for spacefts::rice — bitstream I/O and the Rice codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "spacefts/check/oracle.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"

namespace {
// The largest single heap request since the last reset, so a test can bound
// what decode allocates against the size of its stream.
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

// Out of line like the deletes, so the compiler never sees malloc() paired
// with a sized delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_alloc.compare_exchange_weak(seen, n)) {
  }
  if (void* p = std::malloc(std::max<std::size_t>(n, 1))) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sr = spacefts::rice;
using spacefts::common::Rng;

// ------------------------------------------------------------------ bitstream

TEST(Bitstream, WriteReadRoundtrip) {
  sr::BitWriter w;
  w.write_bits(0b101, 3);
  w.write_bits(0xABCD, 16);
  w.write_unary(5);
  w.write_bits(1, 1);
  const auto bytes = w.finish();

  sr::BitReader r(bytes);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(16), 0xABCDu);
  EXPECT_EQ(r.read_unary(), 5u);
  EXPECT_EQ(r.read_bits(1), 1u);
}

TEST(Bitstream, ZeroCountUnary) {
  sr::BitWriter w;
  w.write_unary(0);
  const auto bytes = w.finish();
  sr::BitReader r(bytes);
  EXPECT_EQ(r.read_unary(), 0u);
}

TEST(Bitstream, ReaderThrowsPastEnd) {
  const std::vector<std::uint8_t> one_byte{0xFF};
  sr::BitReader r(one_byte);
  EXPECT_EQ(r.read_bits(8), 0xFFu);
  EXPECT_THROW((void)r.read_bits(1), sr::BitstreamError);
}

TEST(Bitstream, UnaryAcrossByteBoundary) {
  sr::BitWriter w;
  w.write_unary(20);
  const auto bytes = w.finish();
  sr::BitReader r(bytes);
  EXPECT_EQ(r.read_unary(), 20u);
}

TEST(Bitstream, BitCountTracksWrites) {
  sr::BitWriter w;
  w.write_bits(0, 5);
  w.write_bits(0, 9);
  EXPECT_EQ(w.bit_count(), 14u);
}

// ------------------------------------------------------ bitstream edges

namespace {

/// The message of the BitstreamError \p read throws, or "" if none.
template <typename Read>
std::string error_of(Read&& read) {
  try {
    read();
  } catch (const sr::BitstreamError& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kPastEnd = "BitReader: past end of stream";
constexpr const char* kRunBound = "BitReader: unary run exceeds bound";

}  // namespace

TEST(Bitstream, WriteBitsEdgeCounts) {
  sr::BitWriter w;
  w.write_bits(~std::uint64_t{0}, 0);  // nothing
  EXPECT_EQ(w.bit_count(), 0u);
  w.write_bits(0xFFFFFFFFFFFFFF05u, 3);  // junk above count: only 101 lands
  w.write_bits(0x0123456789ABCDEFu, 64);
  EXPECT_EQ(w.bit_count(), 67u);
  // 101, then the 64 value bits, then five zero bits of padding.
  const std::vector<std::uint8_t> expected{0xA0, 0x24, 0x68, 0xAC, 0xF1,
                                           0x35, 0x79, 0xBD, 0xE0};
  EXPECT_EQ(w.finish(), expected);
}

TEST(Bitstream, Read64AtEveryBitOffset) {
  const std::uint64_t value = 0xF0E1D2C3B4A59687u;
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (unsigned trailer : {0u, 16u}) {  // ends in the tail window or not
      sr::BitWriter w;
      w.write_bits(0x55, offset);
      w.write_bits(value, 64);
      w.write_bits(0xBEEF, trailer);
      const auto bytes = w.finish();
      sr::BitReader r(bytes);
      EXPECT_EQ(r.read_bits(offset), 0x55u & ((1u << offset) - 1));
      EXPECT_EQ(r.position(), offset);
      EXPECT_EQ(r.read_bits(64), value) << "offset " << offset;
      EXPECT_EQ(r.position(), offset + 64);
      EXPECT_EQ(r.read_bits(trailer), trailer ? 0xBEEFu : 0u);
      EXPECT_EQ(r.position(), offset + 64 + trailer);
    }
  }
}

TEST(Bitstream, UnaryRunsCrossWindows) {
  for (std::uint64_t run : {63u, 64u, 65u, 200u}) {
    for (unsigned lead = 0; lead < 8; ++lead) {
      sr::BitWriter w;
      w.write_bits(0, lead);
      w.write_unary(run);
      w.write_bits(0x2A, 6);
      const auto bytes = w.finish();
      sr::BitReader r(bytes);
      (void)r.read_bits(lead);
      EXPECT_EQ(r.read_unary(), run) << "run " << run << " lead " << lead;
      EXPECT_EQ(r.position(), lead + run + 1);
      EXPECT_EQ(r.read_bits(6), 0x2Au);
    }
  }
}

TEST(Bitstream, PastEndAndRunBoundOnARaggedTail) {
  // 13 bytes of ones: the stream ends mid-window, 104 bits in.
  const std::vector<std::uint8_t> ones(13, 0xFF);
  {
    sr::BitReader r(ones);
    EXPECT_EQ(error_of([&] { (void)r.read_unary(); }), kPastEnd);
    EXPECT_EQ(r.position(), 104u);
  }
  {
    sr::BitReader r(ones);  // the run reaches the end within its bound
    EXPECT_EQ(error_of([&] { (void)r.read_unary(104); }), kPastEnd);
    EXPECT_EQ(r.position(), 104u);
  }
  {
    sr::BitReader r(ones);  // the run to the end is one over its bound
    EXPECT_EQ(error_of([&] { (void)r.read_unary(103); }), kRunBound);
    EXPECT_EQ(r.position(), 104u);
  }
  {
    sr::BitReader r(ones);
    EXPECT_EQ(error_of([&] { (void)r.read_unary(50); }), kRunBound);
    EXPECT_EQ(r.position(), 51u);
  }
  {
    sr::BitReader r(ones);
    EXPECT_EQ(r.read_bits(64), ~std::uint64_t{0});
    EXPECT_EQ(r.read_bits(36), 0xFFFFFFFFFu);
    EXPECT_EQ(error_of([&] { (void)r.read_bits(5); }), kPastEnd);
    EXPECT_EQ(r.position(), 104u);
    EXPECT_EQ(r.read_bits(0), 0u);  // a zero-bit read never fails
  }
}

TEST(Bitstream, PositionTracksEveryRead) {
  const std::vector<std::uint8_t> bytes{0b10110010, 0b11100000, 0xFF, 0x00};
  sr::BitReader r(bytes);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.read_unary(), 1u);  // 10
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.read_bits(3), 0b110u);
  EXPECT_EQ(r.position(), 5u);
  EXPECT_EQ(r.read_unary(), 0u);  // 0
  EXPECT_EQ(r.position(), 6u);
  EXPECT_EQ(r.read_unary(), 1u);  // 10, ending on the byte boundary
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.read_unary(), 3u);  // 1110
  EXPECT_EQ(r.position(), 12u);
  EXPECT_EQ(r.read_bits(0), 0u);
  EXPECT_EQ(r.position(), 12u);
  EXPECT_EQ(r.read_bits(4), 0u);
  EXPECT_EQ(r.position(), 16u);
  EXPECT_EQ(r.read_unary(), 8u);  // 0xFF then a zero
  EXPECT_EQ(r.position(), 25u);
  EXPECT_EQ(r.read_bits(7), 0u);
  EXPECT_EQ(r.position(), 32u);
  EXPECT_EQ(error_of([&] { (void)r.read_unary(); }), kPastEnd);
  EXPECT_EQ(r.position(), 32u);
}

TEST(Bitstream, FinishFlushesAPartialWordAndResets) {
  sr::BitWriter w;
  for (unsigned bits : {1u, 7u, 8u, 31u, 32u, 33u, 63u}) {
    w.write_bits(~std::uint64_t{0}, bits);
    const auto bytes = w.finish();
    EXPECT_EQ(bytes.size(), (bits + 7) / 8) << bits;
    EXPECT_EQ(w.bit_count(), 0u);
    sr::BitReader r(bytes);
    EXPECT_EQ(r.read_bits(bits), ~std::uint64_t{0} >> (64 - bits)) << bits;
    EXPECT_EQ(error_of([&] { (void)r.read_bits(8); }), kPastEnd);
  }
  EXPECT_TRUE(w.finish().empty());
}

namespace {

/// Bit-serial reference for the bitstream: one bit per step, the way the
/// codec first shipped.  Lives only here, as the differential oracle.
struct OracleWriter {
  std::vector<std::uint8_t> bytes;
  std::size_t bits = 0;
  void put(std::uint64_t value, unsigned count) {
    for (unsigned i = count; i-- > 0; ++bits) {
      if (bits % 8 == 0) bytes.push_back(0);
      if ((value >> i) & 1) {
        bytes.back() |= static_cast<std::uint8_t>(0x80u >> (bits % 8));
      }
    }
  }
  void unary(std::uint64_t run) {
    for (; run > 0; --run) put(1, 1);
    put(0, 1);
  }
};

struct OracleReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool bit() {
    if (pos >= bytes.size() * 8) throw sr::BitstreamError(kPastEnd);
    const bool b = (bytes[pos / 8] >> (7 - pos % 8)) & 1;
    ++pos;
    return b;
  }
  std::uint64_t bits(unsigned count) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < count; ++i) v = (v << 1) | std::uint64_t{bit()};
    return v;
  }
  std::uint64_t unary(std::uint64_t max_run) {
    std::uint64_t run = 0;
    while (bit()) {
      if (++run > max_run) throw sr::BitstreamError(kRunBound);
    }
    return run;
  }
};

/// A unary run length: mostly short, sometimes across one or more windows.
std::uint64_t random_run(Rng& rng) {
  return rng.below(4) == 0 ? 40 + rng.below(200) : rng.below(40);
}

}  // namespace

TEST(Bitstream, MatchesABitSerialOracle) {
  Rng rng(0xD1FF);
  sr::BitWriter writer;  // reused across trials: finish() must reset it
  for (int trial = 0; trial < 400; ++trial) {
    OracleWriter oracle;
    const auto ops = rng.below(64);
    for (std::uint64_t op = 0; op < ops; ++op) {
      if (rng.below(3) == 0) {
        const auto run = random_run(rng);
        writer.write_unary(run);
        oracle.unary(run);
      } else if (rng.below(4) == 0) {
        // A batch of whole codes, 57..64 bits ones among them.
        std::vector<std::uint64_t> codes(rng.below(20));
        std::vector<std::uint64_t> lengths(codes.size());
        for (std::size_t j = 0; j < codes.size(); ++j) {
          lengths[j] = 1 + rng.below(64);
          codes[j] = rng() >> (64 - lengths[j]);
          oracle.put(codes[j], static_cast<unsigned>(lengths[j]));
        }
        writer.write_codes(codes, lengths);
      } else {
        const auto value = rng();  // junk above count must be ignored
        const auto count = static_cast<unsigned>(rng.below(65));
        writer.write_bits(value, count);
        oracle.put(value, count);
      }
    }
    ASSERT_EQ(writer.bit_count(), oracle.bits) << "trial " << trial;
    auto bytes = writer.finish();
    ASSERT_EQ(bytes, oracle.bytes) << "trial " << trial;

    // Read arbitrary bits back: the written stream, cut to a ragged length
    // or extended with runs of ones, so reads also end past the end or on
    // the run bound.
    bytes.resize(rng.below(bytes.size() + 1));
    for (auto n = rng.below(12); n > 0; --n) {
      bytes.push_back(rng.below(2) ? 0xFF : static_cast<std::uint8_t>(rng()));
    }
    sr::BitReader reader(bytes);
    OracleReader expected{bytes};
    for (;;) {
      std::uint64_t got = 0;
      std::uint64_t want = 0;
      std::string got_error;
      std::string want_error;
      if (rng.below(2) == 0) {
        const auto count = static_cast<unsigned>(rng.below(65));
        got_error = error_of([&] { got = reader.read_bits(count); });
        want_error = error_of([&] { want = expected.bits(count); });
      } else {
        const auto bound =
            rng.below(4) == 0 ? ~std::uint64_t{0} : random_run(rng);
        got_error = error_of([&] { got = reader.read_unary(bound); });
        want_error = error_of([&] { want = expected.unary(bound); });
      }
      ASSERT_EQ(got_error, want_error) << "trial " << trial;
      ASSERT_EQ(reader.position(), expected.pos) << "trial " << trial;
      if (!got_error.empty()) break;
      ASSERT_EQ(got, want) << "trial " << trial;
    }
  }
}

TEST(Bitstream, RiceBlockCallsMatchUnaryThenBits) {
  // write_rice and read_rice_samples are the block forms of write_unary +
  // write_bits and read_unary + read_bits (then unzigzag and prefix sum):
  // same bits, and on any stream the same samples, position and error.
  Rng rng(0xB10C);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto k = static_cast<unsigned>(rng.below(17));
    std::vector<std::uint32_t> values(1 + rng.below(40));
    for (auto& v : values) {
      // Mostly short quotients, sometimes past the 32-bit fused code.
      const auto q = rng.below(8) == 0 ? rng.below(300) : rng.below(4);
      v = static_cast<std::uint32_t>((q << k) | (rng() & ((1u << k) - 1)));
    }
    sr::BitWriter block;
    sr::BitWriter serial;
    const auto lead = static_cast<unsigned>(rng.below(40));
    block.write_bits(0x5A5A5A5A5Au, lead);
    serial.write_bits(0x5A5A5A5A5Au, lead);
    block.write_rice(k, values);
    for (std::uint32_t v : values) {
      serial.write_unary(v >> k);
      serial.write_bits(v, k);
    }
    ASSERT_EQ(block.bit_count(), serial.bit_count()) << "trial " << trial;
    auto bytes = block.finish();
    ASSERT_EQ(bytes, serial.finish()) << "trial " << trial;

    // Damage the stream, then read it back both ways.
    bytes.resize(rng.below(bytes.size() + 1));
    for (auto n = rng.below(12); n > 0; --n) {
      bytes.push_back(rng.below(2) ? 0xFF : static_cast<std::uint8_t>(rng()));
    }
    if (!bytes.empty() && rng.below(2)) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    const std::uint64_t max_run = rng.below(4) == 0 ? rng.below(64) : 300;
    sr::BitReader block_reader(bytes);
    sr::BitReader serial_reader(bytes);
    EXPECT_EQ(error_of([&] { (void)block_reader.read_bits(lead); }),
              error_of([&] { (void)serial_reader.read_bits(lead); }));
    const auto first = static_cast<std::uint16_t>(rng());
    std::uint16_t got_last = first;
    std::vector<std::uint16_t> got(values.size());
    std::vector<std::uint16_t> want(values.size());
    const auto got_error = error_of(
        [&] { block_reader.read_rice_samples(k, max_run, got_last, got); });
    std::uint16_t want_last = first;
    const auto want_error = error_of([&] {
      for (auto& s : want) {
        const auto q = serial_reader.read_unary(max_run);
        const auto mapped = static_cast<std::int64_t>(
            (q << k) | serial_reader.read_bits(k));
        const std::int64_t delta =
            mapped % 2 == 0 ? mapped / 2 : -(mapped + 1) / 2;
        want_last = static_cast<std::uint16_t>(want_last + delta);
        s = want_last;
      }
    });
    ASSERT_EQ(got_error, want_error) << "trial " << trial;
    ASSERT_EQ(block_reader.position(), serial_reader.position())
        << "trial " << trial;
    ASSERT_EQ(got, want) << "trial " << trial;
    if (got_error.empty()) {
      ASSERT_EQ(got_last, want_last) << "trial " << trial;
    }
  }
}

// ----------------------------------------------------------------------- Rice

namespace {
void expect_roundtrip(const std::vector<std::uint16_t>& samples) {
  const auto compressed = sr::compress16(samples);
  const auto restored = sr::decompress16(compressed, samples.size());
  EXPECT_EQ(restored, samples);
}
}  // namespace

TEST(Rice, EmptyInput) {
  expect_roundtrip({});
  EXPECT_EQ(sr::compression_ratio16({}), 0.0);
}

TEST(Rice, SingleSample) { expect_roundtrip({12345}); }

TEST(Rice, ConstantData) {
  expect_roundtrip(std::vector<std::uint16_t>(1000, 27000));
}

TEST(Rice, RampData) {
  std::vector<std::uint16_t> ramp(500);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint16_t>(1000 + 3 * i);
  }
  expect_roundtrip(ramp);
}

TEST(Rice, NonBlockMultipleLengths) {
  Rng rng(1);
  for (std::size_t n : {1u, 31u, 32u, 33u, 63u, 65u, 100u}) {
    std::vector<std::uint16_t> data(n);
    for (auto& v : data) v = static_cast<std::uint16_t>(rng.below(65536));
    expect_roundtrip(data);
  }
}

TEST(Rice, RandomNoiseRoundtrip) {
  Rng rng(2);
  std::vector<std::uint16_t> data(4096);
  for (auto& v : data) v = static_cast<std::uint16_t>(rng.below(65536));
  expect_roundtrip(data);
}

TEST(Rice, ExtremeValues) {
  expect_roundtrip({0, 65535, 0, 65535, 32768, 1, 65534, 0});
}

TEST(Rice, SmoothDataCompressesWell) {
  // Gaussian random walk like an NGST pixel series: deltas are small, so
  // the ratio should be comfortably above 2x.
  Rng rng(3);
  std::vector<std::uint16_t> data(8192);
  double level = 27000;
  for (auto& v : data) {
    level += rng.gaussian(0.0, 30.0);
    v = static_cast<std::uint16_t>(level);
  }
  EXPECT_GT(sr::compression_ratio16(data), 2.0);
}

TEST(Rice, IncompressibleDataCostsLittle) {
  // Uniform noise cannot compress; the escape mechanism must cap the
  // expansion near 5 bits per 32-sample block (~1% overhead).
  Rng rng(4);
  std::vector<std::uint16_t> data(8192);
  for (auto& v : data) v = static_cast<std::uint16_t>(rng.below(65536));
  const auto compressed = sr::compress16(data);
  EXPECT_LT(static_cast<double>(compressed.size()),
            static_cast<double>(data.size() * 2) * 1.05);
}

TEST(Rice, BitflipsDegradeCompression) {
  // The paper cites a ~12% compression-ratio hit from data corruption; the
  // direction (flips hurt the ratio) must reproduce.
  Rng rng(5);
  std::vector<std::uint16_t> data(16384);
  double level = 27000;
  for (auto& v : data) {
    level += rng.gaussian(0.0, 25.0);
    v = static_cast<std::uint16_t>(level);
  }
  const double clean_ratio = sr::compression_ratio16(data);

  const spacefts::fault::UncorrelatedFaultModel model(0.01);
  auto mask = model.mask16(data.size(), rng);
  spacefts::fault::apply_mask<std::uint16_t>(data, mask);
  const double corrupted_ratio = sr::compression_ratio16(data);
  EXPECT_LT(corrupted_ratio, clean_ratio * 0.95);
}

TEST(Rice, TruncatedStreamThrows) {
  std::vector<std::uint16_t> data(100, 500);
  auto compressed = sr::compress16(data);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW((void)sr::decompress16(compressed, data.size()), sr::BitstreamError);
}

TEST(Rice, DecompressFewerThanEncodedIsFine) {
  // The caller carries the count; asking for a prefix must work because
  // blocks are independent of anything after them.
  std::vector<std::uint16_t> data(64, 1234);
  const auto compressed = sr::compress16(data);
  const auto first32 = sr::decompress16(compressed, 32);
  EXPECT_EQ(first32, std::vector<std::uint16_t>(32, 1234));
}

// ------------------------------------------------------------ writer reuse

TEST(Bitstream, WriterIsReusableAfterFinish) {
  // Regression: finish() used to move bytes_ out but leave bit_count_
  // stale, so a reused writer indexed bits into an empty buffer.
  sr::BitWriter w;
  w.write_bits(0xBEEF, 16);
  w.write_unary(9);
  const auto first = w.finish();
  EXPECT_EQ(w.bit_count(), 0u);

  w.write_bits(0x5A, 8);
  w.write_unary(3);
  const auto second = w.finish();

  sr::BitWriter fresh;
  fresh.write_bits(0x5A, 8);
  fresh.write_unary(3);
  EXPECT_EQ(second, fresh.finish());

  sr::BitReader r(first);
  EXPECT_EQ(r.read_bits(16), 0xBEEFu);
  EXPECT_EQ(r.read_unary(), 9u);
}

TEST(Bitstream, ReadUnaryHonoursTheRunBound) {
  sr::BitWriter w;
  w.write_unary(10);
  const auto bytes = w.finish();
  {
    sr::BitReader r(bytes);
    EXPECT_EQ(r.read_unary(10), 10u);
  }
  {
    sr::BitReader r(bytes);
    EXPECT_THROW((void)r.read_unary(9), sr::BitstreamError);
  }
}

// --------------------------------------------------------- corrupt streams

TEST(Rice, TruncatedEscapeBlockThrows) {
  // Full-entropy data forces escape (verbatim) blocks; cutting one short
  // must surface as BitstreamError, not as silent zero samples.
  Rng rng(101);
  std::vector<std::uint16_t> data(64);
  for (auto& v : data) v = static_cast<std::uint16_t>(rng());
  auto compressed = sr::compress16(data);
  // Plain branch (not ASSERT_GT) so GCC's range analysis can prove the
  // subtraction below never wraps; -Werror=stringop-overflow fires otherwise.
  if (compressed.size() <= 8) FAIL() << "compressed stream unexpectedly small";
  compressed.resize(compressed.size() - 8);
  EXPECT_THROW((void)sr::decompress16(compressed, data.size()),
               sr::BitstreamError);
}

TEST(Rice, OversizedUnaryQuotientIsRejected) {
  // k = 0 header followed by ~164k one-bits encodes a quotient far beyond
  // the largest mapped residual (131070); the bounded unary read must
  // throw instead of grinding through the whole run and truncating the
  // value on the uint32 cast.
  std::vector<std::uint8_t> hostile(20500, 0xFF);
  hostile[0] = 0x07;  // 00000 (k = 0), then all ones
  EXPECT_THROW((void)sr::decompress16(hostile, 1), sr::BitstreamError);
}

TEST(Rice, HostileCountThrowsBitstreamError) {
  // The sample count comes from outside the stream.  A count no 3-byte
  // stream could hold must fail as a short stream, not by asking the
  // allocator for terabytes first.
  const std::vector<std::uint8_t> stream{0x00, 0x00, 0x00};
  for (const std::size_t count :
       {std::size_t{1} << 62, std::size_t{1} << 40, std::size_t{25}}) {
    EXPECT_THROW((void)sr::decompress16(stream, count), sr::BitstreamError)
        << count;
  }
}

TEST(Rice, TrailingGarbageDoesNotDisturbTheDecode) {
  Rng rng(102);
  std::vector<std::uint16_t> data(96);
  std::uint16_t walk = 27000;
  for (auto& v : data) {
    walk = static_cast<std::uint16_t>(walk +
                                      static_cast<std::uint16_t>(rng.below(31)) -
                                      15);
    v = walk;
  }
  auto compressed = sr::compress16(data);
  for (int i = 0; i < 32; ++i) {
    compressed.push_back(static_cast<std::uint8_t>(rng()));
  }
  EXPECT_EQ(sr::decompress16(compressed, data.size()), data);
}

TEST(Rice, RandomBitFlipsEitherDecodeOrThrow) {
  // The corrupt-stream contract: any damage yields either `count` samples
  // or BitstreamError — never a hang, never another exception type.
  Rng rng(103);
  std::vector<std::uint16_t> data(128);
  for (auto& v : data) v = static_cast<std::uint16_t>(27000 + rng.below(64));
  const auto pristine = sr::compress16(data);
  for (int trial = 0; trial < 64; ++trial) {
    auto damaged = pristine;
    const auto bit = rng.below(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const auto decoded = sr::decompress16(damaged, data.size());
      EXPECT_EQ(decoded.size(), data.size());
    } catch (const sr::BitstreamError&) {
      // The documented failure mode.
    }
  }
}

// ---------------------------------------------------------- wire-format pins

namespace {

/// One seeded, integer-only input per stream feature the format has.  The
/// inputs avoid floating point so the bytes cannot drift with libm.
struct PinnedStream {
  const char* name;
  std::vector<std::uint16_t> samples;
  std::size_t bytes;    ///< compressed length
  std::uint32_t crc;    ///< CRC-32 of the compressed stream
};

std::vector<PinnedStream> pinned_streams() {
  std::vector<PinnedStream> cases;
  // Flat: the first block codes the raw level as one residual at k = 10
  // (a long unary quotient), then k = 0 blocks, and a partial last block
  // (200 = 6 * 32 + 8).
  cases.push_back(
      {"flat", std::vector<std::uint16_t>(200, 27000), 76, 0x35f1a0b3u});
  // Telemetry-shaped i.i.d. noise, +-4000 around a level: high k (>= 10) and
  // a partial last block (1013 = 31 * 32 + 21).
  {
    Rng rng(0x5EED1);
    std::vector<std::uint16_t> v(1013);
    for (auto& s : v) s = static_cast<std::uint16_t>(26000 + rng.below(8001));
    cases.push_back({"telemetry", std::move(v), 1770, 0xf6739f55u});
  }
  // Full-range noise: every block escapes (100 = 3 * 32 + 4).
  {
    Rng rng(0x5EED2);
    std::vector<std::uint16_t> v(100);
    for (auto& s : v) s = static_cast<std::uint16_t>(rng());
    cases.push_back({"uniform", std::move(v), 203, 0xa24368a2u});
  }
  // A +-1 walk with one +1000 step per block: k = 5 codes the step with a
  // quotient of ~62, so q + 1 + k > 32 takes the long-unary path.
  {
    Rng rng(0x5EED3);
    std::vector<std::uint16_t> v(330);
    std::uint16_t level = 20000;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const int step = static_cast<int>(rng.below(3)) - 1 +
                       (i % 32 == 16 ? 1000 : 0);
      level = static_cast<std::uint16_t>(level + step);
      v[i] = level;
    }
    cases.push_back({"spike", std::move(v), 344, 0x00de278du});
  }
  return cases;
}

/// What one stream exercises, found by walking its block headers.
struct StreamFeatures {
  bool k0 = false;
  bool high_k = false;
  bool escape = false;
  bool long_unary = false;
  std::vector<unsigned> headers;  ///< each block's k, 31 for verbatim
};

StreamFeatures walk_stream(const std::vector<std::uint8_t>& stream,
                           std::size_t count) {
  StreamFeatures seen;
  sr::BitReader r(stream);
  for (std::size_t done = 0; done < count;) {
    const auto k = static_cast<unsigned>(r.read_bits(5));
    const std::size_t len = std::min(sr::kBlockSamples, count - done);
    done += len;
    seen.headers.push_back(k);
    if (k == 31) {
      seen.escape = true;
      for (std::size_t j = 0; j < len; ++j) (void)r.read_bits(16);
      continue;
    }
    seen.k0 = seen.k0 || k == 0;
    seen.high_k = seen.high_k || k >= 10;
    for (std::size_t j = 0; j < len; ++j) {
      const auto q = r.read_unary();
      (void)r.read_bits(k);
      seen.long_unary = seen.long_unary || q + 1 + k > 32;
    }
  }
  return seen;
}

}  // namespace

TEST(Rice, StreamBytesArePinned) {
  // The digests were recorded from the bit-serial codec (one push_back and
  // one branch per bit) before the word-at-a-time rewrite; any drift in the
  // stream format fails here even when decode(encode(x)) still round-trips.
  StreamFeatures all;
  for (const auto& c : pinned_streams()) {
    const auto stream = sr::compress16(c.samples);
    EXPECT_EQ(stream.size(), c.bytes) << c.name;
    EXPECT_EQ(spacefts::edac::crc32(stream), c.crc)
        << c.name << " 0x" << std::hex << spacefts::edac::crc32(stream);
    EXPECT_EQ(sr::decompress16(stream, c.samples.size()), c.samples) << c.name;
    const auto seen = walk_stream(stream, c.samples.size());
    all.k0 = all.k0 || seen.k0;
    all.high_k = all.high_k || seen.high_k;
    all.escape = all.escape || seen.escape;
    all.long_unary = all.long_unary || seen.long_unary;
  }
  EXPECT_TRUE(all.k0);
  EXPECT_TRUE(all.high_k);
  EXPECT_TRUE(all.escape);
  EXPECT_TRUE(all.long_unary);
}

// ------------------------------------------------------------ k choice

namespace {

/// One block as a full scan sees it: the first strict minimum of the Rice
/// cost over every k in 0..16, whether the verbatim block is strictly
/// cheaper, and the largest quotient at that k.
struct BlockScan {
  unsigned k = 0;
  bool escape = false;
  std::uint32_t max_quotient = 0;
};

BlockScan scan_block(std::span<const std::uint16_t> samples,
                     std::size_t begin, std::size_t len) {
  std::vector<std::uint32_t> residuals;
  for (std::size_t i = begin; i < begin + len; ++i) {
    const std::int32_t delta =
        static_cast<std::int32_t>(samples[i]) -
        (i == 0 ? 0 : static_cast<std::int32_t>(samples[i - 1]));
    residuals.push_back(delta >= 0 ? 2 * static_cast<std::uint32_t>(delta)
                                   : 2 * static_cast<std::uint32_t>(-delta) - 1);
  }
  BlockScan scan;
  std::size_t best_cost = ~std::size_t{0};
  for (unsigned k = 0; k <= 16; ++k) {
    std::size_t cost = 0;
    for (std::uint32_t r : residuals) cost += (r >> k) + 1 + k;
    if (cost < best_cost) {
      best_cost = cost;
      scan.k = k;
    }
  }
  scan.escape = len * 16 < best_cost;
  for (std::uint32_t r : residuals) {
    scan.max_quotient = std::max(scan.max_quotient, r >> scan.k);
  }
  return scan;
}

/// The header a full scan writes for one block: its k, or 31 when the
/// verbatim block is strictly cheaper.
unsigned scanned_header(std::span<const std::uint16_t> samples,
                        std::size_t begin, std::size_t len) {
  const BlockScan scan = scan_block(samples, begin, len);
  return scan.escape ? 31u : scan.k;
}

void expect_scanned_headers(const std::vector<std::uint16_t>& samples,
                            const char* name) {
  const auto stream = sr::compress16(samples);
  const auto headers = walk_stream(stream, samples.size()).headers;
  ASSERT_EQ(headers.size(),
            (samples.size() + sr::kBlockSamples - 1) / sr::kBlockSamples)
      << name;
  for (std::size_t b = 0; b < headers.size(); ++b) {
    const std::size_t begin = b * sr::kBlockSamples;
    const std::size_t len = std::min(sr::kBlockSamples, samples.size() - begin);
    EXPECT_EQ(headers[b], scanned_header(samples, begin, len))
        << name << " block " << b;
  }
  EXPECT_EQ(sr::decompress16(stream, samples.size()), samples) << name;
}

}  // namespace

TEST(Rice, KSearchMatchesTheFullScan) {
  // All-zero residuals: k = 0.
  expect_scanned_headers(std::vector<std::uint16_t>(64, 0), "zeros");
  // Residuals near 131070 push the choice to the k = 16 cap, where the
  // block escapes; one block of them among quiet ones.
  {
    std::vector<std::uint16_t> v(96, 100);
    for (std::size_t i = 32; i < 64; ++i) v[i] = i % 2 ? 0 : 65535;
    expect_scanned_headers(v, "cap");
  }
  // A single spike in a flat block.
  {
    std::vector<std::uint16_t> v(64, 30000);
    v[40] = 31000;
    expect_scanned_headers(v, "spike");
  }
  // Residuals 16400 and 16399 (steps of +-8200): k = 13 costs
  // 32 * 14 + 32 * 2 = 512 bits, exactly the verbatim cost, so the block
  // must stay Rice.
  {
    std::vector<std::uint16_t> v(32);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 2 ? 0 : 8200;
    expect_scanned_headers(v, "tie");
    const auto stream = sr::compress16(v);
    EXPECT_EQ(walk_stream(stream, v.size()).headers,
              std::vector<unsigned>{13});
  }
  // Final blocks of 1..31 samples over every shape of residual scale:
  // a slow walk, telemetry-like noise, full-range noise.
  Rng rng(0x5CA7);
  for (std::size_t tail = 1; tail < sr::kBlockSamples; ++tail) {
    for (unsigned spread : {8u, 8000u, 65536u}) {
      std::vector<std::uint16_t> v(2 * sr::kBlockSamples + tail);
      std::uint16_t level = 26000;
      for (auto& s : v) {
        s = spread == 8 ? (level = static_cast<std::uint16_t>(
                               level + rng.below(spread) - spread / 2))
                        : static_cast<std::uint16_t>(level +
                                                     rng.below(spread));
      }
      expect_scanned_headers(v, "tail");
    }
  }
  // Every block scale in between: residual magnitudes 2^0 .. 2^16.
  for (unsigned bits = 0; bits <= 16; ++bits) {
    std::vector<std::uint16_t> v(4 * sr::kBlockSamples);
    for (auto& s : v) {
      s = static_cast<std::uint16_t>(rng.below(std::uint64_t{1} << bits));
    }
    expect_scanned_headers(v, "scale");
  }
}

/// The Rice path tests' inputs, each handed to \p visit with a label:
/// lengths 0..300 with a noise scale drawn per block ("scales"),
/// alternating extremes ("extremes"), and blocks whose largest quotient is
/// the longest code the vector step takes or the shortest it hands back
/// ("quotient bound").
template <typename Visit>
void for_each_encoder_input(Visit visit) {
  // Lengths 0..300: the first block, tails of 1..31 samples, and full
  // blocks whose noise scale, 2^0 .. 2^17, is drawn per block.
  Rng rng(0x7EC7);
  for (std::size_t n = 0; n <= 300; ++n) {
    std::vector<std::uint16_t> v(n);
    std::uint64_t scale = 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % sr::kBlockSamples == 0) scale = std::uint64_t{1} << rng.below(18);
      v[i] = static_cast<std::uint16_t>(20000 + rng.below(scale));
    }
    visit(v, "scales");
  }
  // Alternating extremes: residuals near 131070 stop the walk at its k = 16
  // cap.
  {
    std::vector<std::uint16_t> v(100);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 2 ? 0 : 65535;
    visit(v, "extremes");
  }
  // Blocks whose largest quotient is 31 - k, the longest code of 32 bits,
  // or 32 - k, the shortest the vector step hands back.  Residuals of
  // 2^k - 1 and 2^k - 2 hold the walk at k; the spike closes the block.
  // Quotients of 32 - k exist up to k = 12: residuals stop at 131070.
  for (unsigned k = 0; k <= 12; ++k) {
    for (const std::uint32_t quotient : {31 - k, 32 - k}) {
      std::vector<std::uint16_t> v(2 * sr::kBlockSamples + 5, 20000);
      const std::int32_t half = k == 0 ? 0 : std::int32_t{1} << (k - 1);
      std::int32_t level = 20000;
      for (std::size_t j = 0; j + 1 < sr::kBlockSamples; ++j) {
        level += j % 2 == 0 ? -half : std::max(half - 1, 0);
        v[sr::kBlockSamples + j] = static_cast<std::uint16_t>(level);
      }
      const std::uint32_t spike = quotient << k;
      level += spike % 2 == 0 ? static_cast<std::int32_t>(spike / 2)
                              : -static_cast<std::int32_t>((spike + 1) / 2);
      v[2 * sr::kBlockSamples - 1] = static_cast<std::uint16_t>(level);
      const BlockScan scan = scan_block(v, sr::kBlockSamples, sr::kBlockSamples);
      ASSERT_EQ(scan.k, k);
      ASSERT_FALSE(scan.escape) << "k " << k;
      ASSERT_EQ(scan.max_quotient, quotient) << "k " << k;
      visit(v, "quotient bound");
    }
  }
}


TEST(Rice, VectorEncoderMatchesThePortablePath) {
  // compress16 takes the vector block step on AVX2 + BMI2 hosts for every
  // full block after the first; the portable path is its reference.  Tally
  // what the scales and extremes blocks reach: every k the walk stops at,
  // and escapes.
  const auto portable = sr::detail::compress16_rows().back().impl;
  std::array<bool, 17> k_seen{};
  bool escape_seen = false;
  for_each_encoder_input([&](const std::vector<std::uint16_t>& v,
                             const char* name) {
    EXPECT_EQ(sr::compress16(v), portable(v))
        << name << " length " << v.size();
    if (std::string_view(name) == "quotient bound") return;
    for (std::size_t b = sr::kBlockSamples;
         b + sr::kBlockSamples <= v.size(); b += sr::kBlockSamples) {
      const BlockScan scan = scan_block(v, b, sr::kBlockSamples);
      k_seen[scan.k] = true;
      escape_seen = escape_seen || scan.escape;
    }
  });
  for (unsigned k = 0; k <= 16; ++k) EXPECT_TRUE(k_seen[k]) << "k " << k;
  EXPECT_TRUE(escape_seen);
}

TEST(Rice, EveryEncoderRowMatchesThePortableRow) {
  // Every row of compress16()'s table the host can run, not only the one
  // it picks, against the portable coder.
  const auto rows = sr::detail::compress16_rows();
  ASSERT_EQ(rows.back().needs, 0u);
  for (const auto& row : rows) {
    if (!spacefts::common::cpu::runs(row)) continue;
    for_each_encoder_input([&](const std::vector<std::uint16_t>& v,
                               const char* name) {
      EXPECT_EQ(row.impl(v), rows.back().impl(v))
          << row.name << " " << name << " length " << v.size();
    });
  }
}

TEST(Rice, EveryDecoderRowMatchesThePortableRow) {
  // Every row of decompress16()'s table the host can run against the
  // portable decoder, which the BMI2 row otherwise hides on x86 hosts: the
  // same samples from each stream, and the same samples or the same throw
  // from each stream cut short by 1..4 bytes.
  const auto rows = sr::detail::decompress16_rows();
  ASSERT_EQ(rows.back().needs, 0u);
  const auto portable = rows.back().impl;
  const auto decode = [](sr::detail::Decoder fn,
                         std::span<const std::uint8_t> stream,
                         std::size_t count) {
    try {
      return std::optional(fn(stream, count));
    } catch (const sr::BitstreamError&) {
      return std::optional<std::vector<std::uint16_t>>();
    }
  };
  for (const auto& row : rows) {
    if (!spacefts::common::cpu::runs(row)) continue;
    for_each_encoder_input([&](const std::vector<std::uint16_t>& v,
                               const char* name) {
      const auto stream = sr::compress16(v);
      EXPECT_EQ(row.impl(stream, v.size()), v)
          << row.name << " " << name << " length " << v.size();
      for (std::size_t cut = 1; cut <= std::min<std::size_t>(4, stream.size());
           ++cut) {
        const auto shorter = std::span(stream).first(stream.size() - cut);
        EXPECT_EQ(decode(row.impl, shorter, v.size()),
                  decode(portable, shorter, v.size()))
            << row.name << " " << name << " length " << v.size() << " cut "
            << cut;
      }
    });
  }
}

TEST(Rice, HostileCountAllocationIsBounded) {
  // A 16-byte stream can hold at most 8 samples per byte; a count of 2^40
  // must fail as a short stream without ever asking for more than that.
  std::vector<std::uint8_t> prefix = sr::compress16(std::vector<std::uint16_t>(
      200, 27000));
  prefix.resize(16);
  for (const auto& stream : {std::vector<std::uint8_t>(16, 0x00),
                             std::vector<std::uint8_t>(16, 0xFF), prefix}) {
    g_largest_alloc = 0;
    EXPECT_THROW((void)sr::decompress16(stream, std::size_t{1} << 40),
                 sr::BitstreamError);
    EXPECT_LE(g_largest_alloc.load(), 2 * 8 * stream.size());
  }
}

// ------------------------------------------------- decoder fast-path edges

namespace {

/// Writes a stream block by block, with any codes, legal or not.
class StreamBuilder {
 public:
  /// A Rice block at \p k of (quotient, remainder) codes.
  void rice(unsigned k,
            const std::vector<std::pair<std::uint64_t, std::uint32_t>>& codes) {
    writer_.write_bits(k, 5);
    for (const auto& [quotient, remainder] : codes) {
      writer_.write_unary(quotient);
      writer_.write_bits(remainder, k);
    }
    count_ += codes.size();
  }

  /// A verbatim block of \p n samples.
  void escape(std::size_t n, Rng& rng) {
    writer_.write_bits(31, 5);
    for (std::size_t i = 0; i < n; ++i) writer_.write_bits(rng(), 16);
    count_ += n;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::vector<std::uint8_t> finish() { return writer_.finish(); }

 private:
  sr::BitWriter writer_;
  std::size_t count_ = 0;
};

/// \p n short codes at \p k: quotients 0..max_quotient, random remainders.
std::vector<std::pair<std::uint64_t, std::uint32_t>> filler_codes(
    unsigned k, std::size_t n, std::uint64_t max_quotient, Rng& rng) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> codes(n);
  for (auto& [quotient, remainder] : codes) {
    quotient = rng.below(max_quotient + 1);
    remainder = static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << k));
  }
  return codes;
}

using DecodeOutcome = std::pair<std::vector<std::uint16_t>, std::string>;

/// The samples \p decode returns, or the message of the BitstreamError it
/// throws.
template <typename Decode>
DecodeOutcome outcome_of(Decode&& decode, std::span<const std::uint8_t> stream,
                         std::size_t count) {
  DecodeOutcome out;
  try {
    out.first = decode(stream, count);
  } catch (const sr::BitstreamError& e) {
    out.second = e.what();
  }
  return out;
}

/// Every decoder row the host can run against the bit-serial oracle on
/// \p stream: the same samples, or the same error.  The stream is copied
/// into an allocation of exactly its size, so a read past its end is a
/// heap overflow under AddressSanitizer.
void expect_rows_match_oracle(const std::vector<std::uint8_t>& stream,
                              std::size_t count, const std::string& what) {
  const auto exact = std::make_unique<std::uint8_t[]>(stream.size());
  std::copy(stream.begin(), stream.end(), exact.get());
  const std::span<const std::uint8_t> bytes(exact.get(), stream.size());
  const DecodeOutcome want =
      outcome_of(spacefts::check::oracle_rice_decode, bytes, count);
  for (const auto& row : sr::detail::decompress16_rows()) {
    if (!spacefts::common::cpu::runs(row)) continue;
    const DecodeOutcome got = outcome_of(row.impl, bytes, count);
    EXPECT_EQ(got.second, want.second) << row.name << " " << what;
    EXPECT_EQ(got.first, want.first) << row.name << " " << what;
  }
}

constexpr std::uint64_t kMaxMapped = 131070;

}  // namespace

TEST(Rice, DecoderFastPathMatchesTheOracleAtEveryGroupPosition) {
  // The decoder reads three codes per refill.  One odd code sits at each
  // position of the first, a middle and the last full group of a block,
  // and at the two codes after them: the longest legal run, a quotient of
  // 32 - k and of 40 - k, and a run one past the bound kMaxMapped >> k.
  // The block sits between a Rice block and an escape block, and another
  // Rice block follows.
  Rng rng(0xFA57);
  for (const unsigned k : {0u, 1u, 7u, 12u, 13u, 14u, 16u}) {
    const std::uint64_t bound = kMaxMapped >> k;
    for (const std::uint64_t odd :
         {bound, std::uint64_t{32 - k}, std::uint64_t{40 - k}, bound + 1}) {
      for (const std::size_t at : {0, 1, 2, 12, 13, 14, 27, 28, 29, 30, 31}) {
        StreamBuilder stream;
        stream.rice(k, filler_codes(k, sr::kBlockSamples, 2, rng));
        auto codes = filler_codes(k, sr::kBlockSamples, 2, rng);
        codes[at].first = odd;
        stream.rice(k, codes);
        stream.escape(sr::kBlockSamples, rng);
        stream.rice(k, filler_codes(k, 20, 1, rng));
        const std::size_t count = stream.count();
        expect_rows_match_oracle(stream.finish(), count,
                                 "k " + std::to_string(k) + " quotient " +
                                     std::to_string(odd) + " at " +
                                     std::to_string(at));
      }
    }
  }
}

TEST(Rice, DecoderFastPathStopsAtTheStreamEnd) {
  // The three-code loop runs on a block only while the last of its groups
  // loads all 8 bytes within the stream.  A Rice block then a block of n
  // samples, cut at every length, and padded with 0..15 garbage bytes:
  // every stream length, the one that puts the last block's last full
  // group exactly at that bound among them, and those one byte below and
  // above it.  k = 16 codes with quotients 0..1 take 51..54 bits per
  // group, so their refills advance by up to 7 bytes each.
  Rng rng(0xED6E);
  for (const unsigned k : {0u, 3u, 12u, 16u}) {
    for (std::size_t n = 1; n <= sr::kBlockSamples; ++n) {
      StreamBuilder builder;
      builder.rice(k, filler_codes(k, sr::kBlockSamples, 1, rng));
      builder.rice(k, filler_codes(k, n, 1, rng));
      const std::size_t count = builder.count();
      const std::vector<std::uint8_t> whole = builder.finish();
      const std::string what =
          "k " + std::to_string(k) + " n " + std::to_string(n);
      for (std::size_t cut = 0; cut < whole.size(); ++cut) {
        expect_rows_match_oracle(
            std::vector<std::uint8_t>(whole.begin(), whole.begin() + cut),
            count, what + " cut to " + std::to_string(cut));
      }
      std::vector<std::uint8_t> padded = whole;
      for (std::size_t pad = 0; pad < 16; ++pad) {
        expect_rows_match_oracle(padded, count,
                                 what + " padded by " + std::to_string(pad));
        padded.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
  }
}
