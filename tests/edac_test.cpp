// Tests for the EDAC substrate — Hamming (72,64) SEC-DED and the protected
// pixel store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "spacefts/common/random.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/edac/hamming.hpp"
#include "spacefts/edac/protected_memory.hpp"

namespace se = spacefts::edac;
using spacefts::common::Rng;

// -------------------------------------------------------------------- hamming

TEST(Hamming, CleanWordDecodesClean) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t data = rng();
    const auto parity = se::encode_parity(data);
    const auto result = se::decode(data, parity);
    EXPECT_EQ(result.status, se::DecodeStatus::kClean);
    EXPECT_EQ(result.data, data);
  }
}

TEST(Hamming, CorrectsEverySingleDataBitFlip) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t data = rng();
    const auto parity = se::encode_parity(data);
    for (int bit = 0; bit < 64; ++bit) {
      const auto result = se::decode(data ^ (std::uint64_t{1} << bit), parity);
      EXPECT_EQ(result.status, se::DecodeStatus::kCorrected);
      EXPECT_EQ(result.data, data) << "bit " << bit;
    }
  }
}

TEST(Hamming, CorrectsEverySingleParityBitFlip) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t data = rng();
    const auto parity = se::encode_parity(data);
    for (int bit = 0; bit < 8; ++bit) {
      const auto result =
          se::decode(data, static_cast<std::uint8_t>(parity ^ (1u << bit)));
      EXPECT_EQ(result.status, se::DecodeStatus::kCorrected) << "bit " << bit;
      EXPECT_EQ(result.data, data) << "bit " << bit;
    }
  }
}

TEST(Hamming, DetectsDoubleDataBitFlips) {
  Rng rng(4);
  int detected = 0, total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t data = rng();
    const auto parity = se::encode_parity(data);
    const int b1 = static_cast<int>(rng.below(64));
    int b2 = static_cast<int>(rng.below(64));
    if (b2 == b1) b2 = (b2 + 1) % 64;
    const std::uint64_t damaged =
        data ^ (std::uint64_t{1} << b1) ^ (std::uint64_t{1} << b2);
    const auto result = se::decode(damaged, parity);
    ++total;
    if (result.status == se::DecodeStatus::kUncorrectable) ++detected;
    // It must never silently hand back wrong data as "clean".
    EXPECT_NE(result.status, se::DecodeStatus::kClean);
  }
  EXPECT_EQ(detected, total);  // SEC-DED guarantees double detection
}

TEST(Hamming, ZeroAndAllOnesWords) {
  for (std::uint64_t data : {std::uint64_t{0}, ~std::uint64_t{0}}) {
    const auto parity = se::encode_parity(data);
    EXPECT_EQ(se::decode(data, parity).status, se::DecodeStatus::kClean);
    const auto fixed = se::decode(data ^ 1, parity);
    EXPECT_EQ(fixed.status, se::DecodeStatus::kCorrected);
    EXPECT_EQ(fixed.data, data);
  }
}

// ----------------------------------------------------------- ProtectedMemory

TEST(Hamming, EveryParityRowMatchesThePortableRow) {
  // Every row of encode_parities()'s table the host can run, not only the
  // one it picks, against the per-word table row: 0..70 words (every tail
  // the 8-word steps leave, and none) from each of the 8 byte offsets of a
  // buffer, writing exactly one byte per word.  The portable row itself
  // agrees with encode_parity() word by word.
  const auto rows = se::detail::encode_parities_rows();
  ASSERT_EQ(rows.back().needs, 0u);
  Rng rng(0x9A41);
  std::vector<std::uint8_t> buffer(8 * 70 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  // Some all-zero and all-ones words among the random ones.
  std::fill_n(buffer.begin() + 64, 24, std::uint8_t{0});
  std::fill_n(buffer.begin() + 200, 24, std::uint8_t{0xFF});
  constexpr std::uint8_t kUntouched = 0xA5;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t words = 0; words <= 70; ++words) {
      const std::uint8_t* const data = buffer.data() + offset;
      std::vector<std::uint8_t> want(words + 1, kUntouched);
      rows.back().impl(data, words, want.data());
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word;
        std::memcpy(&word, data + 8 * w, sizeof word);
        ASSERT_EQ(want[w], se::encode_parity(word)) << "word " << w;
      }
      ASSERT_EQ(want[words], kUntouched);
      for (const auto& row : rows) {
        if (!spacefts::common::cpu::runs(row)) continue;
        std::vector<std::uint8_t> got(words + 1, kUntouched);
        row.impl(data, words, got.data());
        EXPECT_EQ(got, want) << row.name << " offset " << offset << " words "
                             << words;
      }
      std::vector<std::uint8_t> picked(words + 1, kUntouched);
      se::encode_parities(data, words, picked.data());
      EXPECT_EQ(picked, want) << "offset " << offset << " words " << words;
    }
  }
}

TEST(ProtectedMemory, RoundtripWithoutFaults) {
  const std::vector<std::uint16_t> pixels{1, 2, 3, 4, 5, 6, 7};  // odd count
  se::ProtectedMemory memory(pixels);
  EXPECT_EQ(memory.size(), pixels.size());
  std::vector<std::uint16_t> out;
  const auto report = memory.scrub(out);
  EXPECT_EQ(out, pixels);
  EXPECT_EQ(report.corrected, 0u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_EQ(report.words, 2u);
}

TEST(ProtectedMemory, CorrectsScatteredSingleBitDamage) {
  std::vector<std::uint16_t> pixels(256, 27000);
  se::ProtectedMemory memory(pixels);
  // One flipped bit in each of three separate words.
  memory.raw_words()[3] ^= std::uint64_t{1} << 17;
  memory.raw_words()[10] ^= std::uint64_t{1} << 63;
  memory.raw_checks()[20] ^= 0x04;
  std::vector<std::uint16_t> out;
  const auto report = memory.scrub(out);
  EXPECT_EQ(out, pixels);
  EXPECT_EQ(report.corrected, 3u);
  EXPECT_EQ(report.uncorrectable, 0u);
}

TEST(ProtectedMemory, ReportsMultiBitWordsAsUncorrectable) {
  std::vector<std::uint16_t> pixels(64, 1000);
  se::ProtectedMemory memory(pixels);
  memory.raw_words()[2] ^= 0b11;  // double flip in one word
  std::vector<std::uint16_t> out;
  const auto report = memory.scrub(out);
  EXPECT_EQ(report.uncorrectable, 1u);
  EXPECT_NE(out, pixels);  // SEC-DED cannot repair it
}

TEST(ProtectedMemory, ScrubRefreshesTheStore) {
  // After a scrub, a second scrub of the same store must be clean — the
  // classic scrubbing loop that stops single-bit errors accumulating.
  std::vector<std::uint16_t> pixels(128, 512);
  se::ProtectedMemory memory(pixels);
  memory.raw_words()[0] ^= std::uint64_t{1} << 5;
  std::vector<std::uint16_t> out;
  (void)memory.scrub(out);
  const auto second = memory.scrub(out);
  EXPECT_EQ(second.corrected, 0u);
  EXPECT_EQ(second.uncorrectable, 0u);
  EXPECT_EQ(out, pixels);
}

TEST(ProtectedMemory, OverheadIsOneEighth) {
  EXPECT_DOUBLE_EQ(se::ProtectedMemory::overhead(), 0.125);
}

// ---------------------------------------------------------------------- crc32

namespace {

std::vector<std::uint8_t> bytes_of(const char* text) {
  std::vector<std::uint8_t> out;
  for (const char* p = text; *p != '\0'; ++p) {
    out.push_back(static_cast<std::uint8_t>(*p));
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng());
  return out;
}

/// CRC-32 from its definition, one bit at a time: the register shifts
/// right, and a one shifted out adds the reflected polynomial.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> bytes,
                            std::uint32_t crc) {
  std::uint32_t c = ~crc;
  for (const std::uint8_t byte : bytes) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

}  // namespace

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard check vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(se::crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(se::crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const auto data = bytes_of("pre-processing input data");
  const auto whole = se::crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const auto head = se::crc32(std::span(data).first(cut));
    EXPECT_EQ(se::crc32(std::span(data).subspan(cut), head), whole)
        << "cut " << cut;
  }
}

/// The CRC path tests' inputs: every length to 1100 bytes, around 4 KiB
/// and 13000, and 2 MiB + 3, from every alignment (\p offset) in a 16-byte
/// window, fresh and continuing a stream.  Stops at the first case that
/// fails.
template <typename Visit>
void for_each_crc_input(Visit visit) {
  constexpr std::size_t kLarge = (std::size_t{2} << 20) + 3;
  const auto data = random_bytes(kLarge + 16, 0xC3C);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  for (const std::size_t n : {4095u, 4096u, 4097u, 13000u}) {
    lengths.push_back(n);
  }
  lengths.push_back(kLarge);
  for (const std::size_t n : lengths) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (const std::uint32_t seed : {0u, 0x5EED1234u}) {
        visit(std::span(data).subspan(offset, n), seed, offset);
        if (testing::Test::HasFailure()) {
          ADD_FAILURE() << "length " << n << " offset " << offset << " seed "
                        << seed;
          return;
        }
      }
    }
  }
}

TEST(Crc32, EveryPathMatchesTheDefinition) {
  // crc32() folds inputs of 64 bytes or more with carry-less multiplies
  // where the host has them; the table path and the bitwise definition
  // must agree with it at every length around its 64- and 16-byte steps,
  // from every alignment, fresh and continuing a stream.
  const auto table = se::detail::crc32_rows().back().impl;
  for_each_crc_input([&](std::span<const std::uint8_t> bytes,
                         std::uint32_t seed, std::size_t offset) {
    const auto expected = table(bytes, seed);
    EXPECT_EQ(se::crc32(bytes, seed), expected);
    // The 2 MiB case checks the definition from one alignment only.
    if (bytes.size() <= 13000 || offset == 0) {
      EXPECT_EQ(expected, bitwise_crc32(bytes, seed));
    }
  });
}

TEST(Crc32, EveryRowMatchesThePortableRow) {
  // Every row of crc32()'s table the host can run, not only the one it
  // picks, against the slice-by-8 row.
  const auto rows = se::detail::crc32_rows();
  ASSERT_EQ(rows.back().needs, 0u);
  for (const auto& row : rows) {
    if (!spacefts::common::cpu::runs(row)) continue;
    for_each_crc_input([&](std::span<const std::uint8_t> bytes,
                           std::uint32_t seed, std::size_t) {
      EXPECT_EQ(row.impl(bytes, seed), rows.back().impl(bytes, seed))
          << row.name;
    });
  }
}

TEST(Crc32, StreamsSplitAtEveryFoldBoundary) {
  // A stream cut on a 16-byte step, or either side of the 64-byte
  // threshold, hands the kernel and the table each other's registers.
  for (const std::size_t n : {1100u, 4097u}) {
    const auto data = random_bytes(n, 0x5717 + n);
    const auto whole = se::crc32(data);
    std::vector<std::size_t> cuts{63, 64, 65, n - 65, n - 64, n - 63};
    for (std::size_t cut = 0; cut <= n; cut += 16) cuts.push_back(cut);
    for (const std::size_t cut : cuts) {
      const auto head = se::crc32(std::span(data).first(cut));
      EXPECT_EQ(se::crc32(std::span(data).subspan(cut), head), whole)
          << "length " << n << " cut " << cut;
    }
  }
}

TEST(Crc32, FrameRoundtrip) {
  auto frame = bytes_of("tile payload");
  const auto payload_size = frame.size();
  se::frame_append_crc(frame);
  EXPECT_EQ(frame.size(), payload_size + 4);
  EXPECT_TRUE(se::frame_verify(frame));
  const auto payload = se::frame_payload(frame);
  EXPECT_EQ(payload.size(), payload_size);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         bytes_of("tile payload").begin()));
}

TEST(Crc32, DetectsEverySingleBitFlipInTheFrame) {
  auto frame = bytes_of("fragment");
  se::frame_append_crc(frame);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto damaged = frame;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(se::frame_verify(damaged)) << "bit " << bit;
  }
}

TEST(Crc32, DetectsEverySingleBitFlipInALongFrame) {
  // 300 payload bytes: the folding kernel's path, with a 12-byte tail.
  auto frame = random_bytes(300, 0xF1A9);
  se::frame_append_crc(frame);
  ASSERT_TRUE(se::frame_verify(frame));
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(se::frame_verify(frame)) << "bit " << bit;
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(Crc32, DetectsRandomMultiBitDamage) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> frame(32 + rng.below(96));
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng());
    se::frame_append_crc(frame);
    const auto pristine = frame;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const auto bit = rng.below(frame.size() * 8);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // Random flips can cancel pairwise; only genuine damage must be caught.
    if (frame != pristine) {
      EXPECT_FALSE(se::frame_verify(frame)) << "trial " << trial;
    }
  }
}

TEST(Hamming, ExhaustiveSingleFlipsAcrossTheCodeword) {
  // Every one of the 72 codeword bits (64 data + 8 parity), flipped alone,
  // must correct back to the original word — for several word patterns.
  Rng rng(71);
  const std::uint64_t words[] = {0u, ~std::uint64_t{0}, rng(), rng(), rng()};
  for (const std::uint64_t data : words) {
    const auto parity = se::encode_parity(data);
    for (int bit = 0; bit < 72; ++bit) {
      const std::uint64_t d =
          bit < 64 ? data ^ (std::uint64_t{1} << bit) : data;
      const auto p = static_cast<std::uint8_t>(
          bit < 64 ? parity : parity ^ (1u << (bit - 64)));
      const auto result = se::decode(d, p);
      ASSERT_EQ(result.status, se::DecodeStatus::kCorrected) << "bit " << bit;
      ASSERT_EQ(result.data, data) << "bit " << bit;
    }
  }
}

TEST(Hamming, ExhaustiveDoubleFlipsDetectWithoutMiscorrecting) {
  // SEC-DED's whole point: all C(72,2) = 2556 two-bit flips across the
  // codeword must be flagged uncorrectable — a miscorrection (kCorrected
  // with wrong data, or kClean) would silently corrupt the pixel store.
  Rng rng(72);
  const std::uint64_t words[] = {0u, ~std::uint64_t{0}, rng()};
  for (const std::uint64_t data : words) {
    const auto parity = se::encode_parity(data);
    std::size_t pairs = 0;
    for (int b1 = 0; b1 < 72; ++b1) {
      for (int b2 = b1 + 1; b2 < 72; ++b2) {
        std::uint64_t d = data;
        std::uint8_t p = parity;
        for (const int bit : {b1, b2}) {
          if (bit < 64) {
            d ^= std::uint64_t{1} << bit;
          } else {
            p = static_cast<std::uint8_t>(p ^ (1u << (bit - 64)));
          }
        }
        ASSERT_EQ(se::decode(d, p).status, se::DecodeStatus::kUncorrectable)
            << "bits " << b1 << "," << b2;
        ++pairs;
      }
    }
    EXPECT_EQ(pairs, 2556u);
  }
}

TEST(Crc32, RejectsTruncatedFrames) {
  // Anything shorter than the 4-byte trailer cannot be a valid frame.
  for (std::size_t size = 0; size < 4; ++size) {
    const std::vector<std::uint8_t> stub(size, 0x00);
    EXPECT_FALSE(se::frame_verify(stub));
    EXPECT_TRUE(se::frame_payload(stub).empty());
  }
  // An empty payload with a correct trailer is a valid frame.
  std::vector<std::uint8_t> empty;
  se::frame_append_crc(empty);
  EXPECT_EQ(empty.size(), 4u);
  EXPECT_TRUE(se::frame_verify(empty));
}
