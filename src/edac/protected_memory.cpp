#include "spacefts/edac/protected_memory.hpp"

namespace spacefts::edac {

namespace {

/// The words' bytes in memory order, as encode_parities() reads them.
const std::uint8_t* bytes_of(const std::vector<std::uint64_t>& words) {
  return reinterpret_cast<const std::uint8_t*>(words.data());
}

}  // namespace

ProtectedMemory::ProtectedMemory(std::span<const std::uint16_t> pixels)
    : pixel_count_(pixels.size()) {
  const std::size_t word_count = (pixels.size() + 3) / 4;
  words_.reserve(word_count);
  for (std::size_t w = 0; w < word_count; ++w) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::size_t i = 4 * w + lane;
      if (i < pixels.size()) {
        word |= static_cast<std::uint64_t>(pixels[i]) << (16 * lane);
      }
    }
    words_.push_back(word);
  }
  checks_.resize(word_count);
  encode_parities(bytes_of(words_), word_count, checks_.data());
}

ScrubReport ProtectedMemory::scrub(std::vector<std::uint16_t>& pixels_out) {
  ScrubReport report;
  report.words = words_.size();
  // A word whose check byte is the one its data implies decodes kClean and
  // is rewritten unchanged, so only the mismatched words are decoded.
  std::vector<std::uint8_t> expected(words_.size());
  encode_parities(bytes_of(words_), words_.size(), expected.data());
  pixels_out.assign(pixel_count_, 0);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (expected[w] != checks_[w]) {
      const DecodeResult decoded = decode(words_[w], checks_[w]);
      switch (decoded.status) {
        case DecodeStatus::kClean:
          break;
        case DecodeStatus::kCorrected:
          ++report.corrected;
          break;
        case DecodeStatus::kUncorrectable:
          ++report.uncorrectable;
          break;
      }
      // Scrubbing rewrites the (possibly repaired) word and a fresh check
      // byte; uncorrectable words are passed through as-is — the downstream
      // preprocessing layer is their only hope.
      words_[w] = decoded.data;
      checks_[w] = encode_parity(decoded.data);
    }
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::size_t i = 4 * w + lane;
      if (i < pixel_count_) {
        pixels_out[i] =
            static_cast<std::uint16_t>((words_[w] >> (16 * lane)) & 0xFFFF);
      }
    }
  }
  return report;
}

}  // namespace spacefts::edac
