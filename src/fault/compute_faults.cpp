#include "spacefts/fault/compute_faults.hpp"

#include <cstring>
#include <stdexcept>

#include "spacefts/common/random.hpp"

namespace spacefts::fault {
namespace {

// Relative mix of the silent kinds once a fault fires; stall_weight joins
// them from the config.
constexpr double kBitflipWeight = 4.0;
constexpr double kStuckWeight = 2.0;
constexpr double kTruncateWeight = 2.0;
constexpr double kSilentWeight = kBitflipWeight + kStuckWeight + kTruncateWeight;

constexpr std::size_t kMaxBitFlips = 8;  ///< kBitFlips: 1..max flipped bits
constexpr std::size_t kTileSide = 8;     ///< kStuckTile: stuck square side
constexpr unsigned kTruncateBits = 3;    ///< kTruncate: low bits zeroed per word

}  // namespace

const char* to_string(ComputeFaultKind kind) noexcept {
  switch (kind) {
    case ComputeFaultKind::kNone:
      return "none";
    case ComputeFaultKind::kBitFlips:
      return "bit-flips";
    case ComputeFaultKind::kStuckTile:
      return "stuck-tile";
    case ComputeFaultKind::kTruncate:
      return "truncate";
    case ComputeFaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

ComputeFaultModel::ComputeFaultModel(const ComputeFaultConfig& config)
    : config_(config) {
  if (!(config_.fault_rate >= 0.0 && config_.fault_rate <= 1.0)) {
    throw std::invalid_argument("compute_faults: fault_rate outside [0, 1]");
  }
  if (config_.stall_weight < 0.0) {
    throw std::invalid_argument("compute_faults: negative kind weight");
  }
  if (config_.stall_ms < 0.0) {
    throw std::invalid_argument("compute_faults: negative stall_ms");
  }
}

ComputeFaultPlan ComputeFaultModel::plan(std::uint64_t request,
                                         std::uint64_t epoch) const {
  ComputeFaultPlan out;
  if (config_.perfect()) return out;  // zero draws, by contract
  common::Rng rng(common::derive_stream_seed(config_.seed, request, epoch));
  // Draw order is part of the replay contract: fire?, kind, payload seed.
  if (rng.uniform() >= config_.fault_rate) return out;
  const double total = kSilentWeight + config_.stall_weight;
  double pick = rng.uniform() * total;
  if ((pick -= kBitflipWeight) < 0.0) {
    out.kind = ComputeFaultKind::kBitFlips;
  } else if ((pick -= kStuckWeight) < 0.0) {
    out.kind = ComputeFaultKind::kStuckTile;
  } else if ((pick -= kTruncateWeight) < 0.0) {
    out.kind = ComputeFaultKind::kTruncate;
  } else {
    out.kind = ComputeFaultKind::kStall;
    out.stall_ms = config_.stall_ms;
  }
  out.payload_seed = rng();
  return out;
}

namespace {

/// Shared word-level corruption over an integer view of the output.  The
/// payload stream is consumed in a fixed order per kind, so a plan always
/// produces the same corruption on the same-shaped buffer.
template <typename Word>
std::size_t corrupt_words(std::span<Word> words, std::size_t row_width,
                          const ComputeFaultPlan& plan) {
  if (words.empty() || !plan.silent()) return 0;
  constexpr unsigned kBits = sizeof(Word) * 8;
  common::Rng rng(plan.payload_seed);
  std::size_t changed = 0;
  switch (plan.kind) {
    case ComputeFaultKind::kBitFlips: {
      const std::size_t flips =
          1 + static_cast<std::size_t>(rng.below(kMaxBitFlips));
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t bit = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(words.size()) * kBits));
        Word& w = words[bit / kBits];
        const Word before = w;
        w = static_cast<Word>(w ^ (Word{1} << (bit % kBits)));
        if (w != before) ++changed;
      }
      break;
    }
    case ComputeFaultKind::kStuckTile: {
      const std::size_t width = row_width > 0 ? row_width : words.size();
      const std::size_t height = (words.size() + width - 1) / width;
      const std::size_t x0 = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(width)));
      const std::size_t y0 = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(height)));
      const Word stuck = static_cast<Word>(rng());
      for (std::size_t y = y0; y < y0 + kTileSide && y < height; ++y) {
        for (std::size_t x = x0; x < x0 + kTileSide && x < width; ++x) {
          const std::size_t i = y * width + x;
          if (i >= words.size()) break;
          if (words[i] != stuck) {
            words[i] = stuck;
            ++changed;
          }
        }
      }
      break;
    }
    case ComputeFaultKind::kTruncate: {
      const Word mask = static_cast<Word>(~Word{0} << kTruncateBits);
      for (Word& w : words) {
        const Word before = w;
        w = static_cast<Word>(w & mask);
        if (w != before) ++changed;
      }
      break;
    }
    default:
      break;
  }
  return changed;
}

}  // namespace

std::size_t ComputeFaultModel::corrupt(std::span<std::uint16_t> words,
                                       std::size_t row_width,
                                       const ComputeFaultPlan& plan) const {
  return corrupt_words<std::uint16_t>(words, row_width, plan);
}

std::size_t ComputeFaultModel::corrupt(std::span<float> values,
                                       std::size_t row_width,
                                       const ComputeFaultPlan& plan) const {
  // Corrupt the IEEE-754 bit patterns through a uint32 view; for floats a
  // "truncated datapath" loses low *mantissa* bits, which is the same
  // low-bits mask.
  static_assert(sizeof(float) == sizeof(std::uint32_t));
  std::span<std::uint32_t> bits{
      reinterpret_cast<std::uint32_t*>(values.data()), values.size()};
  return corrupt_words<std::uint32_t>(bits, row_width, plan);
}

}  // namespace spacefts::fault
