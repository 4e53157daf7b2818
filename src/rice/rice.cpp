#include "spacefts/rice/rice.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "spacefts/rice/bitstream.hpp"

namespace spacefts::rice {

namespace {

/// k is sent in 5 bits; this value flags a verbatim (escape) block.
constexpr unsigned kEscape = 31;
constexpr unsigned kMaxK = 16;

/// Largest zigzag-mapped residual a legal stream can carry: deltas span
/// [-65535, 65535], so the map tops out at zigzag(65535) = 131070.  Bounds
/// the unary quotient during decode — a corrupt run cannot demand
/// gigabit-scale reads, and (quotient << k) can never overflow the 32-bit
/// mapped value silently.
constexpr std::uint64_t kMaxMapped = 131070;

/// Zigzag map: 0, -1, 1, -2, 2, … -> 0, 1, 2, 3, 4, …  The decoder's
/// BitReader::read_rice_samples() undoes it.
[[nodiscard]] std::uint32_t zigzag(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

/// Sum of the quotient bits a block saves by raising k to k + 1:
/// (r >> k) - (r >> (k + 1)) = ceil((r >> k) / 2) per residual.
[[nodiscard]] std::uint32_t saving(std::span<const std::uint32_t> residuals,
                                   unsigned k) noexcept {
  std::uint32_t bits = 0;
  for (std::uint32_t r : residuals) bits += ((r >> k) + 1) >> 1;
  return bits;
}

/// The first strict minimum of the block's cost over k in [0, kMaxK]; the
/// stream format depends on this exact choice.
///
/// cost(k + 1) - cost(k) = n - saving(k) =: delta(k).  saving(k) never
/// grows with k, so delta is non-decreasing and the first strict minimum
/// is the smallest k < kMaxK with delta(k) >= 0, or kMaxK if there is
/// none.  That predicate is monotone in k, so a walk from any start finds
/// the same k.  Started at floor(log2(mean residual)), near the optimum,
/// the walk evaluates about two saving() sums per block on the NGST and
/// telemetry benches.
[[nodiscard]] unsigned choose_k(std::span<const std::uint32_t> residuals,
                                std::uint32_t sum) noexcept {
  const auto n = static_cast<std::uint32_t>(residuals.size());
  const auto stops = [&](unsigned k) {
    return k == kMaxK || saving(residuals, k) <= n;
  };
  const std::uint32_t mean = sum / n;
  unsigned k =
      mean == 0 ? 0u : std::min<unsigned>(std::bit_width(mean) - 1, kMaxK);
  if (stops(k)) {
    while (k > 0 && stops(k - 1)) --k;
  } else {
    do ++k; while (!stops(k));
  }
  return k;
}

}  // namespace

std::vector<std::uint8_t> compress16(std::span<const std::uint16_t> samples) {
  BitWriter writer;
  // A block never costs more than its verbatim form: 16 bits per sample
  // plus the 5-bit header.
  const std::size_t blocks =
      (samples.size() + kBlockSamples - 1) / kBlockSamples;
  writer.reserve(samples.size() * 2 + (blocks * 5 + 7) / 8);
  std::uint16_t previous = 0;
  std::array<std::uint32_t, kBlockSamples> block;

  for (std::size_t i = 0; i < samples.size(); i += kBlockSamples) {
    const std::size_t block_len = std::min(kBlockSamples, samples.size() - i);
    const auto residuals = std::span(block).first(block_len);
    std::uint32_t sum = 0;
    for (std::size_t j = 0; j < block_len; ++j) {
      const std::int32_t delta = static_cast<std::int32_t>(samples[i + j]) -
                                 static_cast<std::int32_t>(previous);
      residuals[j] = zigzag(delta);
      sum += residuals[j];
      previous = samples[i + j];
    }
    // Pick the cheapest k; compare against the verbatim escape.
    const unsigned k = choose_k(residuals, sum);
    std::size_t rice_cost = block_len * (1 + k);
    for (std::uint32_t r : residuals) rice_cost += r >> k;
    if (block_len * 16 < rice_cost) {
      writer.write_bits(kEscape, 5);
      // Verbatim blocks restart the predictor from the stored samples.
      for (std::size_t j = 0; j < block_len; ++j) {
        writer.write_bits(samples[i + j], 16);
      }
      continue;
    }
    writer.write_bits(k, 5);
    writer.write_rice(k, residuals);
  }
  return writer.finish();
}

std::vector<std::uint16_t> decompress16(std::span<const std::uint8_t> stream,
                                        std::size_t count) {
  BitReader reader(stream);
  // The count comes from outside; every sample costs at least one bit, so
  // the stream bounds what a well-formed decode can produce.
  std::vector<std::uint16_t> out(std::min(count, stream.size() * 8));
  // A block that ends past that bound needs more bits than the stream
  // holds, so it cannot decode whole: it reads into this scratch until the
  // reader throws.
  std::array<std::uint16_t, kBlockSamples> overrun{};
  std::uint16_t previous = 0;
  for (std::size_t done = 0; done < count;) {
    const auto k = static_cast<unsigned>(reader.read_bits(5));
    const std::size_t block_len = std::min(kBlockSamples, count - done);
    const std::span<std::uint16_t> block =
        done + block_len <= out.size()
            ? std::span(out).subspan(done, block_len)
            : std::span(overrun).first(block_len);
    if (k == kEscape) {
      for (std::uint16_t& sample : block) {
        sample = static_cast<std::uint16_t>(reader.read_bits(16));
      }
      previous = block.back();
    } else {
      if (k > kMaxK) throw BitstreamError("decompress16: invalid k");
      reader.read_rice_samples(k, kMaxMapped >> k, previous, block);
    }
    done += block_len;
  }
  return out;
}

double compression_ratio16(std::span<const std::uint16_t> samples) {
  if (samples.empty()) return 0.0;
  const auto compressed = compress16(samples);
  if (compressed.empty()) return 0.0;
  return static_cast<double>(samples.size() * 2) /
         static_cast<double>(compressed.size());
}

}  // namespace spacefts::rice
