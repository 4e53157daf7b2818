#include "spacefts/rice/rice.hpp"

#include <algorithm>

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

/// Zigzag map: 0, -1, 1, -2, 2, … -> 0, 1, 2, 3, 4, …
[[nodiscard]] std::uint32_t zigzag(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

[[nodiscard]] std::int32_t unzigzag(std::uint32_t u) noexcept {
  return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Cost in bits of coding \p residuals with Rice parameter k.
[[nodiscard]] std::size_t rice_cost(std::span<const std::uint32_t> residuals,
                                    unsigned k) noexcept {
  std::size_t bits = 0;
  for (std::uint32_t r : residuals) {
    bits += (r >> k) + 1 + k;
  }
  return bits;
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
  std::vector<std::uint32_t> residuals;
  residuals.reserve(kBlockSamples);

  std::size_t i = 0;
  while (i < samples.size()) {
    const std::size_t block_len = std::min(kBlockSamples, samples.size() - i);
    residuals.clear();
    for (std::size_t j = 0; j < block_len; ++j) {
      const std::int32_t delta = static_cast<std::int32_t>(samples[i + j]) -
                                 static_cast<std::int32_t>(previous);
      residuals.push_back(zigzag(delta));
      previous = samples[i + j];
    }
    // Pick the cheapest k; compare against the verbatim escape.  The cost
    // is convex in k (each step up saves sum(ceil((r >> k) / 2)) quotient
    // bits, which never grows with k, and spends block_len remainder bits),
    // so the first k whose successor costs no less is the first strict
    // minimum over all k.
    unsigned best_k = 0;
    std::size_t best_cost = rice_cost(residuals, 0);
    for (unsigned k = 1; k <= kMaxK; ++k) {
      const std::size_t cost = rice_cost(residuals, k);
      if (cost >= best_cost) break;
      best_cost = cost;
      best_k = k;
    }
    const std::size_t verbatim_cost = block_len * 16;
    if (verbatim_cost < best_cost) {
      writer.write_bits(kEscape, 5);
      // Verbatim blocks restart the predictor from the stored samples.
      for (std::size_t j = 0; j < block_len; ++j) {
        writer.write_bits(samples[i + j], 16);
      }
    } else {
      writer.write_bits(best_k, 5);
      for (std::uint32_t r : residuals) {
        const std::uint32_t q = r >> best_k;
        const std::uint32_t low = r & ((1u << best_k) - 1);
        if (q + 1 + best_k <= 32) {
          // ones(q), the terminating zero and the k-bit remainder in one put.
          const std::uint64_t ones = (std::uint64_t{1} << q) - 1;
          writer.write_bits((ones << (best_k + 1)) | low, q + 1 + best_k);
        } else {
          writer.write_unary(q);
          writer.write_bits(low, best_k);
        }
      }
    }
    i += block_len;
  }
  return writer.finish();
}

std::vector<std::uint16_t> decompress16(std::span<const std::uint8_t> stream,
                                        std::size_t count) {
  BitReader reader(stream);
  std::vector<std::uint16_t> out;
  // The count comes from outside; every sample costs at least one bit, so
  // the stream bounds what a well-formed decode can produce.
  out.reserve(std::min(count, stream.size() * 8));
  std::uint16_t previous = 0;
  while (out.size() < count) {
    const auto k = static_cast<unsigned>(reader.read_bits(5));
    const std::size_t block_len = std::min(kBlockSamples, count - out.size());
    if (k == kEscape) {
      for (std::size_t j = 0; j < block_len; ++j) {
        const auto v = static_cast<std::uint16_t>(reader.read_bits(16));
        out.push_back(v);
        previous = v;
      }
      continue;
    }
    if (k > kMaxK) throw BitstreamError("decompress16: invalid k");
    for (std::size_t j = 0; j < block_len; ++j) {
      const std::uint64_t quotient = reader.read_unary(kMaxMapped >> k);
      const std::uint64_t remainder = k ? reader.read_bits(k) : 0;
      const auto mapped = static_cast<std::uint32_t>((quotient << k) | remainder);
      const std::int32_t delta = unzigzag(mapped);
      const auto value = static_cast<std::uint16_t>(
          static_cast<std::int32_t>(previous) + delta);
      out.push_back(value);
      previous = value;
    }
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
