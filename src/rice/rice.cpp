#include "spacefts/rice/rice.hpp"

#include <algorithm>
#include <array>
#include <bit>

#if defined(SPACEFTS_X86_SIMD)
#include <immintrin.h>
#endif

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

/// The first strict minimum of the cost of a block of \p n residuals
/// summing to \p sum over k in [0, kMaxK], with \p saving(k) their
/// saving() at k; the stream format depends on this exact choice.
///
/// cost(k + 1) - cost(k) = n - saving(k) =: delta(k).  saving(k) never
/// grows with k, so delta is non-decreasing and the first strict minimum
/// is the smallest k < kMaxK with delta(k) >= 0, or kMaxK if there is
/// none.  That predicate is monotone in k, so a walk from any start finds
/// the same k.  Started at floor(log2(mean residual)), near the optimum,
/// the walk evaluates about two saving() sums per block on the NGST and
/// telemetry benches.  Always inlined: GCC will not inline the vector
/// encoder's lane_saving() into the plain \p saving lambda, only into the
/// encoder the lambda and this walk inline into.
template <typename Saving>
[[nodiscard, gnu::always_inline]] inline unsigned choose_k(
    std::uint32_t n, std::uint32_t sum, Saving saving) noexcept {
  const auto stops = [&](unsigned k) {
    return k == kMaxK || saving(k) <= n;
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

/// Codes one block of samples after \p previous: the 5-bit header, then
/// the Rice codes of its residuals, or the samples verbatim when that is
/// strictly cheaper.
void code_block(BitWriter& writer, std::span<const std::uint16_t> block,
                std::uint16_t previous) {
  std::array<std::uint32_t, kBlockSamples> storage;
  const auto residuals = std::span(storage).first(block.size());
  std::uint32_t sum = 0;
  for (std::size_t j = 0; j < block.size(); ++j) {
    const std::int32_t delta = static_cast<std::int32_t>(block[j]) -
                               static_cast<std::int32_t>(previous);
    residuals[j] = zigzag(delta);
    sum += residuals[j];
    previous = block[j];
  }
  // Pick the cheapest k; compare against the verbatim escape.
  const unsigned k =
      choose_k(static_cast<std::uint32_t>(block.size()), sum,
               [residuals](unsigned at) { return saving(residuals, at); });
  std::size_t rice_cost = block.size() * (1 + k);
  for (std::uint32_t r : residuals) rice_cost += r >> k;
  if (block.size() * 16 < rice_cost) {
    writer.write_bits(kEscape, 5);
    // Verbatim blocks restart the predictor from the stored samples.
    for (std::uint16_t sample : block) writer.write_bits(sample, 16);
    return;
  }
  writer.write_bits(k, 5);
  writer.write_rice(k, residuals);
}

/// A writer presized for the stream of \p count samples: a block never
/// costs more than its verbatim form, 16 bits per sample plus the 5-bit
/// header.
BitWriter presized_writer(std::size_t count) {
  BitWriter writer;
  const std::size_t blocks = (count + kBlockSamples - 1) / kBlockSamples;
  writer.reserve(count * 2 + (blocks * 5 + 7) / 8);
  return writer;
}

/// The portable encoder row: code_block() for every block.
std::vector<std::uint8_t> compress16_portable(
    std::span<const std::uint16_t> samples) {
  BitWriter writer = presized_writer(samples.size());
  for (std::size_t i = 0; i < samples.size(); i += kBlockSamples) {
    const auto block =
        samples.subspan(i, std::min(kBlockSamples, samples.size() - i));
    code_block(writer, block, i == 0 ? 0 : samples[i - 1]);
  }
  return writer.finish();
}

/// The portable decoder row, and the body of each of its builds.
[[gnu::always_inline]] inline std::vector<std::uint16_t> decode(
    std::span<const std::uint8_t> stream, std::size_t count) {
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

#if defined(SPACEFTS_X86_SIMD)

/// Sum of the eight 32-bit lanes of \p v.
[[gnu::target("avx2,bmi2")]] std::uint32_t lane_sum(__m256i v) noexcept {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

/// saving() over the 32 residuals of a full block, held in four vectors.
[[gnu::target("avx2,bmi2")]] std::uint32_t lane_saving(const __m256i (&r)[4],
                                                       unsigned k) noexcept {
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(k));
  const __m256i one = _mm256_set1_epi32(1);
  __m256i bits = _mm256_setzero_si256();
  for (const __m256i& v : r) {
    const __m256i q = _mm256_add_epi32(_mm256_srl_epi32(v, shift), one);
    bits = _mm256_add_epi32(bits, _mm256_srli_epi32(q, 1));
  }
  return lane_sum(bits);
}

/// Codes the full block at \p p, whose sample before it is p[-1], with the
/// same header and codes as code_block(): residuals, the k walk and the
/// codes in 8-lane vectors, neighbouring codes merged into 16 codes of at
/// most 64 bits, and those emitted through BitWriter::write_codes().  A
/// block that escapes or holds a quotient of 32 - k or more returns false
/// having written nothing; code_block() codes it.
[[gnu::target("avx2,bmi2")]] bool code_block_avx2(BitWriter& writer,
                                                  const std::uint16_t* p) {
  __m256i r[4];
  __m256i sum = _mm256_setzero_si256();
  for (std::size_t v = 0; v < 4; ++v) {
    const __m256i cur = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8 * v)));
    const __m256i prev = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8 * v - 1)));
    const __m256i delta = _mm256_sub_epi32(cur, prev);
    r[v] = _mm256_xor_si256(_mm256_slli_epi32(delta, 1),
                            _mm256_srai_epi32(delta, 31));
    sum = _mm256_add_epi32(sum, r[v]);
  }
  constexpr std::uint32_t n = kBlockSamples;
  const unsigned k = choose_k(n, lane_sum(sum), [&r](unsigned at) {
    return lane_saving(r, at);
  });

  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(k));
  __m256i q[4];
  __m256i q_sum = _mm256_setzero_si256();
  __m256i q_max = _mm256_setzero_si256();
  for (std::size_t v = 0; v < 4; ++v) {
    q[v] = _mm256_srl_epi32(r[v], shift);
    q_sum = _mm256_add_epi32(q_sum, q[v]);
    q_max = _mm256_max_epu32(q_max, q[v]);
  }
  if (n * 16 < n * (1 + k) + lane_sum(q_sum)) return false;  // escape
  // Quotients stay below 2^17, so a signed compare orders them.
  const __m256i long_code = _mm256_cmpgt_epi32(
      q_max, _mm256_set1_epi32(static_cast<int>(31 - k)));
  if (_mm256_movemask_epi8(long_code) != 0) return false;

  // Code j is ones(q) above the stop bit, then the k-bit remainder:
  // (base ^ (base << q)) | (r & low), q + 1 + k <= 32 bits long.  Each
  // 64-bit lane holds an even code below an odd one; the pair merges into
  // even << length(odd) | odd, at most 64 bits.
  const __m256i base = _mm256_set1_epi32(static_cast<int>(~0u << (k + 1)));
  const __m256i low = _mm256_set1_epi32(static_cast<int>((1u << k) - 1));
  const __m256i stop_and_remainder = _mm256_set1_epi32(static_cast<int>(k + 1));
  const __m256i even_half = _mm256_set1_epi64x(0xFFFFFFFF);
  alignas(32) std::uint64_t codes[kBlockSamples / 2];
  alignas(32) std::uint64_t lengths[kBlockSamples / 2];
  for (std::size_t v = 0; v < 4; ++v) {
    const __m256i code =
        _mm256_or_si256(_mm256_xor_si256(base, _mm256_sllv_epi32(base, q[v])),
                        _mm256_and_si256(r[v], low));
    const __m256i length = _mm256_add_epi32(q[v], stop_and_remainder);
    const __m256i odd_length = _mm256_srli_epi64(length, 32);
    const __m256i pair = _mm256_or_si256(
        _mm256_sllv_epi64(_mm256_and_si256(code, even_half), odd_length),
        _mm256_srli_epi64(code, 32));
    _mm256_store_si256(reinterpret_cast<__m256i*>(codes + 4 * v), pair);
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(lengths + 4 * v),
        _mm256_add_epi64(_mm256_and_si256(length, even_half), odd_length));
  }
  writer.write_bits(k, 5);
  writer.write_codes(codes, lengths);
  return true;
}

/// The AVX2 + BMI2 encoder row: every full block after the first goes to
/// code_block_avx2(); the first (no sample before it to load), the tail
/// and the blocks it declines go to code_block().
[[gnu::target("avx2,bmi2")]] std::vector<std::uint8_t> compress16_avx2(
    std::span<const std::uint16_t> samples) {
  BitWriter writer = presized_writer(samples.size());
  for (std::size_t i = 0; i < samples.size(); i += kBlockSamples) {
    const auto block =
        samples.subspan(i, std::min(kBlockSamples, samples.size() - i));
    if (i == 0 || block.size() < kBlockSamples ||
        !code_block_avx2(writer, block.data())) {
      code_block(writer, block, i == 0 ? 0 : samples[i - 1]);
    }
  }
  return writer.finish();
}

/// The BMI2 + LZCNT decoder row: decode() with the reader's variable
/// shifts and bit scans as SHLX, SHRX and LZCNT.
[[gnu::target("bmi2,lzcnt")]] std::vector<std::uint16_t> decode_bmi2(
    std::span<const std::uint8_t> stream, std::size_t count) {
  return decode(stream, count);
}

#endif  // SPACEFTS_X86_SIMD

namespace cpu = common::cpu;

constexpr cpu::Row<detail::Encoder> kEncoders[] = {
#if defined(SPACEFTS_X86_SIMD)
    {"avx2_bmi2", cpu::kAvx2 | cpu::kBmi2, compress16_avx2},
#endif
    {"portable", 0, compress16_portable},
};

constexpr cpu::Row<detail::Decoder> kDecoders[] = {
#if defined(SPACEFTS_X86_SIMD)
    {"bmi2_lzcnt", cpu::kBmi2 | cpu::kLzcnt, decode_bmi2},
#endif
    {"portable", 0, decode},
};

}  // namespace

namespace detail {

std::span<const cpu::Row<Encoder>> compress16_rows() noexcept {
  return kEncoders;
}

std::span<const cpu::Row<Decoder>> decompress16_rows() noexcept {
  return kDecoders;
}

}  // namespace detail

std::vector<std::uint8_t> compress16(std::span<const std::uint16_t> samples) {
  static const detail::Encoder encode =
      cpu::pick(detail::compress16_rows()).impl;
  return encode(samples);
}

std::vector<std::uint16_t> decompress16(std::span<const std::uint8_t> stream,
                                        std::size_t count) {
  static const detail::Decoder decoder =
      cpu::pick(detail::decompress16_rows()).impl;
  return decoder(stream, count);
}

double compression_ratio16(std::span<const std::uint16_t> samples) {
  if (samples.empty()) return 0.0;
  const auto compressed = compress16(samples);
  if (compressed.empty()) return 0.0;
  return static_cast<double>(samples.size() * 2) /
         static_cast<double>(compressed.size());
}

}  // namespace spacefts::rice
