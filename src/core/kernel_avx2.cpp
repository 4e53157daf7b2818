/// \file kernel_avx2.cpp
/// AVX2 kernel: 16 x u16 or 8 x u32 lanes per 256-bit register.  Compiled
/// with -mavx2, in x86 SIMD builds only; the voter table runs it only
/// where the CPU probe reports AVX2.  All loads/stores are
/// unaligned-form — alignment of the SoA scratch is a performance nicety,
/// never a requirement.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "kernel_engine.hpp"

namespace spacefts::core::detail {
namespace {

struct Avx2Ops {
  using V = __m256i;
  static constexpr std::size_t kLanes16 = 16;
  static constexpr std::size_t kLanes32 = 8;

  static V load(const std::uint16_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static V load(const std::uint32_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static V load(const float* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint16_t* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store(std::uint32_t* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store(float* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V ones() noexcept { return _mm256_set1_epi32(-1); }
  static V vand(V a, V b) noexcept { return _mm256_and_si256(a, b); }
  static V vor(V a, V b) noexcept { return _mm256_or_si256(a, b); }
  static V vxor(V a, V b) noexcept { return _mm256_xor_si256(a, b); }
  static V vnot(V a) noexcept { return _mm256_xor_si256(a, ones()); }
  static V bcast32(std::uint32_t v) noexcept {
    return _mm256_set1_epi32(static_cast<int>(v));
  }
  static V add32(V a, V b) noexcept { return _mm256_add_epi32(a, b); }

  /// Per-u16-lane unsigned x >= y: max(x, y) == x.
  static V geu16(V x, V y) noexcept {
    return _mm256_cmpeq_epi16(_mm256_max_epu16(x, y), x);
  }
  static V minu16(V a, V b) noexcept { return _mm256_min_epu16(a, b); }
  static V maxu16(V a, V b) noexcept { return _mm256_max_epu16(a, b); }
  /// Per-u16-lane wrapping a - b, and unsigned saturating max(a - b, 0).
  static V sub16(V a, V b) noexcept { return _mm256_sub_epi16(a, b); }
  static V subsu16(V a, V b) noexcept { return _mm256_subs_epu16(a, b); }
  template <int kShift>
  static V srl16(V a) noexcept {
    return _mm256_srli_epi16(a, kShift);
  }
  /// Number of non-zero u16 lanes.
  static std::size_t count_nonzero16(V a) noexcept {
    const auto zero_bytes = static_cast<unsigned>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi16(a, _mm256_setzero_si256())));
    return kLanes16 - static_cast<std::size_t>(std::popcount(zero_bytes)) / 2;
  }
  /// Set bits across the register.
  static std::size_t popcount(V a) noexcept {
    std::uint64_t q[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q), a);
    return static_cast<std::size_t>(std::popcount(q[0]) + std::popcount(q[1]) +
                                    std::popcount(q[2]) + std::popcount(q[3]));
  }

  /// Threshold stage of way d (see kernel_engine.hpp): vp_row[k] =
  /// V_val + 1 of lane k's `rows` XORs x = soa[i] ^ soa[i + d], from the
  /// cumulative class counts C_0 = #{x = 0} and C_b = #{x <= 2^(b-1)} =
  /// #{y < 2^(b-1)} for b = 1..15, where y = x -sat 1.  V_val's class is
  /// the smallest b with C_b > rank (C_16 = rows always exceeds it), i.e.
  /// #{b : C_b <= rank} since C is monotone.
  ///
  /// Each row costs one byte compare per pair of classes: in
  /// z = (hi(y) == 0 ? lo(y) : 0xFF) | hi(y) << 8, the low byte is below
  /// 2^j exactly when y < 2^j, and the high byte exactly when y < 2^(j+8).
  /// The u8 counters widen into u32 every 255 rows, so any n stays exact.
  static void way_vplus1(const std::uint16_t* soa, std::size_t twp,
                         std::size_t d, std::size_t rows, std::size_t rank,
                         std::uint16_t* vp_row) noexcept {
    constexpr std::size_t kClasses = 16;
    constexpr std::size_t kPairs = 8;
    constexpr std::size_t kChunk = 255;
    const __m256i zero = _mm256_setzero_si256();
    const __m256i low_byte = _mm256_set1_epi16(0x00FF);
    const __m256i one16 = _mm256_set1_epi16(1);
    for (std::size_t c0 = 0; c0 < twp; c0 += kLanes16) {
      __m256i total_lo[kClasses];
      __m256i total_hi[kClasses];
      for (std::size_t b = 0; b < kClasses; ++b) {
        total_lo[b] = total_hi[b] = zero;
      }
      const auto widen = [&](std::size_t b, __m256i counts) {
        total_lo[b] = _mm256_add_epi32(
            total_lo[b], _mm256_cvtepu16_epi32(_mm256_castsi256_si128(counts)));
        total_hi[b] = _mm256_add_epi32(
            total_hi[b], _mm256_cvtepu16_epi32(_mm256_extracti128_si256(counts, 1)));
      };
      for (std::size_t i0 = 0; i0 < rows; i0 += kChunk) {
        const std::size_t i1 = std::min(rows, i0 + kChunk);
        __m256i zeros = zero;  // C_0, counted in both bytes
        __m256i below[kPairs];  // y < 2^j (low byte), y < 2^(j+8) (high)
        for (std::size_t j = 0; j < kPairs; ++j) below[j] = zero;
        for (std::size_t i = i0; i < i1; ++i) {
          const __m256i x = _mm256_xor_si256(load(soa + i * twp + c0),
                                             load(soa + (i + d) * twp + c0));
          const __m256i y = _mm256_subs_epu16(x, one16);
          const __m256i hi_zero =
              _mm256_cmpeq_epi16(_mm256_srli_epi16(y, 8), zero);
          const __m256i z = _mm256_or_si256(y, _mm256_andnot_si256(hi_zero, low_byte));
          zeros = _mm256_sub_epi8(zeros, _mm256_cmpeq_epi16(x, zero));
          for (std::size_t j = 0; j < kPairs; ++j) {
            const __m256i high_bits =
                _mm256_set1_epi8(static_cast<char>(0xFF << j));
            below[j] = _mm256_sub_epi8(
                below[j],
                _mm256_cmpeq_epi8(_mm256_and_si256(z, high_bits), zero));
          }
        }
        widen(0, _mm256_and_si256(zeros, low_byte));
        for (std::size_t j = 0; j < kPairs; ++j) {
          widen(j + 1, _mm256_and_si256(below[j], low_byte));
          // The j = 7 high byte, y < 2^15, is C_16 = rows: not needed.
          if (j + 9 < kClasses) widen(j + 9, _mm256_srli_epi16(below[j], 8));
        }
      }
      const __m256i limit = _mm256_set1_epi32(static_cast<int>(rank));
      __m256i above_lo = zero;  // #{b : C_b > rank}
      __m256i above_hi = zero;
      for (std::size_t b = 0; b < kClasses; ++b) {
        above_lo = _mm256_sub_epi32(above_lo, _mm256_cmpgt_epi32(total_lo[b], limit));
        above_hi = _mm256_sub_epi32(above_hi, _mm256_cmpgt_epi32(total_hi[b], limit));
      }
      // class = 16 - above and V_val = 1 << (class - 1): shift by
      // 15 - above, where class 0 shifts by 2^32 - 1 and sllv yields 0.
      const __m256i one = _mm256_set1_epi32(1);
      const __m256i last = _mm256_set1_epi32(static_cast<int>(kClasses) - 1);
      const __m256i vp_lo = _mm256_add_epi32(
          _mm256_sllv_epi32(one, _mm256_sub_epi32(last, above_lo)), one);
      const __m256i vp_hi = _mm256_add_epi32(
          _mm256_sllv_epi32(one, _mm256_sub_epi32(last, above_hi)), one);
      store(vp_row + c0, _mm256_permute4x64_epi64(
                             _mm256_packus_epi32(vp_lo, vp_hi), 0xD8));
    }
  }

  /// Per-u32-lane unsigned x >= y.
  static V geu32(V x, V y) noexcept {
    return _mm256_cmpeq_epi32(_mm256_max_epu32(x, y), x);
  }

  static V maxu32(V a, V b) noexcept { return _mm256_max_epu32(a, b); }
  /// Per-lane binary32 min and max.
  static V minf32(V a, V b) noexcept {
    return _mm256_castps_si256(
        _mm256_min_ps(_mm256_castsi256_ps(a), _mm256_castsi256_ps(b)));
  }
  static V maxf32(V a, V b) noexcept {
    return _mm256_castps_si256(
        _mm256_max_ps(_mm256_castsi256_ps(a), _mm256_castsi256_ps(b)));
  }
  /// Per-lane binary32 ordered a >= b, and a - b.
  static V gef32(V a, V b) noexcept {
    return _mm256_castps_si256(_mm256_cmp_ps(
        _mm256_castsi256_ps(a), _mm256_castsi256_ps(b), _CMP_GE_OQ));
  }
  static V subf32(V a, V b) noexcept {
    return _mm256_castps_si256(
        _mm256_sub_ps(_mm256_castsi256_ps(a), _mm256_castsi256_ps(b)));
  }

  /// Clean-state mask from eight raw state bytes
  /// (OtisPixelState::kClean == 0): widen to u32 lanes, compare to zero.
  static V clean_mask32(const std::uint8_t* p) noexcept {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_cmpeq_epi32(_mm256_cvtepu8_epi32(bytes),
                              _mm256_setzero_si256());
  }
};

static_assert(kNgstPad % Avx2Ops::kLanes16 == 0,
              "NGST tiles pad to a whole number of lane groups");

}  // namespace

const VoterEntries kAvx2Entries{
    ngst_tile_engine<Avx2Ops>, kNgstPad,
    otis_phase1_engine<Avx2Ops>, otis_phase23_engine<Avx2Ops>};

}  // namespace spacefts::core::detail
