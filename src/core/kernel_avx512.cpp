/// \file kernel_avx512.cpp
/// AVX-512 kernel: 32 x u16 or 16 x u32 lanes per 512-bit register, the
/// same engine as the SWAR and AVX2 tiers.  Compiled with -mavx512f
/// -mavx512bw, in x86 SIMD builds only; the voter table runs it only
/// where the CPU probe reports both.  All loads/stores
/// are unaligned-form, as in the AVX2 kernel.
///
/// GCC 12 reports -Wmaybe-uninitialized inside avx512fintrin.h for the
/// unmasked intrinsics whose pass-through operand is
/// _mm512_undefined_epi32() (cvtepu*, extracti64x4, castsi512_si256,
/// andnot, sllv, cvtepi32_epi16, inserti64x4).  This file uses their
/// maskz_ forms with all-ones masks, or avoids them, instead.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "kernel_engine.hpp"

namespace spacefts::core::detail {
namespace {

struct Avx512Ops {
  using V = __m512i;
  static constexpr std::size_t kLanes16 = 32;
  static constexpr std::size_t kLanes32 = 16;

  static V load(const std::uint16_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static V load(const std::uint32_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static V load(const float* p) noexcept { return _mm512_loadu_si512(p); }
  static void store(std::uint16_t* p, V v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static void store(std::uint32_t* p, V v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static void store(float* p, V v) noexcept { _mm512_storeu_si512(p, v); }

  static V zero() noexcept { return _mm512_setzero_si512(); }
  static V ones() noexcept { return _mm512_set1_epi32(-1); }
  static V vand(V a, V b) noexcept { return _mm512_and_si512(a, b); }
  static V vor(V a, V b) noexcept { return _mm512_or_si512(a, b); }
  static V vxor(V a, V b) noexcept { return _mm512_xor_si512(a, b); }
  static V vnot(V a) noexcept { return _mm512_xor_si512(a, ones()); }
  static V bcast32(std::uint32_t v) noexcept {
    return _mm512_set1_epi32(static_cast<int>(v));
  }
  static V add32(V a, V b) noexcept { return _mm512_add_epi32(a, b); }

  /// Per-u16-lane unsigned x >= y, widened from the compare mask.
  static V geu16(V x, V y) noexcept {
    return _mm512_movm_epi16(_mm512_cmpge_epu16_mask(x, y));
  }
  static V minu16(V a, V b) noexcept { return _mm512_min_epu16(a, b); }
  static V maxu16(V a, V b) noexcept { return _mm512_max_epu16(a, b); }
  /// Per-u16-lane wrapping a - b, and unsigned saturating max(a - b, 0).
  static V sub16(V a, V b) noexcept { return _mm512_sub_epi16(a, b); }
  static V subsu16(V a, V b) noexcept { return _mm512_subs_epu16(a, b); }
  template <int kShift>
  static V srl16(V a) noexcept {
    return _mm512_srli_epi16(a, kShift);
  }
  /// Number of non-zero u16 lanes.
  static std::size_t count_nonzero16(V a) noexcept {
    return static_cast<std::size_t>(std::popcount(
        static_cast<std::uint32_t>(_mm512_test_epi16_mask(a, a))));
  }
  /// Set bits across the register (AVX-512F/BW has no vector popcount).
  static std::size_t popcount(V a) noexcept {
    std::uint64_t q[8];
    _mm512_storeu_si512(q, a);
    std::size_t bits = 0;
    for (const std::uint64_t word : q) {
      bits += static_cast<std::size_t>(std::popcount(word));
    }
    return bits;
  }

  /// Threshold stage of way d: the AVX2 byte-pair class counting (see
  /// Avx2Ops::way_vplus1 and kernel_engine.hpp), 64 bytes per compare.
  /// In z = y | min(y, 0xFF), with y = x -sat 1, the low byte is below 2^j
  /// exactly when y < 2^j, and the high byte exactly when y < 2^(j+8).
  /// Each class pair costs one byte test into a mask register and one
  /// masked u8 increment per row; the counters widen into u32 every 255
  /// rows.  The widening unpacks each 128-bit block's low and high four
  /// u16 lanes, and packus re-interleaves them in the same blocks, so the
  /// stored V_vals come out in lane order without a cross-block permute.
  static void way_vplus1(const std::uint16_t* soa, std::size_t twp,
                         std::size_t d, std::size_t rows, std::size_t rank,
                         std::uint16_t* vp_row) noexcept {
    constexpr std::size_t kClasses = 16;
    constexpr std::size_t kPairs = 8;
    constexpr std::size_t kChunk = 255;
    const __m512i zero = _mm512_setzero_si512();
    const __m512i low_byte = _mm512_set1_epi16(0x00FF);
    const __m512i one16 = _mm512_set1_epi16(1);
    const __m512i one8 = _mm512_set1_epi8(1);
    __m512i high_bits[kPairs];
    for (std::size_t j = 0; j < kPairs; ++j) {
      high_bits[j] = _mm512_set1_epi8(static_cast<char>(0xFF << j));
    }
    for (std::size_t c0 = 0; c0 < twp; c0 += kLanes16) {
      __m512i total_lo[kClasses];
      __m512i total_hi[kClasses];
      for (std::size_t b = 0; b < kClasses; ++b) {
        total_lo[b] = total_hi[b] = zero;
      }
      const auto widen = [&](std::size_t b, __m512i counts) {
        total_lo[b] =
            _mm512_add_epi32(total_lo[b], _mm512_unpacklo_epi16(counts, zero));
        total_hi[b] =
            _mm512_add_epi32(total_hi[b], _mm512_unpackhi_epi16(counts, zero));
      };
      for (std::size_t i0 = 0; i0 < rows; i0 += kChunk) {
        const std::size_t i1 = std::min(rows, i0 + kChunk);
        __m512i zeros = zero;   // C_0, u16 counters
        __m512i below[kPairs];  // y < 2^j (low byte), y < 2^(j+8) (high)
        for (std::size_t j = 0; j < kPairs; ++j) below[j] = zero;
        for (std::size_t i = i0; i < i1; ++i) {
          const __m512i x = _mm512_xor_si512(load(soa + i * twp + c0),
                                             load(soa + (i + d) * twp + c0));
          const __m512i y = _mm512_subs_epu16(x, one16);
          const __m512i z = _mm512_or_si512(y, _mm512_min_epu16(y, low_byte));
          zeros = _mm512_mask_add_epi16(zeros, _mm512_testn_epi16_mask(x, x),
                                        zeros, one16);
          for (std::size_t j = 0; j < kPairs; ++j) {
            below[j] = _mm512_mask_add_epi8(
                below[j], _mm512_testn_epi8_mask(z, high_bits[j]), below[j],
                one8);
          }
        }
        widen(0, zeros);
        for (std::size_t j = 0; j < kPairs; ++j) {
          widen(j + 1, _mm512_and_si512(below[j], low_byte));
          // The j = 7 high byte, y < 2^15, is C_16 = rows: not needed.
          if (j + 9 < kClasses) widen(j + 9, _mm512_srli_epi16(below[j], 8));
        }
      }
      const __m512i limit = _mm512_set1_epi32(static_cast<int>(rank));
      const __m512i one = _mm512_set1_epi32(1);
      __m512i above_lo = zero;  // #{b : C_b > rank}
      __m512i above_hi = zero;
      for (std::size_t b = 0; b < kClasses; ++b) {
        above_lo = _mm512_mask_add_epi32(
            above_lo, _mm512_cmpgt_epu32_mask(total_lo[b], limit), above_lo,
            one);
        above_hi = _mm512_mask_add_epi32(
            above_hi, _mm512_cmpgt_epu32_mask(total_hi[b], limit), above_hi,
            one);
      }
      // class = 16 - above and V_val = 1 << (class - 1): shift by
      // 15 - above, where class 0 shifts by 2^32 - 1 and sllv yields 0.
      constexpr __mmask16 kAll = 0xFFFF;
      const __m512i last = _mm512_set1_epi32(static_cast<int>(kClasses) - 1);
      const __m512i vp_lo = _mm512_add_epi32(
          _mm512_maskz_sllv_epi32(kAll, one, _mm512_sub_epi32(last, above_lo)),
          one);
      const __m512i vp_hi = _mm512_add_epi32(
          _mm512_maskz_sllv_epi32(kAll, one, _mm512_sub_epi32(last, above_hi)),
          one);
      store(vp_row + c0, _mm512_packus_epi32(vp_lo, vp_hi));
    }
  }

  /// Per-u32-lane unsigned x >= y.
  static V geu32(V x, V y) noexcept {
    return _mm512_maskz_mov_epi32(_mm512_cmpge_epu32_mask(x, y), ones());
  }

  static V maxu32(V a, V b) noexcept {
    return _mm512_maskz_max_epu32(kAll32, a, b);
  }
  /// Per-lane binary32 min and max.
  static V minf32(V a, V b) noexcept {
    return _mm512_castps_si512(_mm512_maskz_min_ps(
        kAll32, _mm512_castsi512_ps(a), _mm512_castsi512_ps(b)));
  }
  static V maxf32(V a, V b) noexcept {
    return _mm512_castps_si512(_mm512_maskz_max_ps(
        kAll32, _mm512_castsi512_ps(a), _mm512_castsi512_ps(b)));
  }
  /// Per-lane binary32 ordered a >= b, and a - b.
  static V gef32(V a, V b) noexcept {
    return _mm512_maskz_mov_epi32(
        _mm512_cmp_ps_mask(_mm512_castsi512_ps(a), _mm512_castsi512_ps(b),
                           _CMP_GE_OQ),
        ones());
  }
  static V subf32(V a, V b) noexcept {
    return _mm512_castps_si512(_mm512_maskz_sub_ps(
        kAll32, _mm512_castsi512_ps(a), _mm512_castsi512_ps(b)));
  }
  static constexpr __mmask16 kAll32 = 0xFFFF;

  /// Clean-state mask from sixteen raw state bytes
  /// (OtisPixelState::kClean == 0): one byte compare, its sign bits as the
  /// lane mask.
  static V clean_mask32(const std::uint8_t* p) noexcept {
    const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const auto clean = static_cast<__mmask16>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_setzero_si128())));
    return _mm512_maskz_mov_epi32(clean, ones());
  }
};

static_assert(Avx512Ops::kLanes16 == kNgstPadAvx512,
              "NGST tiles pad to the AVX-512 lane group");

}  // namespace

const VoterEntries kAvx512Entries{
    ngst_tile_engine<Avx512Ops>, kNgstPadAvx512,
    otis_phase1_engine<Avx512Ops>, otis_phase23_engine<Avx512Ops>};

}  // namespace spacefts::core::detail
