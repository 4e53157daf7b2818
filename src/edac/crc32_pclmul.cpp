/// \file crc32_pclmul.cpp
/// CRC-32 by carry-less multiplication: the folding method of Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), with the bit-reflected constants of
/// polynomial 0xEDB88320.  Compiled with -mpclmul -msse4.1 and only when
/// SPACEFTS_SIMD is on; crc32() calls it only after CPUID confirms the host
/// supports both.
///
/// Four 128-bit lanes fold forward 64 bytes per step (k1, k2), fold into one
/// lane (k3, k4), which then folds 16 bytes per step.  The last 128 bits
/// reduce to 64 (k4, then k5) and a Barrett reduction (P', mu) yields the
/// 32-bit register.
#if defined(SPACEFTS_HAVE_PCLMUL)

#include "crc32_pclmul.hpp"

#include <immintrin.h>

namespace spacefts::edac::detail {
namespace {

// Each k is x^e mod P for the exponent named, bit-reflected and shifted
// left one, as tabulated in the paper.
/// e = 4*128 + 32 and 4*128 - 32: fold by 64 bytes.
constexpr long long kK1 = 0x0154442bd4;
constexpr long long kK2 = 0x01c6e41596;
/// e = 128 + 32 and 128 - 32: fold by 16 bytes.
constexpr long long kK3 = 0x01751997d0;
constexpr long long kK4 = 0x00ccaa009e;
/// e = 64: fold 96 bits to 64.
constexpr long long kK5 = 0x0163cd6124;
/// The polynomial P' (33 bits, reflected) and the Barrett constant
/// mu = floor(x^64 / P), reflected.
constexpr long long kPoly = 0x01db710641;
constexpr long long kMu = 0x01f7011641;

[[nodiscard]] __m128i load(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries \p acc forward past 128 bits of message and adds \p next: the
/// low half times the low constant of \p k, the high half times its high
/// constant.
[[nodiscard]] __m128i fold(__m128i acc, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

std::uint32_t crc32_fold_pclmul(const std::uint8_t* p, std::size_t n,
                                std::uint32_t state) noexcept {
  // The register enters as the first 32 message bits (reflected order).
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; n -= 64, p += 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; n -= 16, p += 16) x0 = fold(x0, k3k4, load(p));

  // 128 -> 64 bits: the low half times k4 onto the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 96 -> 64 bits: the low 32 bits times k5 onto the upper 64.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                                          _mm_set_epi64x(0, kK5), 0x00));
  // Barrett: q = (low 32 bits * mu) mod x^32, then register ^= q * P'.
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

}  // namespace spacefts::edac::detail

#endif  // SPACEFTS_HAVE_PCLMUL
