#include "spacefts/edac/crc32.hpp"

#include <array>

#if defined(SPACEFTS_X86_SIMD)
#include <immintrin.h>
#endif

namespace spacefts::edac {

namespace {

/// Slice-by-8 tables: kTables[0] is the byte-at-a-time table, and
/// kTables[j][n] is the CRC of byte n followed by j zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[j][n] = (t[j - 1][n] >> 8) ^ t[0][t[j - 1][n] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load.
[[nodiscard]] std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the raw CRC register \p c over \p n bytes at \p p, eight bytes
/// per step through the slice-by-8 tables.
[[nodiscard]] std::uint32_t table_update(const std::uint8_t* p, std::size_t n,
                                         std::uint32_t c) noexcept {
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

/// The portable row: the slice-by-8 table over every byte.
[[nodiscard]] std::uint32_t crc32_table(std::span<const std::uint8_t> bytes,
                                        std::uint32_t crc) noexcept {
  return table_update(bytes.data(), bytes.size(), crc ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

#if defined(SPACEFTS_X86_SIMD)

// CRC-32 by carry-less multiplication: the folding method of Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), with the bit-reflected constants of
// polynomial 0xEDB88320.  Four 128-bit lanes fold forward 64 bytes per
// step (k1, k2), fold into one lane (k3, k4), which then folds 16 bytes per
// step.  The last 128 bits reduce to 64 (k4, then k5) and a Barrett
// reduction (P', mu) yields the 32-bit register.
//
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

/// Inputs shorter than this stay on the table: the fold's first step loads
/// four 16-byte lanes.
constexpr std::size_t kFoldMinBytes = 64;

[[gnu::target("pclmul,sse4.1"), gnu::always_inline]] inline __m128i load(
    const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries \p acc forward past 128 bits of message and adds \p next: the
/// low half times the low constant of \p k, the high half times its high
/// constant.
[[gnu::target("pclmul,sse4.1"), gnu::always_inline]] inline __m128i fold(
    __m128i acc, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// The PCLMULQDQ row: inputs of kFoldMinBytes or more fold their whole
/// 16-byte blocks, and the table takes the 0-15 bytes left.
[[gnu::target("pclmul,sse4.1")]] std::uint32_t crc32_pclmul(
    std::span<const std::uint8_t> bytes, std::uint32_t crc) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  if (n >= kFoldMinBytes) {
    // The register enters as the first 32 message bits (reflected order).
    __m128i x0 =
        _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
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
    c = static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
  }
  return table_update(p, n, c) ^ 0xFFFFFFFFu;
}

#endif  // SPACEFTS_X86_SIMD

constexpr common::cpu::Row<detail::Crc32Fn> kRows[] = {
#if defined(SPACEFTS_X86_SIMD)
    {"pclmul", common::cpu::kPclmul, crc32_pclmul},
#endif
    {"table", 0, crc32_table},
};

}  // namespace

namespace detail {

std::span<const common::cpu::Row<Crc32Fn>> crc32_rows() noexcept {
  return kRows;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc) noexcept {
  static const detail::Crc32Fn fn =
      common::cpu::pick(detail::crc32_rows()).impl;
  return fn(bytes, crc);
}

void frame_append_crc(std::vector<std::uint8_t>& payload) {
  const std::uint32_t c = crc32(payload);
  payload.push_back(static_cast<std::uint8_t>(c & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 8) & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 16) & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 24) & 0xFFu));
}

bool frame_verify(std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return false;
  const auto payload = frame.first(frame.size() - 4);
  return crc32(payload) == load_le32(frame.last(4).data());
}

std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return {};
  return frame.first(frame.size() - 4);
}

}  // namespace spacefts::edac
