/// \file kernel_swar.cpp
/// Portable SIMD-within-a-register kernel: 4 x u16 or 2 x u32 lanes per
/// std::uint64_t.  No ISA requirements — this is the floor every build and
/// host can run, and the fallback resolve_kernel() picks when AVX2 or
/// AVX-512 is requested but unavailable.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernel_engine.hpp"

namespace spacefts::core::detail {
namespace {

/// Lane-ops policy over one 64-bit word.
///
/// The unsigned per-lane >= compares use the classic borrow trick: widen
/// each lane into a 32- (or 64-) bit container with a guard bit above it,
/// subtract, and read the guard bit — it survives exactly when the lane
/// subtraction did not borrow, i.e. when x >= y.  Even and odd u16 lanes
/// are handled in two passes so every lane owns a full container.
struct SwarOps {
  using V = std::uint64_t;
  static constexpr std::size_t kLanes16 = 4;
  static constexpr std::size_t kLanes32 = 2;

  static V load(const std::uint16_t* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static V load(const std::uint32_t* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static V load(const float* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void store(std::uint16_t* p, V v) noexcept {
    std::memcpy(p, &v, sizeof(v));
  }
  static void store(std::uint32_t* p, V v) noexcept {
    std::memcpy(p, &v, sizeof(v));
  }
  static void store(float* p, V v) noexcept { std::memcpy(p, &v, sizeof(v)); }

  static V zero() noexcept { return 0; }
  static V ones() noexcept { return ~std::uint64_t{0}; }
  static V vand(V a, V b) noexcept { return a & b; }
  static V vor(V a, V b) noexcept { return a | b; }
  static V vxor(V a, V b) noexcept { return a ^ b; }
  static V vnot(V a) noexcept { return ~a; }
  static V bcast32(std::uint32_t v) noexcept {
    return static_cast<std::uint64_t>(v) * 0x0000000100000001ull;
  }
  /// Lane-wise 32-bit add; lanes hold small voter counts, so no lane can
  /// ever carry into its neighbour.
  static V add32(V a, V b) noexcept { return a + b; }

  /// Per-u16-lane x >= y -> 0xFFFF, else 0.
  static V geu16(V x, V y) noexcept {
    constexpr std::uint64_t kEven = 0x0000FFFF0000FFFFull;
    constexpr std::uint64_t kGuard = 0x0001000000010000ull;
    constexpr std::uint64_t kSel = 0x0000000100000001ull;
    const std::uint64_t de = ((x & kEven) | kGuard) - (y & kEven);
    const std::uint64_t dd = (((x >> 16) & kEven) | kGuard) - ((y >> 16) & kEven);
    const std::uint64_t me = ((de >> 16) & kSel) * 0xFFFFull;
    const std::uint64_t mo = ((dd >> 16) & kSel) * 0xFFFFull;
    return me | (mo << 16);
  }

  static V minu16(V a, V b) noexcept {
    const V ge = geu16(a, b);
    return (b & ge) | (a & ~ge);
  }
  static V maxu16(V a, V b) noexcept {
    const V ge = geu16(a, b);
    return (a & ge) | (b & ~ge);
  }
  /// Per-u16-lane wrapping a - b: subtract with each lane's top bit forced
  /// on in a and off in b, so no borrow crosses a lane, then fix the top
  /// bits up.
  static V sub16(V a, V b) noexcept {
    constexpr std::uint64_t kTop = 0x8000800080008000ull;
    return ((a | kTop) - (b & ~kTop)) ^ ((a ^ ~b) & kTop);
  }
  /// Per-u16-lane unsigned saturating max(a - b, 0).
  static V subsu16(V a, V b) noexcept { return sub16(a, b) & geu16(a, b); }
  template <int kShift>
  static V srl16(V a) noexcept {
    constexpr std::uint64_t kKeep = (0xFFFFull >> kShift) * 0x0001000100010001ull;
    return (a >> kShift) & kKeep;
  }
  /// Number of non-zero u16 lanes: the low 15 bits plus 0x7FFF carry into
  /// the top bit exactly when any of them is set; a multiply sums the four
  /// top bits.
  static std::size_t count_nonzero16(V a) noexcept {
    constexpr std::uint64_t kLow = 0x7FFF7FFF7FFF7FFFull;
    const std::uint64_t top = (((a & kLow) + kLow) | a) & ~kLow;
    return static_cast<std::size_t>(((top >> 15) * 0x0001000100010001ull) >> 48);
  }
  /// Set bits of the word, by the classic in-register adder tree (no
  /// libgcc call on targets without a popcount instruction).
  static std::size_t popcount(V a) noexcept {
    a -= (a >> 1) & 0x5555555555555555ull;
    a = (a & 0x3333333333333333ull) + ((a >> 2) & 0x3333333333333333ull);
    a = (a + (a >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<std::size_t>((a * 0x0101010101010101ull) >> 56);
  }

  /// Threshold stage of way d (see kernel_engine.hpp): each lane's XORs
  /// bucketed into a value-class histogram, walked to the rank.  The
  /// compare-count form AVX2 uses would cost 16 geu16s per row here.  The
  /// four lanes of a word keep separate histograms, so their increments
  /// never wait on each other.
  static void way_vplus1(const std::uint16_t* soa, std::size_t twp,
                         std::size_t d, std::size_t rows, std::size_t rank,
                         std::uint16_t* vp_row) noexcept {
    for (std::size_t c0 = 0; c0 < twp; c0 += kLanes16) {
      std::uint32_t counts[kLanes16][kVvalBuckets<std::uint16_t>] = {};
      for (std::size_t i = 0; i < rows; ++i) {
        const V x = load(soa + i * twp + c0) ^ load(soa + (i + d) * twp + c0);
        for (std::size_t l = 0; l < kLanes16; ++l) {
          ++counts[l][vval_bucket(static_cast<std::uint16_t>(x >> (16 * l)))];
        }
      }
      for (std::size_t l = 0; l < kLanes16; ++l) {
        vp_row[c0 + l] = static_cast<std::uint16_t>(
            vval_from_hist<std::uint16_t>(counts[l], rank) + 1);
      }
    }
  }

  /// Per-u32-lane x >= y -> 0xFFFFFFFF, else 0.
  static V geu32(V x, V y) noexcept {
    constexpr std::uint64_t kGuard = 0x100000000ull;
    constexpr std::uint64_t kLow = 0xFFFFFFFFull;
    const std::uint64_t de = ((x & kLow) | kGuard) - (y & kLow);
    const std::uint64_t dd = ((x >> 32) | kGuard) - (y >> 32);
    return (((de >> 32) & 1u) * kLow) | ((((dd >> 32) & 1u) * kLow) << 32);
  }

  /// Per-u32-lane unsigned max.
  static V maxu32(V a, V b) noexcept {
    const V ge = geu32(a, b);
    return (a & ge) | (b & ~ge);
  }
  /// Per-lane binary32 min, max, ordered >= (all-ones lane) and
  /// difference, one lane at a time: binary32 has no in-word form.
  static V minf32(V a, V b) noexcept {
    return lanewise_f32(a, b, [](float x, float y) {
      return common::float_to_bits(y < x ? y : x);
    });
  }
  static V maxf32(V a, V b) noexcept {
    return lanewise_f32(a, b, [](float x, float y) {
      return common::float_to_bits(y > x ? y : x);
    });
  }
  static V gef32(V a, V b) noexcept {
    return lanewise_f32(
        a, b, [](float x, float y) { return x >= y ? 0xFFFFFFFFu : 0u; });
  }
  static V subf32(V a, V b) noexcept {
    return lanewise_f32(
        a, b, [](float x, float y) { return common::float_to_bits(x - y); });
  }
  /// Lane l of the result is f(lane l of a, lane l of b), read as floats.
  template <class F>
  static V lanewise_f32(V a, V b, F f) noexcept {
    float x[2];
    float y[2];
    std::memcpy(x, &a, sizeof(a));
    std::memcpy(y, &b, sizeof(b));
    const std::uint32_t r[2] = {f(x[0], y[0]), f(x[1], y[1])};
    std::memcpy(&a, r, sizeof(a));
    return a;
  }

  /// Clean-state mask from two raw state bytes (OtisPixelState::kClean == 0).
  static V clean_mask32(const std::uint8_t* p) noexcept {
    return (p[0] == 0 ? 0xFFFFFFFFull : 0) |
           (p[1] == 0 ? 0xFFFFFFFFull << 32 : 0);
  }
};

static_assert(kNgstPad % SwarOps::kLanes16 == 0,
              "NGST tiles pad to a whole number of lane groups");

}  // namespace

const VoterEntries kSwarEntries{
    ngst_tile_engine<SwarOps>, kNgstPad,
    otis_phase1_engine<SwarOps>, otis_phase23_engine<SwarOps>};

}  // namespace spacefts::core::detail
