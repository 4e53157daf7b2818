// Kernel parity: every compute kernel (portable SWAR, AVX2 and AVX-512
// where the host supports them) must produce data and reports
// byte-identical to the naive serial oracles (check::oracle_ngst_stack,
// check::oracle_otis_plane), for every thread count, over adversarial
// shapes — odd tile remainders, every Υ the check harness fuzzes, masked
// window-C edges, and the ablation switch combinations.  This is the
// contract the runtime dispatch seam (core/kernel.hpp) rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "kernel_detail.hpp"
#include "spacefts/check/oracle.hpp"
#include "spacefts/common/bitops.hpp"
#include "spacefts/common/image.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace {

using spacefts::common::Image;
using spacefts::common::TemporalStack;
using spacefts::core::AlgoNgst;
using spacefts::core::AlgoNgstConfig;
using spacefts::core::AlgoNgstReport;
using spacefts::core::AlgoOtis;
using spacefts::core::AlgoOtisConfig;
using spacefts::core::AlgoOtisReport;
using spacefts::core::Kernel;

/// A stack of mostly smooth per-coordinate series with injected single-bit
/// upsets, one word in \p upset_one_in on average — by default enough
/// corrections to exercise vote, gate, and apply.
TemporalStack<std::uint16_t> make_stack(std::size_t w, std::size_t h,
                                        std::size_t frames, std::uint32_t seed,
                                        int upset_one_in = 200) {
  TemporalStack<std::uint16_t> stack(w, h, frames);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> base(500, 40000);
  std::uniform_int_distribution<int> jitter(-12, 12);
  std::uniform_int_distribution<int> bit(8, 15);
  std::uniform_int_distribution<int> upset(0, upset_one_in - 1);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const int level = base(rng);
      for (std::size_t t = 0; t < frames; ++t) {
        int v = level + jitter(rng);
        if (v < 0) v = 0;
        auto word = static_cast<std::uint16_t>(v);
        if (upset(rng) == 0) {
          word = static_cast<std::uint16_t>(word ^ (1u << bit(rng)));
        }
        stack(x, y, t) = word;
      }
    }
  }
  return stack;
}

void expect_ngst_reports_equal(const AlgoNgstReport& a, const AlgoNgstReport& b,
                               const char* label) {
  EXPECT_EQ(a.lsb_mask, b.lsb_mask) << label;
  EXPECT_EQ(a.msb_mask, b.msb_mask) << label;
  EXPECT_EQ(a.pixels_examined, b.pixels_examined) << label;
  EXPECT_EQ(a.pixels_corrected, b.pixels_corrected) << label;
  EXPECT_EQ(a.bits_corrected, b.bits_corrected) << label;
  EXPECT_EQ(a.pixels_vetoed, b.pixels_vetoed) << label;
}

/// Runs the same stack through every available kernel at several thread
/// counts and byte-compares everything against the oracle's output.  The
/// oracle's report goes to \p oracle when given.
void check_ngst_parity(const AlgoNgstConfig& base, std::size_t w,
                       std::size_t h, std::size_t frames, std::uint32_t seed,
                       int upset_one_in = 200,
                       AlgoNgstReport* oracle = nullptr) {
  const TemporalStack<std::uint16_t> pristine =
      make_stack(w, h, frames, seed, upset_one_in);

  TemporalStack<std::uint16_t> golden = pristine;
  const AlgoNgstReport golden_report =
      spacefts::check::oracle_ngst_stack(golden, base);
  if (oracle != nullptr) *oracle = golden_report;

  for (const Kernel kernel : spacefts::core::available_kernels()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      AlgoNgstConfig cfg = base;
      cfg.kernel = kernel;
      cfg.threads = threads;
      TemporalStack<std::uint16_t> stack = pristine;
      const AlgoNgstReport report = AlgoNgst(cfg).preprocess(stack);
      const std::string label = std::string("kernel=") +
                                spacefts::core::kernel_name(kernel) +
                                " threads=" + std::to_string(threads);
      expect_ngst_reports_equal(golden_report, report, label.c_str());
      ASSERT_EQ(golden.cube().voxels().size(), stack.cube().voxels().size());
      for (std::size_t i = 0; i < golden.cube().voxels().size(); ++i) {
        ASSERT_EQ(golden.cube().voxels()[i], stack.cube().voxels()[i])
            << label << " voxel " << i;
      }
    }
  }
}

TEST(KernelDispatch, NamesRoundTrip) {
  for (const Kernel k :
       {Kernel::kAuto, Kernel::kSwar, Kernel::kAvx2, Kernel::kAvx512}) {
    Kernel parsed = Kernel::kAuto;
    ASSERT_TRUE(
        spacefts::core::parse_kernel(spacefts::core::kernel_name(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  Kernel parsed = Kernel::kAuto;
  EXPECT_FALSE(spacefts::core::parse_kernel("sse9", parsed));
}

TEST(KernelDispatch, ResolveNeverReturnsAutoOrUnavailable) {
  for (const Kernel k :
       {Kernel::kAuto, Kernel::kSwar, Kernel::kAvx2, Kernel::kAvx512}) {
    const Kernel resolved = spacefts::core::resolve_kernel(k);
    EXPECT_NE(resolved, Kernel::kAuto);
    EXPECT_TRUE(spacefts::core::kernel_available(resolved));
  }
}

TEST(KernelDispatch, AvailableKernelsAlwaysIncludePortableOnes) {
  const auto kernels = spacefts::core::available_kernels();
  ASSERT_GE(kernels.size(), 1u);
  EXPECT_EQ(kernels[0], Kernel::kSwar);
}

TEST(KernelDispatch, AutoPicksAvx512WhenTheHostHasIt) {
  if (!spacefts::core::kernel_available(Kernel::kAvx512)) {
    GTEST_SKIP() << "AVX-512 kernel not compiled in (SPACEFTS_SIMD=OFF or "
                    "not x86-64) or the CPU lacks AVX-512F/BW";
  }
  const auto kernels = spacefts::core::available_kernels();
  EXPECT_EQ(kernels.back(), Kernel::kAvx512);
  EXPECT_EQ(spacefts::core::resolve_kernel(Kernel::kAuto), Kernel::kAvx512);
}

TEST(KernelDispatch, CountersNameTheKernelThatRan) {
  namespace st = spacefts::telemetry;
  if (!st::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  st::reset();
  st::set_enabled(true);
  TemporalStack<std::uint16_t> stack = make_stack(20, 3, 8, 5);
  Image<float> plane(20, 9, 5.0f);
  for (const Kernel kernel :
       {Kernel::kAuto, Kernel::kSwar, Kernel::kAvx2, Kernel::kAvx512}) {
    const Kernel ran = spacefts::core::resolve_kernel(kernel);
    const std::string name = spacefts::core::kernel_name(ran);
    auto& ngst = st::counter(("ngst.kernel." + name).c_str());
    auto& otis = st::counter(("otis.kernel." + name).c_str());
    const std::uint64_t ngst_before = ngst.value();
    const std::uint64_t otis_before = otis.value();
    AlgoNgstConfig ngst_cfg;
    ngst_cfg.kernel = kernel;
    (void)AlgoNgst(ngst_cfg).preprocess(stack);
    AlgoOtisConfig otis_cfg;
    otis_cfg.kernel = kernel;
    (void)AlgoOtis(otis_cfg).preprocess_plane(plane, 10.0);
    EXPECT_EQ(ngst.value(), ngst_before + 1) << name;
    EXPECT_EQ(otis.value(), otis_before + 1) << name;
  }
  st::set_enabled(false);
  st::reset();
}

TEST(KernelParity, NgstDefaultConfig) {
  AlgoNgstConfig cfg;
  cfg.lambda = 80.0;
  check_ngst_parity(cfg, 96, 24, 8, 1);
  // Width 20: one tile narrower than a 32-lane group.  Width 84: a full
  // 64-wide tile and a 20-wide tail.
  check_ngst_parity(cfg, 20, 9, 8, 2);
  check_ngst_parity(cfg, 84, 9, 8, 3);
}

TEST(KernelParity, NgstOddTileRemainderAndUpsilonSweep) {
  // width 67 leaves a 3-series tail tile: 13 lanes of zero padding in the
  // vector kernels.  Υ sweeps past the frame count so way clamping engages.
  for (const std::size_t upsilon : {std::size_t{4}, std::size_t{8},
                                    std::size_t{12}}) {
    AlgoNgstConfig cfg;
    cfg.upsilon = upsilon;
    cfg.lambda = 85.0;
    check_ngst_parity(cfg, 67, 11, 8, 40 + static_cast<std::uint32_t>(upsilon));
  }
}

TEST(KernelParity, NgstLongSeries) {
  AlgoNgstConfig cfg;
  cfg.upsilon = 8;
  cfg.lambda = 75.0;
  check_ngst_parity(cfg, 33, 7, 64, 7);
}

TEST(KernelParity, NgstAblations) {
  // Windows off forces unanimity with nothing masked; pruning off keeps raw
  // XORs as voters; gate off applies every voted correction.  Each switch
  // changes which stages matter, so each must hold parity on its own.
  for (int mask = 0; mask < 8; ++mask) {
    AlgoNgstConfig cfg;
    cfg.lambda = 90.0;
    cfg.enable_windows = (mask & 1) != 0;
    cfg.enable_pruning = (mask & 2) != 0;
    cfg.enable_plausibility_gate = (mask & 4) != 0;
    check_ngst_parity(cfg, 40, 6, 8, 100 + static_cast<std::uint32_t>(mask));
  }
}

TEST(KernelParity, NgstTinyAndDegenerateShapes) {
  AlgoNgstConfig cfg;
  // Fewer than 3 frames: header-sanity-only early-out on every kernel.
  check_ngst_parity(cfg, 21, 5, 2, 11);
  // Single-column stack: tile width 1 (15 pad lanes).
  check_ngst_parity(cfg, 1, 9, 8, 12);
  // Lambda 0: kernels must not touch the data at all.
  AlgoNgstConfig off;
  off.lambda = 0.0;
  check_ngst_parity(off, 30, 4, 8, 13);
}

TEST(KernelParity, NgstWriteThroughEdges) {
  // The kernels write corrections straight into the stack.  At the ledger
  // config (Λ=80, Υ=4, 64 readouts): four full 64-wide tiles per row;
  // single tiles of 32 and 48 columns, a whole number of lane groups but
  // narrower than a full tile; and width 100, whose 36-wide tail ends in a
  // lane group that runs past the real columns.  Each case must correct
  // and veto, so none passes without the write-through doing work.
  struct Case {
    std::size_t w;
    std::size_t h;
  };
  AlgoNgstConfig cfg;
  cfg.lambda = 80.0;
  cfg.upsilon = 4;
  std::uint32_t seed = 400;
  for (const Case c : {Case{256, 4}, Case{32, 8}, Case{48, 6}, Case{100, 4}}) {
    AlgoNgstReport want;
    check_ngst_parity(cfg, c.w, c.h, 64, seed++, /*upset_one_in=*/50, &want);
    EXPECT_GT(want.pixels_corrected, 0u) << "width=" << c.w;
    EXPECT_GT(want.pixels_vetoed, 0u) << "width=" << c.w;
  }
}

TEST(KernelParity, NgstSkippedSweepLeavesStackAndReport) {
  // Λ = 0 and fewer than three readouts skip the stack sweep.  On every
  // kernel, at 1 and 3 threads, the stack keeps its bytes and the report is
  // the oracle's (every voxel examined, nothing else), and the telemetry
  // counters see the same four calls as after a sweep.
  namespace st = spacefts::telemetry;
  struct Case {
    double lambda;
    std::size_t frames;
  };
  for (const Case c : {Case{0.0, 8}, Case{80.0, 2}}) {
    const TemporalStack<std::uint16_t> pristine =
        make_stack(70, 5, c.frames, 21, /*upset_one_in=*/10);
    AlgoNgstConfig cfg;
    cfg.lambda = c.lambda;
    TemporalStack<std::uint16_t> golden = pristine;
    const AlgoNgstReport want =
        spacefts::check::oracle_ngst_stack(golden, cfg);
    ASSERT_EQ(want.pixels_examined, 70 * 5 * c.frames);
    ASSERT_EQ(want.pixels_corrected + want.pixels_vetoed, 0u);
    ASSERT_TRUE(std::ranges::equal(golden.cube().voxels(),
                                   pristine.cube().voxels()));
    for (const Kernel kernel : spacefts::core::available_kernels()) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        st::reset();
        st::set_enabled(true);
        cfg.kernel = kernel;
        cfg.threads = threads;
        TemporalStack<std::uint16_t> stack = pristine;
        const AlgoNgstReport report = AlgoNgst(cfg).preprocess(stack);
        const std::string label = std::string("kernel=") +
                                  spacefts::core::kernel_name(kernel) +
                                  " threads=" + std::to_string(threads) +
                                  " frames=" + std::to_string(c.frames);
        expect_ngst_reports_equal(want, report, label.c_str());
        EXPECT_TRUE(std::ranges::equal(stack.cube().voxels(),
                                       pristine.cube().voxels()))
            << label;
        if (st::kCompiledIn) {
          const std::string name = spacefts::core::kernel_name(kernel);
          EXPECT_EQ(st::counter(("ngst.kernel." + name).c_str()).value(), 1u)
              << label;
          for (const char* counter : {"ngst.pixels_corrected",
                                      "ngst.bits_corrected",
                                      "voter.gate_vetoed"}) {
            EXPECT_EQ(st::counter(counter).value(), 0u) << label << counter;
          }
        }
        st::set_enabled(false);
        st::reset();
      }
    }
  }
}

TEST(KernelParity, NgstDenseGateAtSeriesEdges) {
  // Γ₀ = 0.05: one word in twenty is upset, so most lane groups carry a
  // correction and the gate vetoes many.  16 readouts keep the rows
  // i < Υ/2 and i >= n − Υ/2, where a series edge drops partners (odd
  // counts among them), a large share of the stack.  Υ = 2 and 12 sort
  // every row's partners through the spill path, Υ = 4 and 8 only the
  // edge rows'.
  constexpr std::size_t kFrames = 16;
  for (const std::size_t upsilon : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}, std::size_t{12}}) {
    for (const bool gate : {false, true}) {
      AlgoNgstConfig cfg;
      cfg.upsilon = upsilon;
      cfg.lambda = 80.0;
      cfg.enable_plausibility_gate = gate;
      const auto seed = 200 + static_cast<std::uint32_t>(upsilon);
      check_ngst_parity(cfg, 37, 6, kFrames, seed, /*upset_one_in=*/20);

      // The edge rows are exercised: the oracle corrects voxels there (at
      // Υ = 2 an edge row has a single voter and never corrects), and with
      // the gate on it also vetoes.
      const TemporalStack<std::uint16_t> pristine =
          make_stack(37, 6, kFrames, seed, 20);
      TemporalStack<std::uint16_t> golden = pristine;
      const AlgoNgstReport report =
          spacefts::check::oracle_ngst_stack(golden, cfg);
      std::size_t edge_changes = 0;
      for (std::size_t t = 0; t < kFrames; ++t) {
        if (t >= upsilon / 2 && t < kFrames - upsilon / 2) continue;
        for (std::size_t y = 0; y < 6; ++y) {
          for (std::size_t x = 0; x < 37; ++x) {
            edge_changes += golden(x, y, t) != pristine(x, y, t) ? 1u : 0u;
          }
        }
      }
      if (upsilon > 2) {
        EXPECT_GT(edge_changes, 0u) << "upsilon=" << upsilon;
      }
      if (gate) {
        EXPECT_GT(report.pixels_vetoed, 0u) << "upsilon=" << upsilon;
      }
    }
  }
}

TEST(KernelParity, NgstThresholdCountsPastU16) {
  // One 16-wide tile of 65,600 readouts: every way has more than 65,535
  // XORs, past what a u16 count holds.  AVX2's per-row class counters (u8,
  // widened into u32 every 255 rows) must stay exact across all of them.
  AlgoNgstConfig cfg;
  check_ngst_parity(cfg, 16, 1, 65600, 300);
}

/// A plane with a smooth gradient, a hot plateau (trend protection), some
/// bit-flip faults, and an out-of-bounds spike.  With \p nudge_one_in > 0,
/// one pixel in that many also moves by ±[0.15, 0.6], one to five times
/// the conformance threshold τ at the default Λ, so fault candidates land
/// on both sides of the 2τ bound that sends them to the median fallback.
Image<float> make_plane(std::size_t w, std::size_t h, std::uint32_t seed,
                        int nudge_one_in = 0) {
  Image<float> plane(w, h, 0.0f);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> noise(-0.05f, 0.05f);
  std::uniform_int_distribution<int> upset(0, 149);
  std::uniform_int_distribution<int> bit(20, 30);
  std::uniform_int_distribution<int> nudge(0, std::max(nudge_one_in, 1) - 1);
  std::uniform_real_distribution<float> nudge_size(0.15f, 0.6f);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      float v = 5.0f + 0.01f * static_cast<float>(x) +
                0.02f * static_cast<float>(y) + noise(rng);
      if (x > w / 2 && x < w / 2 + 4 && y > h / 2 && y < h / 2 + 4) {
        v += 3.0f;  // plateau anomaly: trend test should protect its rim
      }
      if (nudge_one_in > 0 && nudge(rng) == 0) {
        const float d = nudge_size(rng);
        v += (rng() & 1u) != 0 ? d : -d;
      }
      if (upset(rng) == 0) {
        const std::uint32_t bits = spacefts::common::float_to_bits(v);
        v = spacefts::common::bits_to_float(
            bits ^ (1u << static_cast<unsigned>(bit(rng))));
      }
      plane(x, y) = v;
    }
  }
  plane(2, 2) = 1.0e30f;  // hypothesis-(2) out-of-bounds fault
  return plane;
}

void expect_otis_reports_equal(const AlgoOtisReport& a, const AlgoOtisReport& b,
                               const char* label) {
  EXPECT_EQ(a.pixels_examined, b.pixels_examined) << label;
  EXPECT_EQ(a.out_of_bounds, b.out_of_bounds) << label;
  EXPECT_EQ(a.outliers, b.outliers) << label;
  EXPECT_EQ(a.trend_protected, b.trend_protected) << label;
  EXPECT_EQ(a.bit_corrected, b.bit_corrected) << label;
  EXPECT_EQ(a.median_replaced, b.median_replaced) << label;
}

/// Runs \p pristine through every available kernel at several thread
/// counts and bit-compares everything against the oracle's output.
void check_otis_parity(const AlgoOtisConfig& base, const Image<float>& pristine) {
  constexpr double kWavelengthUm = 10.0;

  Image<float> golden = pristine;
  const AlgoOtisReport golden_report =
      spacefts::check::oracle_otis_plane(golden, kWavelengthUm, base);

  for (const Kernel kernel : spacefts::core::available_kernels()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      AlgoOtisConfig cfg = base;
      cfg.kernel = kernel;
      cfg.threads = threads;
      Image<float> plane = pristine;
      const AlgoOtisReport report =
          AlgoOtis(cfg).preprocess_plane(plane, kWavelengthUm);
      const std::string label = std::string("kernel=") +
                                spacefts::core::kernel_name(kernel) +
                                " threads=" + std::to_string(threads);
      expect_otis_reports_equal(golden_report, report, label.c_str());
      for (std::size_t i = 0; i < golden.pixels().size(); ++i) {
        // Bit-level compare: NaN payloads and signed zeros must match too.
        ASSERT_EQ(spacefts::common::float_to_bits(golden.pixels()[i]),
                  spacefts::common::float_to_bits(plane.pixels()[i]))
            << label << " pixel " << i;
      }
    }
  }
}

void check_otis_parity(const AlgoOtisConfig& base, std::size_t w,
                       std::size_t h, std::uint32_t seed,
                       int nudge_one_in = 0) {
  check_otis_parity(base, make_plane(w, h, seed, nudge_one_in));
}

TEST(KernelParity, OtisDefaultConfig) {
  AlgoOtisConfig cfg;
  check_otis_parity(cfg, 61, 23, 2);
  // Υ = 4 reaches one column: the vector middle of width 23 is 21 columns,
  // one 16-lane group plus a remainder.
  check_otis_parity(cfg, 23, 11, 3);
}

TEST(KernelParity, OtisUpsilonSweepAndOddWidths) {
  for (const std::size_t upsilon : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    AlgoOtisConfig cfg;
    cfg.upsilon = upsilon;
    cfg.lambda = 70.0;
    check_otis_parity(cfg, 37, 19, 60 + static_cast<std::uint32_t>(upsilon));
  }
}

TEST(KernelParity, OtisModerateOutliersAtTheFallbackBound) {
  // The other planes' bit flips move a pixel far past 2τ, the bound that
  // sends an unrepaired candidate to the median fallback; nudges of one to
  // five τ put candidates on both sides of it.
  for (const double lambda : {50.0, 80.0}) {
    AlgoOtisConfig cfg;
    cfg.lambda = lambda;
    check_otis_parity(cfg, 41, 29, 70 + static_cast<std::uint32_t>(lambda),
                      /*nudge_one_in=*/12);
  }
}

TEST(KernelParity, OtisLowestWayThresholdTwo) {
  // Pixels of 5.0f that differ only in their two lowest bits: every clean
  // pair's XOR is 0-3, evenly, so at Λ = 50 (the 65% rank) each way's
  // V_val is 2, the one threshold whose window mask drops bit 0 alone.
  // Voters that all XOR to 3 then propose bit 1 but must not flip bit 0.
  constexpr std::size_t kW = 40;
  constexpr std::size_t kH = 24;
  Image<float> plane(kW, kH, 0.0f);
  std::mt19937 rng(91);
  const std::uint32_t base = spacefts::common::float_to_bits(5.0f);
  for (auto& px : plane.pixels()) {
    px = spacefts::common::bits_to_float(base | (rng() & 3u));
  }
  AlgoOtisConfig cfg;
  cfg.lambda = 50.0;
  // The fixture holds: the ranked XOR of the horizontal way is 2.
  std::vector<std::uint32_t> xors;
  for (std::size_t y = 0; y < kH; ++y) {
    for (std::size_t x = 0; x + 1 < kW; ++x) {
      xors.push_back(spacefts::common::float_to_bits(plane(x, y)) ^
                     spacefts::common::float_to_bits(plane(x + 1, y)));
    }
  }
  std::sort(xors.begin(), xors.end());
  ASSERT_EQ(xors[spacefts::core::prune_rank(xors.size(), cfg.lambda)], 2u);
  check_otis_parity(cfg, plane);
}

TEST(KernelParity, OtisAblationsAndTinyPlane) {
  AlgoOtisConfig no_bounds;
  no_bounds.enable_bounds = false;
  check_otis_parity(no_bounds, 29, 17, 5);
  AlgoOtisConfig no_trend;
  no_trend.enable_trend_test = false;
  check_otis_parity(no_trend, 29, 17, 6);
  // Narrower than the widest way's reach: the vector middle degenerates and
  // every column goes through the scalar edge path.
  AlgoOtisConfig wide;
  wide.upsilon = 8;
  check_otis_parity(wide, 5, 9, 8);
}

/// Phase 1 runs a lane-parallel 3x3 median on interior pixels and leaves
/// the lanes it cannot decide to the reference: a non-finite neighbour
/// (the reference drops it, so fewer than eight values vote) or a median
/// that compares equal to zero (a min/max network may return the other
/// signed zero).  These planes put such lanes everywhere.
void sprinkle_non_finite(Image<float>& plane, std::uint32_t seed,
                         int one_in) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, one_in - 1);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (auto& px : plane.pixels()) {
    if (pick(rng) == 0) px = specials[rng() % 3];
  }
}

TEST(KernelParity, OtisNonFiniteNeighbours) {
  for (const std::uint32_t seed : {11u, 12u, 13u}) {
    Image<float> plane = make_plane(45, 21, seed);
    sprinkle_non_finite(plane, seed, 9);
    AlgoOtisConfig cfg;
    check_otis_parity(cfg, plane);
    cfg.enable_bounds = false;
    check_otis_parity(cfg, plane);
  }
}

TEST(KernelParity, OtisSignedZeroMedians) {
  // Most pixels are +0.0 or -0.0 in random order, so most 3x3 medians
  // compare equal to zero; the rest sit near 5.0, in bounds.  Zeros are
  // out of bounds by default, so the median fallback writes the medians
  // themselves into the plane, where the bit compare sees their sign.
  for (const std::uint32_t seed : {21u, 22u}) {
    Image<float> plane(43, 17, 0.0f);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> level(4.5f, 5.5f);
    for (auto& px : plane.pixels()) {
      const std::uint32_t draw = rng() % 10;
      px = draw < 4 ? 0.0f : draw < 8 ? -0.0f : level(rng);
    }
    AlgoOtisConfig cfg;
    check_otis_parity(cfg, plane);
    cfg.enable_bounds = false;
    check_otis_parity(cfg, plane);
  }
}

TEST(KernelParity, OtisShortAndRaggedInteriors) {
  // Interiors (w - 2 columns) narrower than one lane group of every tier,
  // exactly one, and ragged past it; rows 3, 4 and 11 high.
  std::uint32_t seed = 100;
  for (const std::size_t w : {3, 4, 17, 18, 19, 23, 24, 33, 41}) {
    for (const std::size_t h : {3, 4, 11}) {
      Image<float> plane = make_plane(w, h, ++seed);
      check_otis_parity(AlgoOtisConfig{}, plane);
      sprinkle_non_finite(plane, seed, 7);
      check_otis_parity(AlgoOtisConfig{}, plane);
    }
  }
}

TEST(KernelDispatch, EveryVoterRowMatchesThePortableRow) {
  // Every row of the voter table the host can run, forced through the
  // config seam, against the last row (swar): NGST stacks over the tile
  // remainders, and OTIS planes with nudged and non-finite pixels.  Each
  // row's name and counters are the ones its kernel reports.
  namespace cpu = spacefts::common::cpu;
  const auto rows = spacefts::core::detail::voter_rows();
  ASSERT_EQ(rows.back().needs, 0u);
  ASSERT_EQ(rows.back().impl.kernel, Kernel::kSwar);
  const auto run_ngst = [](Kernel kernel, std::size_t w, std::uint32_t seed) {
    TemporalStack<std::uint16_t> stack = make_stack(w, 5, 12, seed);
    AlgoNgstConfig cfg;
    cfg.kernel = kernel;
    const AlgoNgstReport report = AlgoNgst(cfg).preprocess(stack);
    const auto voxels = stack.cube().voxels();
    return std::pair(std::vector(voxels.begin(), voxels.end()),
                     report.bits_corrected);
  };
  const auto run_otis = [](Kernel kernel, std::size_t w, std::uint32_t seed) {
    Image<float> plane = make_plane(w, 11, seed, 5);
    sprinkle_non_finite(plane, seed, 7);
    AlgoOtisConfig cfg;
    cfg.kernel = kernel;
    const AlgoOtisReport report = AlgoOtis(cfg).preprocess_plane(plane, 10.0);
    std::vector<std::uint32_t> bits;
    for (const float px : plane.pixels()) {
      bits.push_back(spacefts::common::float_to_bits(px));
    }
    return std::pair(bits, report.bit_corrected + report.median_replaced);
  };
  const Kernel portable = rows.back().impl.kernel;
  for (const auto& row : rows) {
    const Kernel kernel = row.impl.kernel;
    EXPECT_STREQ(spacefts::core::kernel_name(kernel), row.name);
    EXPECT_EQ(std::string(row.impl.ngst_counter),
              std::string("ngst.kernel.") + row.name);
    EXPECT_EQ(std::string(row.impl.otis_counter),
              std::string("otis.kernel.") + row.name);
    EXPECT_EQ(spacefts::core::kernel_available(kernel), cpu::runs(row));
    if (!cpu::runs(row)) continue;
    EXPECT_EQ(spacefts::core::resolve_kernel(kernel), kernel);
    std::uint32_t seed = 300;
    for (const std::size_t w : {1, 15, 33, 64, 97}) {
      ++seed;
      EXPECT_EQ(run_ngst(kernel, w, seed), run_ngst(portable, w, seed))
          << row.name << " ngst width " << w;
    }
    for (const std::size_t w : {3, 18, 41}) {
      ++seed;
      EXPECT_EQ(run_otis(kernel, w, seed), run_otis(portable, w, seed))
          << row.name << " otis width " << w;
    }
  }
}

}  // namespace
