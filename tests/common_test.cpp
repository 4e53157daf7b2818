// Unit tests for spacefts::common — PRNG, containers, bit ops, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "spacefts/common/bitops.hpp"
#include "spacefts/common/cpu.hpp"
#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/common/stats.hpp"

namespace sc = spacefts::common;

// ------------------------------------------------------------------------ Rng

TEST(Rng, SameSeedSameStream) {
  sc::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  sc::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  sc::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  sc::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, BelowStaysBelowBound) {
  sc::Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 1000 draws
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  sc::Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  sc::Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(100.0, 5.0);
  EXPECT_NEAR(sum / n, 100.0, 0.2);
}

TEST(Rng, BernoulliRate) {
  sc::Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  sc::Rng parent(23);
  sc::Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<sc::Rng>);
  SUCCEED();
}

TEST(Rng, DeriveStreamSeedGoldenValues) {
  // Frozen outputs: campaign trial seeds and serve workload/fault streams
  // are derived through this chain, so a change here silently invalidates
  // every committed artifact (workload files, campaign baselines).
  EXPECT_EQ(sc::derive_stream_seed(42, 3, 7), 16192931503407825096ULL);
  EXPECT_EQ(sc::derive_stream_seed(0, 0, 0), 3852735613347767281ULL);
}

TEST(Rng, DeriveStreamSeedSeparatesStreams) {
  const auto base = sc::derive_stream_seed(1, 2, 3);
  EXPECT_NE(base, sc::derive_stream_seed(2, 2, 3));
  EXPECT_NE(base, sc::derive_stream_seed(1, 3, 3));
  EXPECT_NE(base, sc::derive_stream_seed(1, 2, 4));
  // (a, b) must not collapse into (b, a).
  EXPECT_NE(sc::derive_stream_seed(1, 2, 3), sc::derive_stream_seed(1, 3, 2));
}

// ---------------------------------------------------------------------- Image

TEST(Image, ConstructAndIndex) {
  sc::Image<int> img(4, 3, 9);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_EQ(img(2, 1), 9);
  img(2, 1) = 5;
  EXPECT_EQ(img(2, 1), 5);
}

TEST(Image, AdoptBufferValidatesSize) {
  std::vector<int> buf(6, 1);
  EXPECT_NO_THROW((void)(sc::Image<int>(3, 2, buf)));
  EXPECT_THROW((void)(sc::Image<int>(3, 3, buf)), std::invalid_argument);
}

TEST(Image, AtThrowsOutOfRange) {
  sc::Image<int> img(2, 2);
  EXPECT_THROW((void)img.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW((void)img.at(1, 1));
}

TEST(Image, RowSpanIsContiguous) {
  sc::Image<int> img(3, 2);
  img(0, 1) = 10;
  img(2, 1) = 30;
  auto row = img.row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 10);
  EXPECT_EQ(row[2], 30);
}

TEST(Image, CropAndPasteRoundtrip) {
  sc::Image<int> img(6, 6);
  for (std::size_t y = 0; y < 6; ++y) {
    for (std::size_t x = 0; x < 6; ++x) {
      img(x, y) = static_cast<int>(10 * y + x);
    }
  }
  auto tile = img.crop(2, 3, 3, 2);
  EXPECT_EQ(tile.width(), 3u);
  EXPECT_EQ(tile(0, 0), 32);
  EXPECT_EQ(tile(2, 1), 44);

  sc::Image<int> blank(6, 6, -1);
  blank.paste(tile, 2, 3);
  EXPECT_EQ(blank(2, 3), 32);
  EXPECT_EQ(blank(4, 4), 44);
  EXPECT_EQ(blank(0, 0), -1);
}

TEST(Image, CropOutOfBoundsThrows) {
  sc::Image<int> img(4, 4);
  EXPECT_THROW((void)img.crop(2, 2, 3, 1), std::out_of_range);
  EXPECT_THROW((void)img.crop(0, 3, 1, 2), std::out_of_range);
}

TEST(Image, PasteOutOfBoundsThrows) {
  sc::Image<int> img(4, 4);
  sc::Image<int> tile(3, 3);
  EXPECT_THROW((void)img.paste(tile, 2, 2), std::out_of_range);
}

TEST(Image, EqualityIsValueBased) {
  sc::Image<int> a(2, 2, 1), b(2, 2, 1);
  EXPECT_EQ(a, b);
  b(1, 1) = 2;
  EXPECT_NE(a, b);
}

// ----------------------------------------------------------------------- Cube

TEST(Cube, PlaneAccess) {
  sc::Cube<int> cube(2, 2, 3);
  cube(1, 1, 2) = 42;
  auto plane = cube.plane(2);
  EXPECT_EQ(plane.size(), 4u);
  EXPECT_EQ(plane[3], 42);
}

TEST(Cube, PlaneImageRoundtrip) {
  sc::Cube<int> cube(3, 2, 2);
  cube(2, 1, 1) = 7;
  auto img = cube.plane_image(1);
  EXPECT_EQ(img(2, 1), 7);
  img(0, 0) = 99;
  cube.set_plane(1, img);
  EXPECT_EQ(cube(0, 0, 1), 99);
}

TEST(Cube, SetPlaneValidatesSize) {
  sc::Cube<int> cube(3, 3, 1);
  sc::Image<int> wrong(2, 2);
  EXPECT_THROW((void)cube.set_plane(0, wrong), std::invalid_argument);
}

TEST(Cube, AtThrows) {
  sc::Cube<int> cube(2, 2, 2);
  EXPECT_THROW((void)cube.at(0, 0, 2), std::out_of_range);
}

// -------------------------------------------------------------- TemporalStack

TEST(TemporalStack, SeriesRoundtrip) {
  sc::TemporalStack<std::uint16_t> stack(2, 2, 5);
  const std::vector<std::uint16_t> series{10, 20, 30, 40, 50};
  stack.set_series(1, 0, series);
  EXPECT_EQ(stack.series(1, 0), series);
  EXPECT_EQ(stack(1, 0, 3), 40);
}

TEST(TemporalStack, SetSeriesValidatesLength) {
  sc::TemporalStack<std::uint16_t> stack(1, 1, 3);
  const std::vector<std::uint16_t> wrong{1, 2};
  EXPECT_THROW((void)stack.set_series(0, 0, wrong), std::invalid_argument);
}

// --------------------------------------------------------------------- bitops

TEST(Bitops, CeilPow2Basics) {
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(0), 1u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(1), 1u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(2), 2u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(3), 4u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(1024), 1024u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(1025), 2048u);
}

TEST(Bitops, CeilPow2SaturatesAtHighBit) {
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(0x8000), 0x8000u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(0x8001), 0x8000u);
  EXPECT_EQ(sc::ceil_pow2<std::uint16_t>(0xFFFF), 0x8000u);
  EXPECT_EQ(sc::ceil_pow2<std::uint32_t>(0xFFFFFFFFu), 0x80000000u);
}

TEST(Bitops, MsbIndex) {
  EXPECT_EQ(sc::msb_index<std::uint16_t>(1), 0);
  EXPECT_EQ(sc::msb_index<std::uint16_t>(2), 1);
  EXPECT_EQ(sc::msb_index<std::uint16_t>(0x8000), 15);
}

TEST(Bitops, FloatBitsRoundtrip) {
  for (float v : {0.0f, 1.0f, -2.5f, 3.14159f, 1e-30f, 1e30f}) {
    EXPECT_EQ(sc::bits_to_float(sc::float_to_bits(v)), v);
  }
}

TEST(Bitops, AndAllExcept) {
  const std::uint16_t values[] = {0b1110, 0b1101, 0b1011};
  // Excluding index 0: 0b1101 & 0b1011 = 0b1001.
  EXPECT_EQ(sc::and_all_except<std::uint16_t>(values, 0), 0b1001);
  EXPECT_EQ(sc::and_all_except<std::uint16_t>(values, 1), 0b1010);
  EXPECT_EQ(sc::and_all_except<std::uint16_t>(values, 2), 0b1100);
}

TEST(Bitops, GrtIsAtLeastNMinusOneVote) {
  // Bit 3 set in all, bit 2 set in two of three, bit 0 set in one.
  const std::uint16_t values[] = {0b1101, 0b1100, 0b1000};
  // GRT = bits asserted by >= 2 voters: bit 3 and bit 2.
  EXPECT_EQ(sc::grt<std::uint16_t>(values), 0b1100);
}

TEST(Bitops, GrtEmptyAndSingle) {
  EXPECT_EQ(sc::grt<std::uint16_t>({}), 0u);
  // A single voter's leave-one-out AND is the empty AND, whose identity is
  // all-ones — "0 of 1 voters" asserts every bit vacuously.  Callers that
  // care (correction_vector) gate on a minimum voter count instead.
  const std::uint16_t one[] = {0b101};
  EXPECT_EQ(sc::grt<std::uint16_t>(one), 0xFFFF);
}

TEST(Bitops, HammingDistance) {
  const std::uint16_t a[] = {0x0F0F, 0xFFFF};
  const std::uint16_t b[] = {0x0F0F, 0x0000};
  EXPECT_EQ((sc::hamming_distance<std::uint16_t>(a, b)), 16u);
}

// ---------------------------------------------------------------------- stats

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(sc::mean(v), 5.0);
  EXPECT_DOUBLE_EQ(sc::stddev(v), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(sc::mean({}), 0.0);
  EXPECT_EQ(sc::stddev({}), 0.0);
  EXPECT_EQ(sc::median({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd{5, 1, 3};
  EXPECT_DOUBLE_EQ(sc::median(odd), 3.0);
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(sc::median(even), 2.5);
}

TEST(Stats, KthSmallest) {
  std::vector<float> v{9, 1, 8, 2, 7};
  EXPECT_EQ(sc::kth_smallest_nonnegative(v, 0), 1.0f);
  v = {9, 1, 8, 2, 7};
  EXPECT_EQ(sc::kth_smallest_nonnegative(v, 2), 7.0f);
  v = {9, 1, 8, 2, 7};
  EXPECT_EQ(sc::kth_smallest_nonnegative(v, 4), 9.0f);
  EXPECT_THROW((void)sc::kth_smallest_nonnegative(v, 5), std::out_of_range);
  // Every rank of a pool with duplicates, zeros, subnormals, +inf and
  // values that share their high bytes, against a full sort.
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> mag(0.0f, 0.1f);
  std::vector<float> pool(300);
  for (float& x : pool) x = mag(rng);
  for (std::size_t i = 0; i < 40; ++i) pool[i] = pool[i + 40];
  pool[100] = 0.0f;
  pool[101] = 0.0f;
  pool[102] = std::numeric_limits<float>::denorm_min();
  pool[103] = std::numeric_limits<float>::infinity();
  pool[104] = 1.0e30f;
  std::vector<float> sorted = pool;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < pool.size(); ++k) {
    std::vector<float> work = pool;
    ASSERT_EQ(sc::kth_smallest_nonnegative(work, k), sorted[k]) << "k=" << k;
  }
}

TEST(Stats, Percentile) {
  const std::vector<double> v{0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(sc::percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(sc::percentile(v, 50), 20.0);
  EXPECT_DOUBLE_EQ(sc::percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(sc::percentile(v, 25), 10.0);
  EXPECT_THROW((void)sc::percentile(v, 101), std::invalid_argument);
  EXPECT_THROW((void)sc::percentile({}, 50), std::invalid_argument);
}

TEST(Cpu, PickTakesTheFirstRowTheHostRuns) {
  namespace cpu = sc::cpu;
  EXPECT_EQ(cpu::names(0), "");
  EXPECT_EQ(cpu::names(cpu::kAvx2 | cpu::kPclmul), "avx2+pclmul");
  EXPECT_EQ(cpu::host(), cpu::host());
  // A row needing a feature outside the host's set is skipped, one needing
  // a subset of it is taken, and the portable row catches everything else.
  const cpu::Features missing = ~cpu::host();
  const cpu::Row<int> rows[] = {
      {"missing", missing, 1}, {"present", cpu::host(), 2}, {"portable", 0, 3}};
  EXPECT_FALSE(cpu::runs(rows[0]));
  EXPECT_TRUE(cpu::runs(rows[1]));
  EXPECT_EQ(cpu::pick(std::span<const cpu::Row<int>>(rows)).impl, 2);
  EXPECT_EQ(cpu::pick(std::span<const cpu::Row<int>>(rows).subspan(2)).impl,
            3);
}
