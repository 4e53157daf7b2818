// Unit tests for spacefts::smoothing — the §4 baselines in both temporal
// and spatial form.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/smoothing/regression.hpp"
#include "spacefts/smoothing/spatial.hpp"
#include "spacefts/smoothing/temporal.hpp"

namespace ss = spacefts::smoothing;
using spacefts::common::Cube;
using spacefts::common::Image;

// ------------------------------------------------------------------ median 3

TEST(Median3, RemovesSingleSpike) {
  std::vector<std::uint16_t> data{100, 100, 9000, 100, 100};
  ss::median_smooth3(data);
  for (auto v : data) EXPECT_EQ(v, 100u);
}

TEST(Median3, ShortInputsUntouched) {
  std::vector<std::uint16_t> two{5, 9};
  ss::median_smooth3(two);
  EXPECT_EQ(two, (std::vector<std::uint16_t>{5, 9}));
}

TEST(Median3, EndHandlingPerAlgorithm2) {
  // P(1) <- Median{P(1),P(2),P(3)}; P(N) <- Median{P(N-2),P(N-1),P(N)}.
  std::vector<std::uint16_t> data{9000, 100, 200, 300, 9000};
  ss::median_smooth3(data);
  EXPECT_EQ(data.front(), 200u);  // median{9000,100,200}
  EXPECT_EQ(data.back(), 300u);   // median{200,300,9000}
}

TEST(Median3, MonotoneInteriorIsInvariant) {
  // Interior pixels of monotone data are their own window medians; the end
  // pixels take the median of the inward-anchored window (Algorithm 2).
  std::vector<std::uint16_t> data{10, 20, 30, 40, 50};
  ss::median_smooth3(data);
  EXPECT_EQ(data, (std::vector<std::uint16_t>{20, 20, 30, 40, 40}));
}

TEST(Median3, RecursiveReadingDiffers) {
  // The recursive form feeds already-smoothed values into later windows:
  // here the non-recursive median of index 2 is med{0,9,0} = 0, while the
  // recursive one sees the smoothed 5 at index 1 and yields med{5,9,0} = 5.
  std::vector<std::uint16_t> plain{5, 0, 9, 0, 9, 9};
  std::vector<std::uint16_t> recursive = plain;
  ss::median_smooth3(plain, /*recursive=*/false);
  ss::median_smooth3(recursive, /*recursive=*/true);
  EXPECT_NE(plain, recursive);
}

TEST(MedianGeneral, Width5RemovesDoubleSpike) {
  std::vector<std::uint16_t> data{100, 100, 9000, 9000, 100, 100, 100};
  ss::median_smooth(data, 5);
  for (auto v : data) EXPECT_EQ(v, 100u);
}

TEST(MedianGeneral, EvenWidthThrows) {
  std::vector<std::uint16_t> data{1, 2, 3};
  EXPECT_THROW((void)ss::median_smooth(data, 4), std::invalid_argument);
  EXPECT_THROW((void)ss::median_smooth(data, 0), std::invalid_argument);
}

TEST(MedianGeneral, Width3MatchesMedian3) {
  std::vector<std::uint16_t> a{5, 900, 7, 8, 1000, 10, 11};
  auto b = a;
  ss::median_smooth3(a);
  ss::median_smooth(b, 3);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------- mean

TEST(Mean, AveragesWindow) {
  std::vector<std::uint16_t> data{0, 300, 0};
  ss::mean_smooth(data, 3);
  EXPECT_EQ(data[1], 100u);
}

TEST(Mean, SpikeBleedsIntoNeighbours) {
  // The known weakness vs the median (§4.1): the outlier contaminates.
  std::vector<std::uint16_t> data{100, 100, 9000, 100, 100};
  ss::mean_smooth(data, 3);
  EXPECT_GT(data[1], 1000u);
  EXPECT_GT(data[3], 1000u);
}

// ------------------------------------------------------------- majority vote

TEST(BitVote3, RemovesSingleBitflip) {
  // Identical values with one flipped high bit in the middle: the two
  // temporal neighbours out-vote the damaged bit.
  std::vector<std::uint16_t> data{27000, 27000, 27000 ^ 0x4000, 27000, 27000};
  ss::majority_bit_vote3(data);
  for (auto v : data) EXPECT_EQ(v, 27000u);
}

TEST(BitVote3, KeepsInformationInUncorruptedBits) {
  // The motivating §4.2 example: only the flipped bit changes, other bits
  // of the damaged pixel survive (unlike a median replacement).
  std::vector<std::uint16_t> data{0b1010101010101010, 0b1010101010101011,
                                  static_cast<std::uint16_t>(0b1010101010101011 ^ 0x2000),
                                  0b1010101010101011, 0b1010101010101010};
  ss::majority_bit_vote3(data);
  EXPECT_EQ(data[2], 0b1010101010101011);
}

TEST(BitVote3, EdgeVirtualNeighboursPerAlgorithm3) {
  // P(0) = P(3) and P(N+1) = P(N-2): the edge pixels consult the three
  // nearest *distinct* pixels.  With P(1) damaged and P(2) = P(3) clean,
  // the edge vote must repair P(1).
  std::vector<std::uint16_t> data{static_cast<std::uint16_t>(500 ^ 0x0800), 500,
                                  500, 500};
  ss::majority_bit_vote3(data);
  EXPECT_EQ(data[0], 500u);
}

TEST(BitVote3, ShortInputsUntouched) {
  std::vector<std::uint16_t> two{1, 2};
  ss::majority_bit_vote3(two);
  EXPECT_EQ(two, (std::vector<std::uint16_t>{1, 2}));
}

TEST(BitVoteGeneral, Width5NeedsThreeOfFive) {
  // Two corrupted of five voters cannot carry the vote.
  std::vector<std::uint16_t> data{100, 100 ^ 0x4000, 100, 100 ^ 0x4000, 100};
  ss::majority_bit_vote(data, 5);
  EXPECT_EQ(data[2], 100u);
}

TEST(BitVoteGeneral, EvenWidthThrows) {
  std::vector<std::uint16_t> data{1, 2, 3};
  EXPECT_THROW((void)ss::majority_bit_vote(data, 2), std::invalid_argument);
}

// ------------------------------------------------------- kernel regressions

TEST(Loess, ValidatesWidth) {
  std::vector<std::uint16_t> data{1, 2, 3};
  EXPECT_THROW(ss::loess_smooth(data, 4), std::invalid_argument);
  EXPECT_THROW(ss::loess_smooth(data, 1), std::invalid_argument);
  EXPECT_THROW(ss::inverse_square_smooth(data, 2), std::invalid_argument);
  EXPECT_THROW(ss::bisquare_smooth(data, 0), std::invalid_argument);
}

TEST(Loess, PreservesLinearTrendExactly) {
  // A local *linear* fit reproduces linear data exactly — the property
  // that distinguishes loess from the mean/median filters, which flatten
  // slopes at the ends.
  std::vector<std::uint16_t> data(32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint16_t>(1000 + 37 * i);
  }
  const auto original = data;
  ss::loess_smooth(data, 7);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], original[i], 1) << "index " << i;
  }
}

TEST(Loess, DampsAnIsolatedSpike) {
  std::vector<std::uint16_t> data(16, 500);
  data[8] = 30000;
  ss::loess_smooth(data, 5);
  EXPECT_LT(data[8], 16000u);
  EXPECT_GT(data[8], 499u);  // smooth, not erased — loess averages it in
}

TEST(Bisquare, RejectsTheSpikeCompletely) {
  // The robustness iteration down-weights the outlier to ~zero, so the
  // refit lands on the background — loess cannot do that.
  std::vector<std::uint16_t> data(16, 500);
  data[8] = 30000;
  auto plain = data;
  ss::loess_smooth(plain, 5);
  ss::bisquare_smooth(data, 5);
  EXPECT_LT(data[8], 600u);
  EXPECT_LT(data[8], plain[8]);
}

TEST(Bisquare, PreservesLinearTrend) {
  std::vector<std::uint16_t> data(32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint16_t>(2000 + 55 * i);
  }
  const auto original = data;
  ss::bisquare_smooth(data, 7);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], original[i], 2);
  }
}

TEST(InverseSquare, SmoothsTowardNeighbours) {
  std::vector<std::uint16_t> data{100, 100, 4000, 100, 100};
  ss::inverse_square_smooth(data, 5);
  EXPECT_LT(data[2], 4000u);
  EXPECT_GT(data[2], 100u);
}

TEST(KernelRegressions, ConstantDataIsInvariant) {
  for (auto fn : {&ss::loess_smooth, &ss::inverse_square_smooth,
                  &ss::bisquare_smooth}) {
    std::vector<std::uint16_t> data(24, 7777);
    fn(data, 5);
    for (auto v : data) EXPECT_EQ(v, 7777u);
  }
}

// ----------------------------------------------- running average / exponential

TEST(RunningAverage, TrailingWindow) {
  std::vector<std::uint16_t> data{10, 20, 30, 40};
  ss::running_average(data, 2);
  EXPECT_EQ(data[0], 10u);
  EXPECT_EQ(data[1], 15u);
  EXPECT_EQ(data[2], 25u);
  EXPECT_EQ(data[3], 35u);
}

TEST(RunningAverage, ZeroWindowThrows) {
  std::vector<std::uint16_t> data{1};
  EXPECT_THROW((void)ss::running_average(data, 0), std::invalid_argument);
}

TEST(Exponential, AlphaOneIsIdentity) {
  std::vector<std::uint16_t> data{10, 200, 3000};
  const auto original = data;
  ss::exponential_smooth(data, 1.0);
  EXPECT_EQ(data, original);
}

TEST(Exponential, SmallAlphaDampsSpike) {
  std::vector<std::uint16_t> data{100, 100, 9000, 100};
  ss::exponential_smooth(data, 0.2);
  EXPECT_LT(data[2], 2100u);
}

TEST(Exponential, ValidatesAlpha) {
  std::vector<std::uint16_t> data{1};
  EXPECT_THROW((void)ss::exponential_smooth(data, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ss::exponential_smooth(data, 1.5), std::invalid_argument);
}

// -------------------------------------------------------------------- spatial

TEST(Spatial, MedianRemovesIsolatedSpike) {
  Image<float> img(5, 5, 10.0f);
  img(2, 2) = 1e9f;
  ss::median_smooth_2d(img);
  EXPECT_FLOAT_EQ(img(2, 2), 10.0f);
}

TEST(Spatial, MedianNaNNeverWins) {
  Image<float> img(5, 5, 10.0f);
  img(2, 2) = std::nanf("");
  ss::median_smooth_2d(img);
  EXPECT_FLOAT_EQ(img(2, 2), 10.0f);
}

TEST(Spatial, BitVoteRepairsSignFlip) {
  Image<float> img(5, 5, 250.0f);
  img(2, 2) = -250.0f;  // sign-bit flip
  ss::majority_bit_vote_2d(img);
  EXPECT_FLOAT_EQ(img(2, 2), 250.0f);
}

TEST(Spatial, BitVoteSmallImagesUntouched) {
  Image<float> img(2, 2, 5.0f);
  img(0, 0) = -5.0f;
  ss::majority_bit_vote_2d(img);
  EXPECT_FLOAT_EQ(img(0, 0), -5.0f);
}

TEST(Spatial, CubeVariantsTouchEveryPlane) {
  Cube<float> cube(5, 5, 3, 100.0f);
  cube(2, 2, 0) = 1e8f;
  cube(1, 1, 2) = -100.0f;
  ss::median_smooth_cube(cube);
  EXPECT_FLOAT_EQ(cube(2, 2, 0), 100.0f);
  Cube<float> cube2(5, 5, 2, 100.0f);
  cube2(2, 2, 1) = -100.0f;
  ss::majority_bit_vote_cube(cube2);
  EXPECT_FLOAT_EQ(cube2(2, 2, 1), 100.0f);
}
