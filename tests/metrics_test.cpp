// Unit tests for spacefts::metrics — the paper's Ψ metric (Eqs. 3–4), RMSE,
// and the bit-level correction accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "spacefts/metrics/aggregate.hpp"
#include "spacefts/metrics/error.hpp"

namespace sm = spacefts::metrics;

TEST(AverageRelativeError, ZeroForIdenticalData) {
  const std::vector<std::uint16_t> a{100, 200, 300};
  EXPECT_DOUBLE_EQ(
      (sm::average_relative_error<std::uint16_t>(a, a)), 0.0);
}

TEST(AverageRelativeError, MatchesHandComputation) {
  const std::vector<std::uint16_t> pristine{100, 200};
  const std::vector<std::uint16_t> observed{110, 180};
  // (10/100 + 20/200) / 2 = (0.1 + 0.1) / 2 = 0.1
  EXPECT_DOUBLE_EQ(
      (sm::average_relative_error<std::uint16_t>(pristine, observed)), 0.1);
}

TEST(AverageRelativeError, SymmetricInErrorSign) {
  const std::vector<std::uint16_t> pristine{100};
  const std::vector<std::uint16_t> over{120};
  const std::vector<std::uint16_t> under{80};
  EXPECT_DOUBLE_EQ(
      (sm::average_relative_error<std::uint16_t>(pristine, over)),
      (sm::average_relative_error<std::uint16_t>(pristine, under)));
}

TEST(AverageRelativeError, SkipsZeroPristineValues) {
  const std::vector<std::uint16_t> pristine{0, 100};
  const std::vector<std::uint16_t> observed{500, 150};
  // Only the second coordinate contributes: 50/100 = 0.5.
  EXPECT_DOUBLE_EQ(
      (sm::average_relative_error<std::uint16_t>(pristine, observed)), 0.5);
}

TEST(AverageRelativeError, AllZeroPristineIsZero) {
  const std::vector<std::uint16_t> pristine{0, 0};
  const std::vector<std::uint16_t> observed{1, 2};
  EXPECT_DOUBLE_EQ(
      (sm::average_relative_error<std::uint16_t>(pristine, observed)), 0.0);
}

TEST(AverageRelativeError, LengthMismatchThrows) {
  const std::vector<std::uint16_t> a{1, 2};
  const std::vector<std::uint16_t> b{1};
  EXPECT_THROW((void)(sm::average_relative_error<std::uint16_t>(a, b)),
               std::invalid_argument);
}

TEST(AverageRelativeError, WorksOnFloats) {
  const std::vector<float> pristine{2.0f, 4.0f};
  const std::vector<float> observed{1.0f, 6.0f};
  // (1/2 + 2/4)/2 = 0.5
  EXPECT_DOUBLE_EQ((sm::average_relative_error<float>(pristine, observed)),
                   0.5);
}

TEST(AverageRelativeError, NegativePristineUsesMagnitude) {
  const std::vector<float> pristine{-10.0f};
  const std::vector<float> observed{-15.0f};
  EXPECT_DOUBLE_EQ((sm::average_relative_error<float>(pristine, observed)),
                   0.5);
}

TEST(CappedRelativeError, CapsExtremeSamples) {
  const std::vector<float> pristine{10.0f, 10.0f};
  const std::vector<float> observed{1e30f, 12.0f};
  // First sample caps at 1.0, second contributes 0.2 -> mean 0.6.
  EXPECT_DOUBLE_EQ(
      (sm::capped_average_relative_error<float>(pristine, observed)), 0.6);
}

TEST(CappedRelativeError, NonFiniteCountsAsCap) {
  const std::vector<float> pristine{10.0f};
  const std::vector<float> nan_obs{std::nanf("")};
  EXPECT_DOUBLE_EQ(
      (sm::capped_average_relative_error<float>(pristine, nan_obs)), 1.0);
  const std::vector<float> inf_obs{std::numeric_limits<float>::infinity()};
  EXPECT_DOUBLE_EQ(
      (sm::capped_average_relative_error<float>(pristine, inf_obs)), 1.0);
}

TEST(CappedRelativeError, MatchesUncappedWhenSmall) {
  const std::vector<float> pristine{100.0f, 200.0f};
  const std::vector<float> observed{110.0f, 180.0f};
  EXPECT_DOUBLE_EQ(
      (sm::capped_average_relative_error<float>(pristine, observed)),
      (sm::average_relative_error<float>(pristine, observed)));
}

TEST(CappedRelativeError, CustomCap) {
  const std::vector<float> pristine{10.0f};
  const std::vector<float> observed{100.0f};  // raw error 9.0
  EXPECT_DOUBLE_EQ(
      (sm::capped_average_relative_error<float>(pristine, observed, 5.0)),
      5.0);
}

TEST(CappedRelativeError, MismatchThrows) {
  const std::vector<float> a{1.0f};
  EXPECT_THROW((void)(sm::capped_average_relative_error<float>(a, {})),
               std::invalid_argument);
}

TEST(RmsError, HandComputed) {
  const std::vector<float> a{0.0f, 0.0f};
  const std::vector<float> b{3.0f, 4.0f};
  // sqrt((9+16)/2) = sqrt(12.5)
  EXPECT_NEAR((sm::rms_error<float>(a, b)), 3.5355339, 1e-6);
}

TEST(RmsError, EmptyIsZero) {
  EXPECT_DOUBLE_EQ((sm::rms_error<float>({}, {})), 0.0);
}

TEST(RmsError, MismatchThrows) {
  const std::vector<float> a{1.0f};
  EXPECT_THROW((void)(sm::rms_error<float>(a, {})), std::invalid_argument);
}

// ------------------------------------------------------------ CorrectionStats

TEST(CorrectionStats, PerfectRepair) {
  const std::vector<std::uint16_t> pristine{0b1010};
  const std::vector<std::uint16_t> corrupted{0b1110};  // one flipped bit
  const std::vector<std::uint16_t> repaired{0b1010};
  const auto s =
      sm::correction_stats<std::uint16_t>(pristine, corrupted, repaired);
  EXPECT_EQ(s.injected, 1u);
  EXPECT_EQ(s.corrected, 1u);
  EXPECT_EQ(s.missed, 0u);
  EXPECT_EQ(s.false_alarms, 0u);
  EXPECT_DOUBLE_EQ(s.correction_rate(), 1.0);
}

TEST(CorrectionStats, MissedFault) {
  const std::vector<std::uint16_t> pristine{0b0000};
  const std::vector<std::uint16_t> corrupted{0b0011};
  const std::vector<std::uint16_t> repaired{0b0001};  // one of two fixed
  const auto s =
      sm::correction_stats<std::uint16_t>(pristine, corrupted, repaired);
  EXPECT_EQ(s.injected, 2u);
  EXPECT_EQ(s.corrected, 1u);
  EXPECT_EQ(s.missed, 1u);
  EXPECT_EQ(s.false_alarms, 0u);
}

TEST(CorrectionStats, FalseAlarm) {
  const std::vector<std::uint16_t> pristine{0b0000};
  const std::vector<std::uint16_t> corrupted{0b0000};  // clean input
  const std::vector<std::uint16_t> repaired{0b1000};   // algorithm damaged it
  const auto s =
      sm::correction_stats<std::uint16_t>(pristine, corrupted, repaired);
  EXPECT_EQ(s.injected, 0u);
  EXPECT_EQ(s.false_alarms, 1u);
  EXPECT_DOUBLE_EQ(s.correction_rate(), 0.0);
}

TEST(CorrectionStats, PartitionInvariant) {
  // corrected + missed == injected, always.
  const std::vector<std::uint16_t> pristine{0xABCD, 0x1234};
  const std::vector<std::uint16_t> corrupted{0xABCE, 0x9234};
  const std::vector<std::uint16_t> repaired{0xABCD, 0x1235};
  const auto s =
      sm::correction_stats<std::uint16_t>(pristine, corrupted, repaired);
  EXPECT_EQ(s.corrected + s.missed, s.injected);
}

TEST(CorrectionStats, MismatchThrows) {
  const std::vector<std::uint16_t> a{1};
  const std::vector<std::uint16_t> b{1, 2};
  EXPECT_THROW((void)(sm::correction_stats<std::uint16_t>(a, b, b)),
               std::invalid_argument);
}

// ---------------------------------------------------------------- RunningStats

TEST(RunningStats, EmptySeriesIsAllZero) {
  const sm::RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleSampleIsItsOwnSummary) {
  sm::RunningStats stats;
  stats.add(-2.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), -2.5);
  EXPECT_DOUBLE_EQ(stats.min(), -2.5);
  EXPECT_DOUBLE_EQ(stats.max(), -2.5);
}

TEST(RunningStats, NegativeOnlyStreamKeepsSigns) {
  // min_ starts at +inf and max_ at -inf, so an all-negative stream must
  // not report a spurious zero bound.
  sm::RunningStats stats;
  stats.add(-3.0);
  stats.add(-1.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), -1.0);
  EXPECT_DOUBLE_EQ(stats.mean(), -2.0);
}
