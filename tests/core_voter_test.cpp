// Unit tests for the core machinery: sensitivity mapping, voter matrix,
// bit-window masks, and the correction-vector vote combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "spacefts/core/sensitivity.hpp"
#include "spacefts/core/voter_matrix.hpp"

namespace sc = spacefts::core;

// ---------------------------------------------------------------- sensitivity

TEST(Sensitivity, Validation) {
  EXPECT_TRUE(sc::is_valid_sensitivity(0.0));
  EXPECT_TRUE(sc::is_valid_sensitivity(100.0));
  EXPECT_FALSE(sc::is_valid_sensitivity(-1.0));
  EXPECT_FALSE(sc::is_valid_sensitivity(101.0));
  EXPECT_THROW((void)sc::prune_fraction(-1.0), std::invalid_argument);
}

TEST(Sensitivity, FractionAnchorsFromTheFormula) {
  // f(Λ) = 1/2 + (80 − Λ)/200.
  EXPECT_DOUBLE_EQ(sc::prune_fraction(0.0), 0.9);
  EXPECT_DOUBLE_EQ(sc::prune_fraction(80.0), 0.5);
  EXPECT_DOUBLE_EQ(sc::prune_fraction(100.0), 0.4);
}

TEST(Sensitivity, FractionDecreasesWithLambda) {
  // [R2] Higher sensitivity must mean a lower threshold rank (more voters).
  double prev = 2.0;
  for (double lambda = 0.0; lambda <= 100.0; lambda += 10.0) {
    const double f = sc::prune_fraction(lambda);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(Sensitivity, RankClampsToSetSize) {
  EXPECT_THROW((void)sc::prune_rank(0, 50.0), std::invalid_argument);
  EXPECT_EQ(sc::prune_rank(1, 0.0), 0u);
  EXPECT_EQ(sc::prune_rank(10, 0.0), 9u);    // f = 0.9 -> rank 9
  EXPECT_EQ(sc::prune_rank(10, 80.0), 5u);   // f = 0.5 -> rank 5
  EXPECT_EQ(sc::prune_rank(10, 100.0), 4u);  // f = 0.4 -> rank 4
}

// --------------------------------------------------------------- voter matrix

TEST(VoterMatrix, XorsMatchPairings) {
  const std::vector<std::uint16_t> series{1, 2, 4, 8, 16};
  const auto m = sc::build_voter_matrix<std::uint16_t>(series, 4, 80.0);
  ASSERT_EQ(m.ways.size(), 2u);
  EXPECT_EQ(m.ways[0].distance, 1u);
  EXPECT_EQ(m.ways[1].distance, 2u);
  ASSERT_EQ(m.ways[0].xors.size(), 4u);
  EXPECT_EQ(m.ways[0].xors[0], 1u ^ 2u);
  EXPECT_EQ(m.ways[0].xors[3], 8u ^ 16u);
  ASSERT_EQ(m.ways[1].xors.size(), 3u);
  EXPECT_EQ(m.ways[1].xors[0], 1u ^ 4u);
}

TEST(VoterMatrix, ValidatesArguments) {
  const std::vector<std::uint16_t> series{1, 2, 3, 4};
  EXPECT_THROW((void)sc::build_voter_matrix<std::uint16_t>(series, 3, 80.0),
               std::invalid_argument);
  EXPECT_THROW((void)sc::build_voter_matrix<std::uint16_t>(series, 0, 80.0),
               std::invalid_argument);
  EXPECT_THROW((void)sc::build_voter_matrix<std::uint16_t>(series, 4, 150.0),
               std::invalid_argument);
}

TEST(VoterMatrix, ShortSeriesSkipsOversizedDistances) {
  const std::vector<std::uint16_t> series{1, 2};
  const auto m = sc::build_voter_matrix<std::uint16_t>(series, 6, 80.0);
  ASSERT_EQ(m.ways.size(), 1u);  // only d = 1 fits
  const std::vector<std::uint16_t> one{1};
  const auto empty = sc::build_voter_matrix<std::uint16_t>(one, 4, 80.0);
  EXPECT_TRUE(empty.ways.empty());
  EXPECT_EQ(empty.lsb_mask, 0u);
}

TEST(VoterMatrix, ThresholdsArePowersOfTwo) {
  const std::vector<std::uint16_t> series{100, 131, 95, 160, 120, 88, 143, 99};
  const auto m = sc::build_voter_matrix<std::uint16_t>(series, 4, 50.0);
  for (const auto& way : m.ways) {
    EXPECT_EQ(way.v_val & (way.v_val - 1), 0u) << "not a power of two";
    EXPECT_GT(way.v_val, 0u);
  }
}

TEST(VoterMatrix, ConstantSeriesOpensEveryWindow) {
  // All XORs are zero -> thresholds quantize to zero -> both masks cover
  // the full word (window C empty; window A everything).
  const std::vector<std::uint16_t> series(16, 27000);
  const auto m = sc::build_voter_matrix<std::uint16_t>(series, 4, 80.0);
  EXPECT_EQ(m.lsb_mask, 0xFFFF);
  EXPECT_EQ(m.msb_mask, 0xFFFF);
}

TEST(VoterMatrix, MsbMaskIsSubsetOfLsbMask) {
  // max V_val >= min V_val, so window A ⊆ (A ∪ B).
  const std::vector<std::uint16_t> series{100, 900, 130, 700, 260, 500,
                                          310, 400, 290, 350};
  const auto m = sc::build_voter_matrix<std::uint16_t>(series, 4, 80.0);
  EXPECT_EQ(m.msb_mask & m.lsb_mask, m.msb_mask);
}

TEST(VoterMatrix, HigherLambdaLowersThresholds) {
  std::vector<std::uint16_t> series;
  std::uint16_t v = 1000;
  for (int i = 0; i < 64; ++i) {
    v = static_cast<std::uint16_t>(v + (i * 37) % 100);
    series.push_back(v);
  }
  const auto lax = sc::build_voter_matrix<std::uint16_t>(series, 4, 20.0);
  const auto tight = sc::build_voter_matrix<std::uint16_t>(series, 4, 100.0);
  for (std::size_t w = 0; w < lax.ways.size(); ++w) {
    EXPECT_GE(lax.ways[w].v_val, tight.ways[w].v_val);
  }
}

TEST(VoterMatrix, VoterPrunesAtOrBelowThreshold) {
  const std::vector<std::uint16_t> series{100, 101, 100, 101, 100, 101};
  auto m = sc::build_voter_matrix<std::uint16_t>(series, 2, 80.0);
  ASSERT_EQ(m.ways.size(), 1u);
  // All XORs are 1; threshold quantizes to 1; every voter (== 1 <= 1) prunes.
  for (std::size_t i = 0; i < m.ways[0].xors.size(); ++i) {
    EXPECT_EQ(m.voter(0, i), 0u);
  }
  // Ablation: with pruning disabled the raw XOR value comes back.
  m.prune_enabled = false;
  EXPECT_EQ(m.voter(0, 0), 1u);
}

TEST(VoterMatrix, PruneFlagFromBuilder) {
  const std::vector<std::uint16_t> series{5, 6, 5, 6, 5, 6};
  const auto pruned =
      sc::build_voter_matrix<std::uint16_t>(series, 2, 80.0, true);
  const auto unpruned =
      sc::build_voter_matrix<std::uint16_t>(series, 2, 80.0, false);
  EXPECT_TRUE(pruned.prune_enabled);
  EXPECT_FALSE(unpruned.prune_enabled);
  // Thresholds themselves are identical — only the gate differs.
  EXPECT_EQ(pruned.ways[0].v_val, unpruned.ways[0].v_val);
}

TEST(VoterMatrix, ThirtyTwoBitWords) {
  // The OTIS path drives the same machinery at 32 bits.
  std::vector<std::uint32_t> series;
  std::uint32_t v = 0x41200000u;  // float bits near 10.0f
  for (int i = 0; i < 32; ++i) {
    series.push_back(v + static_cast<std::uint32_t>(i * 1031));
  }
  sc::VoterMatrix<std::uint32_t> m;
  std::vector<std::uint32_t> sort_scratch;
  sc::rebuild_voter_matrix<std::uint32_t>(series, 4, 80.0, true, m,
                                          sort_scratch);
  ASSERT_EQ(m.ways.size(), 2u);
  for (const auto& way : m.ways) {
    EXPECT_EQ(way.v_val & (way.v_val - 1), 0u);
  }
  EXPECT_EQ(m.msb_mask & m.lsb_mask, m.msb_mask);
}

TEST(VoterMatrix, MasksAreContiguousHighRuns) {
  // Window masks are always of the form 0xFF..F000..0: a contiguous run of
  // high bits — the property the bit-serial implementation relies on.
  const std::vector<std::uint16_t> series{100, 900, 130, 700, 260, 500,
                                          310, 400, 290, 350, 275, 420};
  const auto m = sc::build_voter_matrix<std::uint16_t>(series, 4, 60.0);
  for (std::uint32_t mask : {static_cast<std::uint32_t>(m.lsb_mask),
                             static_cast<std::uint32_t>(m.msb_mask)}) {
    if (mask == 0) continue;
    const std::uint32_t inverted = ~mask & 0xFFFFu;
    EXPECT_EQ(inverted & (inverted + 1), 0u) << std::hex << mask;
  }
}

// ---------------------------------------------------------- correction vector

TEST(CorrectionVector, UnanimousBitsAlwaysCorrect) {
  const std::vector<std::uint16_t> voters{0x0100, 0x0100, 0x0100, 0x0100};
  // Full masks: everything votes.
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(voters, 0xFFFF, 0x0000),
            0x0100);
}

TEST(CorrectionVector, NearUnanimousNeedsWindowA) {
  const std::vector<std::uint16_t> voters{0x8000, 0x8000, 0x8000, 0x0000};
  // Outside window A: 3-of-4 is not enough.
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(voters, 0xFFFF, 0x0000), 0u);
  // Inside window A (msb mask covers bit 15): 3-of-4 flips it.
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(voters, 0xFFFF, 0x8000),
            0x8000);
}

TEST(CorrectionVector, WindowCMaskedOff) {
  const std::vector<std::uint16_t> voters{0x0001, 0x0001, 0x0001, 0x0001};
  // LSB mask keeps bits >= 8 only: the unanimous bit-0 vote is discarded.
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(voters, 0xFF00, 0x0000), 0u);
}

TEST(CorrectionVector, FewerThanTwoVotersNoCorrection) {
  const std::vector<std::uint16_t> one{0xFFFF};
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(one, 0xFFFF, 0xFFFF), 0u);
  EXPECT_EQ(sc::correction_vector<std::uint16_t>({}, 0xFFFF, 0xFFFF), 0u);
}

TEST(CorrectionVector, PrunedZeroVotesAgainstEverything) {
  // One pruned (zero) voter kills unanimity everywhere and restricts the
  // GRT to window A.
  const std::vector<std::uint16_t> voters{0x0400, 0x0400, 0x0400, 0x0000};
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(voters, 0xFFFF, 0x0000), 0u);
  EXPECT_EQ(sc::correction_vector<std::uint16_t>(voters, 0xFFFF, 0xFF00),
            0x0400);
}

TEST(CorrectionVector, Works32Bit) {
  const std::vector<std::uint32_t> voters{0x00800000u, 0x00800000u};
  EXPECT_EQ(sc::correction_vector<std::uint32_t>(voters, 0xFFFFFFFFu, 0u),
            0x00800000u);
}
