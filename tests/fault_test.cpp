// Unit tests for spacefts::fault — both fault models of §2.2 and the
// injection/permutation helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "spacefts/common/random.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/fault/models.hpp"

namespace sf = spacefts::fault;
using spacefts::common::Rng;

// ----------------------------------------------------- UncorrelatedFaultModel

TEST(Uncorrelated, ValidatesProbability) {
  EXPECT_THROW((void)sf::UncorrelatedFaultModel(-0.1), std::invalid_argument);
  EXPECT_THROW((void)sf::UncorrelatedFaultModel(1.1), std::invalid_argument);
  EXPECT_NO_THROW((void)sf::UncorrelatedFaultModel(0.0));
  EXPECT_NO_THROW((void)sf::UncorrelatedFaultModel(1.0));
}

TEST(Uncorrelated, ZeroProbabilityProducesEmptyMask) {
  Rng rng(1);
  const sf::UncorrelatedFaultModel model(0.0);
  const auto mask = model.mask16(1000, rng);
  EXPECT_EQ(sf::count_faults<std::uint16_t>(mask), 0u);
}

TEST(Uncorrelated, ProbabilityOneFlipsEverything) {
  Rng rng(1);
  const sf::UncorrelatedFaultModel model(1.0);
  const auto mask = model.mask16(10, rng);
  for (auto word : mask) EXPECT_EQ(word, 0xFFFF);
}

TEST(Uncorrelated, EmpiricalRateMatchesGamma0) {
  Rng rng(2);
  const double gamma0 = 0.05;
  const sf::UncorrelatedFaultModel model(gamma0);
  const std::size_t words = 20000;
  const auto mask = model.mask16(words, rng);
  const double rate = static_cast<double>(sf::count_faults<std::uint16_t>(mask)) /
                      static_cast<double>(words * 16);
  EXPECT_NEAR(rate, gamma0, 0.005);
}

TEST(Uncorrelated, DeterministicPerSeed) {
  const sf::UncorrelatedFaultModel model(0.1);
  Rng a(7), b(7);
  EXPECT_EQ(model.mask16(100, a), model.mask16(100, b));
}

TEST(Uncorrelated, Mask32Works) {
  Rng rng(3);
  const sf::UncorrelatedFaultModel model(0.5);
  const auto mask = model.mask32(1000, rng);
  const double rate = static_cast<double>(sf::count_faults<std::uint32_t>(mask)) /
                      static_cast<double>(1000 * 32);
  EXPECT_NEAR(rate, 0.5, 0.02);
}

// ------------------------------------------------------- CorrelatedFaultModel

TEST(Correlated, ValidatesProbability) {
  EXPECT_THROW((void)sf::CorrelatedFaultModel(-0.1), std::invalid_argument);
  EXPECT_THROW((void)sf::CorrelatedFaultModel(1.0), std::invalid_argument);
  EXPECT_NO_THROW((void)sf::CorrelatedFaultModel(0.0));
  EXPECT_NO_THROW((void)sf::CorrelatedFaultModel(0.49));
}

TEST(Correlated, FlipProbabilityFollowsEq2) {
  const sf::CorrelatedFaultModel model(0.2);
  // Fresh run: base probability.
  EXPECT_DOUBLE_EQ(model.flip_probability(0), 0.2);
  // R = 1: Γ_ini.
  EXPECT_DOUBLE_EQ(model.flip_probability(1), 0.2);
  // R = 2: Γ_ini + Γ_ini².
  EXPECT_NEAR(model.flip_probability(2), 0.2 + 0.04, 1e-12);
  // R = 3: + Γ_ini³.
  EXPECT_NEAR(model.flip_probability(3), 0.2 + 0.04 + 0.008, 1e-12);
}

TEST(Correlated, ProbabilityIsMonotoneInRunLength) {
  const sf::CorrelatedFaultModel model(0.3);
  double prev = 0.0;
  for (std::size_t run = 0; run < 50; ++run) {
    const double p = model.flip_probability(run);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Correlated, ConvergesToGeometricLimit) {
  const sf::CorrelatedFaultModel model(0.3);
  // Limit = Γ/(1-Γ) = 3/7.
  EXPECT_NEAR(model.flip_probability(1000), 0.3 / 0.7, 1e-9);
  EXPECT_LT(model.flip_probability(1000), 1.0);
}

TEST(Correlated, EmptyGridThrows) {
  Rng rng(1);
  const sf::CorrelatedFaultModel model(0.1);
  EXPECT_THROW((void)model.mask16(0, 4, rng), std::invalid_argument);
  EXPECT_THROW((void)model.mask16(4, 0, rng), std::invalid_argument);
}

TEST(Correlated, ZeroProbabilityEmptyMask) {
  Rng rng(1);
  const sf::CorrelatedFaultModel model(0.0);
  const auto mask = model.mask16(64, 64, rng);
  EXPECT_EQ(sf::count_faults<std::uint16_t>(mask), 0u);
}

namespace {

/// Mean horizontal run length of set bits in a 16-bit-word row-major mask.
double mean_run_length(const std::vector<std::uint16_t>& mask,
                       std::size_t words_per_row, std::size_t rows) {
  std::size_t runs = 0, bits = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    bool in_run = false;
    for (std::size_t c = 0; c < words_per_row * 16; ++c) {
      const bool set =
          (mask[r * words_per_row + c / 16] >> (c % 16)) & 1u;
      if (set) {
        ++bits;
        if (!in_run) ++runs;
        in_run = true;
      } else {
        in_run = false;
      }
    }
  }
  return runs ? static_cast<double>(bits) / static_cast<double>(runs) : 0.0;
}

}  // namespace

TEST(Correlated, ProducesLongerRunsThanUncorrelated) {
  Rng rng1(11), rng2(12);
  const std::size_t words_per_row = 32, rows = 64;
  const sf::CorrelatedFaultModel correlated(0.15);
  const auto corr_mask = correlated.mask16(words_per_row, rows, rng1);

  // An uncorrelated mask at the *same* overall density.
  const double density =
      static_cast<double>(sf::count_faults<std::uint16_t>(corr_mask)) /
      static_cast<double>(words_per_row * rows * 16);
  const sf::UncorrelatedFaultModel uncorrelated(density);
  const auto unco_mask = uncorrelated.mask16(words_per_row * rows, rng2);

  EXPECT_GT(mean_run_length(corr_mask, words_per_row, rows),
            mean_run_length(unco_mask, words_per_row, rows));
}

TEST(Correlated, DensityGrowsWithGammaIni) {
  Rng rng1(5), rng2(6);
  const auto low = sf::CorrelatedFaultModel(0.05).mask16(32, 32, rng1);
  const auto high = sf::CorrelatedFaultModel(0.3).mask16(32, 32, rng2);
  EXPECT_GT(sf::count_faults<std::uint16_t>(high),
            sf::count_faults<std::uint16_t>(low));
}

TEST(Correlated, BoundaryGammaIniStaysBelowOne) {
  // Γ_ini just under the 0.5 admissibility boundary: the geometric limit
  // Γ/(1-Γ) approaches 1 but must never reach it, and evaluating very long
  // runs must neither overflow nor round up to a certain flip.
  const double gamma_ini = 0.4999;
  const sf::CorrelatedFaultModel model(gamma_ini);
  const double limit = gamma_ini / (1.0 - gamma_ini);
  ASSERT_LT(limit, 1.0);
  double prev = 0.0;
  for (const std::size_t run : {std::size_t{1}, std::size_t{10},
                                std::size_t{100}, std::size_t{100000},
                                std::size_t{10000000}}) {
    const double p = model.flip_probability(run);
    EXPECT_TRUE(std::isfinite(p)) << "run " << run;
    EXPECT_GE(p, prev);
    EXPECT_LT(p, 1.0) << "run " << run;
    EXPECT_LE(p, limit + 1e-12) << "run " << run;
    prev = p;
  }
  EXPECT_NEAR(model.flip_probability(10000000), limit, 1e-9);
}

TEST(Correlated, BoundaryGammaIniMaskGenerationTerminates) {
  // Long columns at near-boundary Γ_ini: dense masks, but generation stays
  // bounded and the empirical density stays below certainty.
  Rng rng(13);
  const sf::CorrelatedFaultModel model(0.4999);
  const std::size_t words_per_row = 4, rows = 512;
  const auto mask = model.mask16(words_per_row, rows, rng);
  const auto flipped = sf::count_faults<std::uint16_t>(mask);
  const std::size_t bits = words_per_row * rows * 16;
  EXPECT_GT(flipped, 0u);
  EXPECT_LT(flipped, bits);  // not every bit certain even at the boundary
}

TEST(Correlated, HalfGammaIniSaturatesSafely) {
  // At exactly 0.5 the geometric limit reaches 1: long runs flip with
  // certainty.  The model must cap the probability at 1 (a valid Bernoulli
  // parameter) rather than overflow past it.
  const sf::CorrelatedFaultModel model(0.5);
  for (const std::size_t run :
       {std::size_t{1}, std::size_t{64}, std::size_t{1000000}}) {
    const double p = model.flip_probability(run);
    EXPECT_TRUE(std::isfinite(p)) << "run " << run;
    EXPECT_LE(p, 1.0) << "run " << run;
  }
  EXPECT_DOUBLE_EQ(model.flip_probability(1000000), 1.0);
}

// ---------------------------------------------------------- BlockFaultModel

TEST(BlockFault, ValidatesArguments) {
  EXPECT_THROW(sf::BlockFaultModel(1, 0, 4), std::invalid_argument);
  EXPECT_THROW(sf::BlockFaultModel(1, 4, 0), std::invalid_argument);
  EXPECT_THROW(sf::BlockFaultModel(1, 4, 4, 1.5), std::invalid_argument);
  EXPECT_NO_THROW(sf::BlockFaultModel(0, 4, 4));
}

TEST(BlockFault, ZeroEventsEmptyMask) {
  Rng rng(1);
  const sf::BlockFaultModel model(0, 8, 8);
  const auto mask = model.mask16(4, 16, rng);
  EXPECT_EQ(sf::count_faults<std::uint16_t>(mask), 0u);
}

TEST(BlockFault, FullDensityBlockIsContiguous) {
  Rng rng(2);
  const sf::BlockFaultModel model(1, 8, 4, 1.0);
  const auto mask = model.mask16(2, 16, rng);
  // Exactly one block, possibly clipped: flipped bits bound by 8x4.
  const auto flipped = sf::count_faults<std::uint16_t>(mask);
  EXPECT_GT(flipped, 0u);
  EXPECT_LE(flipped, 32u);
  // All affected rows must be consecutive.
  int first = -1, last = -1;
  for (int r = 0; r < 16; ++r) {
    const bool hit = (mask[2 * r] | mask[2 * r + 1]) != 0;
    if (hit) {
      if (first < 0) first = r;
      last = r;
    }
  }
  ASSERT_GE(first, 0);
  for (int r = first; r <= last; ++r) {
    EXPECT_NE(mask[2 * r] | mask[2 * r + 1], 0);
  }
  EXPECT_LE(last - first + 1, 4);
}

TEST(BlockFault, GridValidation) {
  Rng rng(3);
  const sf::BlockFaultModel model(1, 4, 4);
  EXPECT_THROW((void)model.mask16(0, 4, rng), std::invalid_argument);
}

// --------------------------------------------------------- MessageFaultModel

TEST(MessageFault, ValidatesConfiguration) {
  sf::MessageFaultConfig config;
  config.drop_prob = -0.1;
  EXPECT_THROW((void)sf::MessageFaultModel(config), std::invalid_argument);
  config = {};
  config.corrupt_prob = 1.1;
  EXPECT_THROW((void)sf::MessageFaultModel(config), std::invalid_argument);
  config = {};
  config.corrupt_gamma0 = 0.0;
  EXPECT_THROW((void)sf::MessageFaultModel(config), std::invalid_argument);
  EXPECT_NO_THROW((void)sf::MessageFaultModel(sf::MessageFaultConfig{}));
}

TEST(MessageFault, PerfectLinkConsumesNoRandomness) {
  // An all-zero config must not advance the stream: pipelines with a
  // perfect link stay bit-compatible with builds that predate the model.
  const sf::MessageFaultModel model(sf::MessageFaultConfig{});
  EXPECT_TRUE(sf::MessageFaultConfig{}.perfect());
  Rng rng(21), untouched(21);
  const auto outcome = model.sample(rng);
  EXPECT_FALSE(outcome.dropped);
  EXPECT_FALSE(outcome.corrupted);
  EXPECT_EQ(outcome.duplicates, 0u);
  EXPECT_EQ(outcome.extra_delay_s, 0.0);
  EXPECT_EQ(rng(), untouched());  // stream position unchanged
}

TEST(MessageFault, SampleIsDeterministicPerSeed) {
  sf::MessageFaultConfig config;
  config.drop_prob = 0.2;
  config.corrupt_prob = 0.3;
  config.duplicate_prob = 0.1;
  config.delay_prob = 0.4;
  const sf::MessageFaultModel model(config);
  Rng a(22), b(22);
  for (int i = 0; i < 200; ++i) {
    const auto oa = model.sample(a);
    const auto ob = model.sample(b);
    EXPECT_EQ(oa.dropped, ob.dropped);
    EXPECT_EQ(oa.corrupted, ob.corrupted);
    EXPECT_EQ(oa.duplicates, ob.duplicates);
    EXPECT_EQ(oa.extra_delay_s, ob.extra_delay_s);
  }
}

TEST(MessageFault, DropSuppressesTheOtherFates) {
  // A dropped message never arrives, so it cannot also be corrupted,
  // duplicated, or delayed.
  sf::MessageFaultConfig config;
  config.drop_prob = 1.0;
  config.corrupt_prob = 1.0;
  config.duplicate_prob = 1.0;
  config.delay_prob = 1.0;
  const sf::MessageFaultModel model(config);
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const auto outcome = model.sample(rng);
    EXPECT_TRUE(outcome.dropped);
    EXPECT_FALSE(outcome.corrupted);
    EXPECT_EQ(outcome.duplicates, 0u);
    EXPECT_EQ(outcome.extra_delay_s, 0.0);
  }
}

TEST(MessageFault, EmpiricalRatesMatchConfiguration) {
  sf::MessageFaultConfig config;
  config.drop_prob = 0.1;
  config.delay_prob = 0.25;
  const sf::MessageFaultModel model(config);
  Rng rng(24);
  const int trials = 20000;
  int dropped = 0, delayed = 0;
  double longest = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto outcome = model.sample(rng);
    dropped += outcome.dropped ? 1 : 0;
    delayed += outcome.extra_delay_s > 0.0 ? 1 : 0;
    EXPECT_GE(outcome.extra_delay_s, 0.0);
    longest = std::max(longest, outcome.extra_delay_s);
  }
  // Delays are uniform up to 10 ms; ~4,500 delayed draws put the longest
  // in the top percent.
  EXPECT_LE(longest, 10e-3);
  EXPECT_GT(longest, 9.9e-3);
  EXPECT_NEAR(dropped / static_cast<double>(trials), 0.1, 0.01);
  // Delay survives only when the message was not dropped.
  EXPECT_NEAR(delayed / static_cast<double>(trials), 0.25 * 0.9, 0.015);
}

TEST(MessageFault, CorruptAlwaysFlipsAtLeastOneBit) {
  sf::MessageFaultConfig config;
  config.corrupt_prob = 1.0;
  config.corrupt_gamma0 = 1e-6;  // so sparse the i.i.d. pass usually misses
  const sf::MessageFaultModel model(config);
  Rng rng(25);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> payload(8, 0xA5);
    const auto reference = payload;
    const auto flipped = model.corrupt(payload, rng);
    EXPECT_GE(flipped, 1u);
    EXPECT_NE(payload, reference);
  }
  // Empty payloads are a no-op, not a crash.
  std::vector<std::uint8_t> empty;
  EXPECT_EQ(model.corrupt(empty, rng), 0u);
}

// ------------------------------------------------------------------ injection

TEST(ApplyMask, XorInPlaceAndInvertible) {
  std::vector<std::uint16_t> data{1, 2, 3};
  const std::vector<std::uint16_t> mask{0x8000, 0, 0x0001};
  const auto original = data;
  sf::apply_mask<std::uint16_t>(data, mask);
  EXPECT_EQ(data[0], 0x8001);
  EXPECT_EQ(data[1], 2);
  EXPECT_EQ(data[2], 2);
  sf::apply_mask<std::uint16_t>(data, mask);  // involutive
  EXPECT_EQ(data, original);
}

TEST(ApplyMask, MismatchThrows) {
  std::vector<std::uint16_t> data{1};
  const std::vector<std::uint16_t> mask{1, 2};
  EXPECT_THROW((void)(sf::apply_mask<std::uint16_t>(data, mask)),
               std::invalid_argument);
}

TEST(ApplyMaskFloat, FlipsBitPattern) {
  std::vector<float> data{1.0f};
  const std::vector<std::uint32_t> mask{0x80000000u};  // sign bit
  sf::apply_mask_float(data, mask);
  EXPECT_EQ(data[0], -1.0f);
}

// ---------------------------------------------------------------- permutation

TEST(Permutation, InterleaveIsAPermutation) {
  for (std::size_t ways : {1u, 2u, 3u, 4u, 7u}) {
    const auto perm = sf::interleave_permutation(20, ways);
    std::vector<bool> seen(20, false);
    for (std::size_t p : perm) {
      ASSERT_LT(p, 20u);
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST(Permutation, OneWayIsIdentity) {
  const auto perm = sf::interleave_permutation(10, 1);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(perm[i], i);
}

TEST(Permutation, ZeroWaysThrows) {
  EXPECT_THROW((void)sf::interleave_permutation(10, 0), std::invalid_argument);
}

TEST(Permutation, InterleaveSeparatesNeighbours) {
  // Logical neighbours land >= n/ways - 1 apart physically.
  const auto perm = sf::interleave_permutation(16, 4);
  for (std::size_t i = 0; i + 1 < 16; ++i) {
    const auto a = static_cast<std::ptrdiff_t>(perm[i]);
    const auto b = static_cast<std::ptrdiff_t>(perm[i + 1]);
    EXPECT_GE(std::abs(a - b), 3);
  }
}

TEST(Permutation, PermuteUnpermuteRoundtrip) {
  const std::vector<std::uint16_t> data{10, 20, 30, 40, 50, 60, 70};
  const auto perm = sf::interleave_permutation(data.size(), 3);
  const auto shuffled = sf::permute<std::uint16_t>(data, perm);
  const auto restored = sf::unpermute<std::uint16_t>(shuffled, perm);
  EXPECT_EQ(restored, data);
  EXPECT_NE(shuffled, data);
}

TEST(Permutation, RejectsNonPermutation) {
  const std::vector<std::uint16_t> data{1, 2, 3};
  const std::vector<std::size_t> dup{0, 0, 1};
  const std::vector<std::size_t> oob{0, 1, 5};
  EXPECT_THROW((void)(sf::permute<std::uint16_t>(data, dup)), std::invalid_argument);
  EXPECT_THROW((void)(sf::permute<std::uint16_t>(data, oob)), std::invalid_argument);
}
