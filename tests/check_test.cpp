// Tests for spacefts::check — the golden oracles, the reusable properties,
// the failure-corpus format, and the differential fuzz driver.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "spacefts/check/corpus.hpp"
#include "spacefts/check/differential.hpp"
#include "spacefts/check/oracle.hpp"
#include "spacefts/check/properties.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"

namespace sc = spacefts::check;
namespace score = spacefts::core;
namespace sd = spacefts::datagen;
namespace sf = spacefts::fault;
namespace sr = spacefts::rice;
using spacefts::common::Rng;

namespace {

void expect_reports_equal(const score::AlgoNgstReport& a,
                          const score::AlgoNgstReport& b) {
  EXPECT_EQ(a.lsb_mask, b.lsb_mask);
  EXPECT_EQ(a.msb_mask, b.msb_mask);
  EXPECT_EQ(a.pixels_examined, b.pixels_examined);
  EXPECT_EQ(a.pixels_corrected, b.pixels_corrected);
  EXPECT_EQ(a.bits_corrected, b.bits_corrected);
  EXPECT_EQ(a.pixels_vetoed, b.pixels_vetoed);
}

void expect_reports_equal(const score::AlgoOtisReport& a,
                          const score::AlgoOtisReport& b) {
  EXPECT_EQ(a.pixels_examined, b.pixels_examined);
  EXPECT_EQ(a.out_of_bounds, b.out_of_bounds);
  EXPECT_EQ(a.outliers, b.outliers);
  EXPECT_EQ(a.trend_protected, b.trend_protected);
  EXPECT_EQ(a.bit_corrected, b.bit_corrected);
  EXPECT_EQ(a.median_replaced, b.median_replaced);
}

}  // namespace

// -------------------------------------------------------------------- oracle

TEST(Oracle, NgstSeriesMatchesCore) {
  Rng seeds(11);
  for (int trial = 0; trial < 12; ++trial) {
    sd::NgstSimulator sim(seeds());
    auto series = sim.sequence(6 + static_cast<std::size_t>(trial) * 5);
    if (trial % 2 == 1) {
      auto rng = Rng(seeds());
      const auto mask =
          sf::UncorrelatedFaultModel(0.01).mask16(series.size(), rng);
      sf::apply_mask<std::uint16_t>(series, mask);
    }
    for (const std::size_t upsilon : {2u, 4u, 8u}) {
      for (const double lambda : {40.0, 80.0, 100.0}) {
        score::AlgoNgstConfig config;
        config.upsilon = upsilon;
        config.lambda = lambda;
        auto optimized = series;
        const auto core_report =
            score::AlgoNgst(config).preprocess(optimized);
        auto golden = series;
        const auto oracle_report = sc::oracle_ngst_series(golden, config);
        EXPECT_EQ(optimized, golden)
            << "upsilon=" << upsilon << " lambda=" << lambda;
        expect_reports_equal(core_report, oracle_report);
      }
    }
  }
}

TEST(Oracle, NgstStackMatchesThreadedCore) {
  sd::NgstSimulator sim(21);
  sd::SceneParams scene;
  scene.width = 9;
  scene.height = 6;
  scene.stars = 3;
  auto stack = sim.stack(12, scene);
  Rng rng(22);
  const auto mask = sf::CorrelatedFaultModel(0.005).mask16(
      stack.width(), stack.height() * stack.frames(), rng);
  sf::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);

  score::AlgoNgstConfig config;
  config.upsilon = 4;
  config.lambda = 80.0;
  auto golden = stack;
  const auto oracle_report = sc::oracle_ngst_stack(golden, config);
  // The comparison must not be vacuous: this stack needs repairs.
  EXPECT_GT(oracle_report.pixels_corrected, 0u);

  for (const std::size_t threads : {1u, 4u}) {
    config.threads = threads;
    auto work = stack;
    const auto core_report = score::AlgoNgst(config).preprocess(work);
    EXPECT_EQ(work, golden) << "threads=" << threads;
    expect_reports_equal(core_report, oracle_report);
  }
}

TEST(Oracle, OtisCubeMatchesThreadedCore) {
  sd::OtisSceneGenerator generator(31);
  sd::OtisSceneParams params;
  params.width = 14;
  params.height = 10;
  params.bands = 5;
  const auto scene =
      generator.generate(sd::OtisSceneKind::kStripe, params);
  auto cube = scene.radiance;
  Rng rng(32);
  const auto mask = sf::CorrelatedFaultModel(0.005).mask32(
      cube.width(), cube.height() * cube.depth(), rng);
  sf::apply_mask_float(cube.voxels(), mask);

  score::AlgoOtisConfig config;
  config.upsilon = 4;
  config.lambda = 80.0;
  auto golden = cube;
  const auto oracle_report =
      sc::oracle_otis_cube(golden, scene.wavelengths_um, config);
  EXPECT_GT(oracle_report.out_of_bounds + oracle_report.outliers, 0u);

  for (const std::size_t threads : {1u, 3u}) {
    config.threads = threads;
    auto work = cube;
    const auto core_report =
        score::AlgoOtis(config).preprocess(work, scene.wavelengths_um);
    const auto a = work.voxels();
    const auto b = golden.voxels();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                std::bit_cast<std::uint32_t>(b[i]))
          << "threads=" << threads << " voxel " << i;
    }
    expect_reports_equal(core_report, oracle_report);
  }
}

TEST(Oracle, OtisPlaneMatchesCore) {
  sd::OtisSceneGenerator generator(41);
  sd::OtisSceneParams params;
  params.width = 12;
  params.height = 12;
  params.bands = 4;
  const auto scene = generator.generate(sd::OtisSceneKind::kSpots, params);
  auto plane = scene.radiance.plane_image(1);
  Rng rng(42);
  const auto mask =
      sf::UncorrelatedFaultModel(0.002).mask32(plane.size(), rng);
  sf::apply_mask_float(plane.pixels(), mask);

  score::AlgoOtisConfig config;
  config.upsilon = 8;
  config.lambda = 95.0;
  auto golden = plane;
  const auto oracle_report =
      sc::oracle_otis_plane(golden, scene.wavelengths_um[1], config);
  auto work = plane;
  const auto core_report = score::AlgoOtis(config).preprocess_plane(
      work, scene.wavelengths_um[1]);
  const auto a = work.pixels();
  const auto b = golden.pixels();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "pixel " << i;
  }
  expect_reports_equal(core_report, oracle_report);
}

TEST(Oracle, RiceDecodeMatchesTheCodec) {
  // The oracle reads valid streams back, and names the same errors as the
  // codec on a short stream and an out-of-range k.
  Rng rng(71);
  std::vector<std::uint16_t> walk(1000);
  std::uint16_t level = 27000;
  for (auto& v : walk) {
    level = static_cast<std::uint16_t>(level + rng.below(201) - 100);
    v = level;
  }
  EXPECT_EQ(sc::oracle_rice_decode(sr::compress16(walk), walk.size()), walk);
  const auto error_of = [](auto&& decode, std::span<const std::uint8_t> s,
                           std::size_t count) {
    try {
      (void)decode(s, count);
    } catch (const sr::BitstreamError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::vector<std::uint8_t> zeros{0x00, 0x00, 0x00};
  EXPECT_EQ(error_of(sc::oracle_rice_decode, zeros, 25),
            "BitReader: past end of stream");
  EXPECT_EQ(error_of(sr::decompress16, zeros, 25),
            "BitReader: past end of stream");
  const std::vector<std::uint8_t> k17{0x88, 0x00, 0x00};  // 10001 = k 17
  EXPECT_EQ(error_of(sc::oracle_rice_decode, k17, 1),
            "decompress16: invalid k");
  EXPECT_EQ(error_of(sr::decompress16, k17, 1), "decompress16: invalid k");

  // Whole-stream differential: every payload shape, intact, bit-flipped,
  // cut anywhere and inside the last 8 bytes, extended with 0xFF runs
  // longer than 64 bits, and under hostile counts.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng case_rng(seed);
    const auto result = sc::check_rice_decode_oracle(case_rng);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.detail;
  }
}

TEST(Oracle, RiceEncodeMatchesTheCodec) {
  // The bit-serial encoder writes compress16's bytes, and both match the
  // portable path: a walk, then the rice_roundtrip family (random walks,
  // escapes, constants, alternating extremes at lengths around the block
  // size) over many seeds.
  Rng rng(72);
  std::vector<std::uint16_t> walk(1000);
  std::uint16_t level = 27000;
  for (auto& v : walk) {
    level = static_cast<std::uint16_t>(level + rng.below(201) - 100);
    v = level;
  }
  EXPECT_EQ(sc::oracle_rice_encode(walk), sr::compress16(walk));
  EXPECT_EQ(sc::oracle_rice_encode(walk),
            sr::detail::compress16_rows().back().impl(walk));
  EXPECT_TRUE(sc::oracle_rice_encode({}).empty());
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng case_rng(seed);
    const auto result = sc::check_rice_roundtrip(case_rng);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.detail;
  }
}

TEST(Oracle, Crc32MatchesTheFramer) {
  // The standard check vector, then the framer's crc32 over log-uniform
  // lengths up to 4 KiB, fresh and streamed, across the fold threshold.
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5',
                                        '6', '7', '8', '9'};
  EXPECT_EQ(sc::oracle_crc32(check), 0xCBF43926u);
  EXPECT_EQ(sc::oracle_crc32(std::span(check).subspan(4),
                             sc::oracle_crc32(std::span(check).first(4))),
            0xCBF43926u);
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng case_rng(seed);
    const auto result = sc::check_crc_frame(case_rng);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.detail;
  }
}

// ---------------------------------------------------------------- properties

TEST(Properties, AllSeededChecksPass) {
  Rng rng(51);
  EXPECT_TRUE(sc::check_rice_roundtrip(rng).ok);
  EXPECT_TRUE(sc::check_rice_writer_reuse(rng).ok);
  EXPECT_TRUE(sc::check_rice_corrupt_contract(rng).ok);
  EXPECT_TRUE(sc::check_crc_frame(rng).ok);
  EXPECT_TRUE(sc::check_hamming_contract(rng).ok);
  EXPECT_TRUE(sc::check_serve_workload_roundtrip(rng).ok);
  EXPECT_TRUE(sc::check_serve_determinism(rng).ok);
  EXPECT_TRUE(sc::check_rice_decode_oracle(rng).ok);
}

TEST(Properties, MetamorphicChecksPassOnFaultySeries) {
  sd::NgstSimulator sim(61);
  auto series = sim.sequence(40);
  Rng rng(62);
  const auto mask =
      sf::UncorrelatedFaultModel(0.01).mask16(series.size(), rng);
  sf::apply_mask<std::uint16_t>(series, mask);

  const auto monotone = sc::check_lambda_monotonicity(series, 4, 40.0, 95.0);
  EXPECT_TRUE(monotone.ok) << monotone.detail;

  score::AlgoNgstConfig config;
  config.upsilon = 4;
  config.lambda = 80.0;
  const auto window_c = sc::check_window_c_invariance(series, config);
  EXPECT_TRUE(window_c.ok) << window_c.detail;
  const auto idempotent = sc::check_ngst_idempotence(series, config);
  EXPECT_TRUE(idempotent.ok) << idempotent.detail;
}

// -------------------------------------------------------------------- corpus

TEST(Corpus, SpecRoundTripsThroughJsonl) {
  std::vector<sc::CaseSpec> specs;
  for (std::uint64_t i = 0; i < 21; ++i) {
    specs.push_back(sc::make_fuzz_case(17, i));
  }
  const auto parsed = sc::parse_corpus_jsonl(sc::corpus_to_jsonl(specs));
  EXPECT_EQ(parsed, specs);
}

TEST(Corpus, ParseNamesTheBadLine) {
  EXPECT_THROW((void)sc::parse_corpus_jsonl("{\"family\":\"no_such\"}"),
               std::runtime_error);
  try {
    (void)sc::parse_corpus_jsonl(
        "{\"family\":\"hamming\",\"seed\":1,\"width\":2,\"height\":2,"
        "\"frames\":2,\"lambda\":80,\"upsilon\":4,\"gamma\":0,\"scene\":0}\n"
        "{\"family\":\"hamming\",\"seed\":bogus}\n");
    FAIL() << "malformed line accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Corpus, ShrinkHalvesUntilThePredicateBreaks) {
  sc::CaseSpec spec;
  spec.width = 32;
  spec.height = 32;
  spec.frames = 32;
  const auto shrunk = sc::shrink_case(spec, [](const sc::CaseSpec& s) {
    return s.width >= 8 && s.frames >= 4;
  });
  EXPECT_EQ(shrunk.width, 8u);
  EXPECT_EQ(shrunk.height, 1u);  // unconstrained: halves to the floor
  EXPECT_EQ(shrunk.frames, 4u);
}

// -------------------------------------------------------------- differential

TEST(Differential, FuzzCasesAreStatelesslyReproducible) {
  for (std::uint64_t index = 0; index < 14; ++index) {
    EXPECT_EQ(sc::make_fuzz_case(5, index), sc::make_fuzz_case(5, index));
  }
  EXPECT_NE(sc::make_fuzz_case(5, 0).seed, sc::make_fuzz_case(6, 0).seed);
}

TEST(Differential, ReportLineIsThreadCountIndependent) {
  const auto spec = sc::make_fuzz_case(9, 0);  // index 0 = ngst_diff
  ASSERT_EQ(spec.family, sc::CaseFamily::kNgstDiff);
  sc::RunOptions serial;
  serial.threads = {1};
  sc::RunOptions threaded;
  threaded.threads = {4};
  const auto a = sc::run_case(spec, serial);
  const auto b = sc::run_case(spec, threaded);
  EXPECT_TRUE(a.ok) << a.detail;
  EXPECT_TRUE(b.ok) << b.detail;
  EXPECT_EQ(a.line, b.line);
}

TEST(Differential, InvalidSpecFailsGracefully) {
  sc::CaseSpec bad;
  bad.family = sc::CaseFamily::kNgstDiff;
  bad.upsilon = 3;  // AlgoNgst rejects odd upsilon
  const auto result = sc::run_case(bad);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("exception"), std::string::npos);
  EXPECT_EQ(result.line.rfind("FAIL ", 0), 0u);
}

TEST(Differential, SmallFuzzRunIsCleanAndCounts) {
  sc::RunOptions options;
  options.threads = {1, 2};
  const auto report = sc::run_fuzz(3, 21, options);
  EXPECT_EQ(report.cases, 21u);
  EXPECT_EQ(report.lines.size(), 21u);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front().detail);
}
