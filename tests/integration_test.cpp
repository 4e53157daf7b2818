// Cross-module integration tests: the full ingest path (FITS -> faults ->
// sanity -> preprocessing -> application) for both benchmarks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/fits/sanity.hpp"
#include "spacefts/metrics/error.hpp"
#include "spacefts/ngst/cr_reject.hpp"
#include "spacefts/ngst/readout.hpp"
#include "spacefts/otis/retrieval.hpp"
#include "spacefts/rice/rice.hpp"
#include "spacefts/smoothing/temporal.hpp"

namespace sc = spacefts::core;
namespace sdg = spacefts::datagen;
namespace sf = spacefts::fault;
namespace ff = spacefts::fits;
namespace sm = spacefts::metrics;
using spacefts::common::Rng;

TEST(Integration, FitsTransportSurvivesHeaderDamageWithSanityPass) {
  // A frame travels as FITS; a bit flip lands in the header; the Λ=0 sanity
  // pass repairs it using the node's knowledge of the fragment geometry.
  sdg::NgstSimulator sim(1);
  sdg::SceneParams scene;
  scene.width = 32;
  scene.height = 32;
  const auto frame = sim.base_scene(scene);

  ff::FitsFile file;
  file.hdus().push_back(ff::make_image_hdu(frame));
  // Flip bit 6 of NAXIS1's value (128 -> 192) — a classic §2.2.1 failure.
  file.hdus()[0].header.set_int("NAXIS1", 32 ^ 0x40);

  ff::ImageExpectation expected;
  expected.bitpix = 16;
  expected.width = 32;
  expected.height = 32;
  const auto report = ff::check_and_repair(file.hdus()[0], expected);
  EXPECT_TRUE(report.fully_repaired());

  const auto bytes = file.serialize();
  const auto parsed = ff::FitsFile::parse(bytes);
  EXPECT_EQ(ff::read_image_u16(parsed.hdus()[0]), frame);
}

TEST(Integration, NgstEndToEndPsiChain) {
  // Pristine stack -> corrupt -> Algo_NGST -> Ψ must improve, and the
  // CR-rejected flux product must improve with it.
  Rng rng(2);
  const auto flux = spacefts::ngst::make_flux_scene(16, 16, rng);
  spacefts::ngst::RampParams ramp;
  ramp.frames = 32;
  ramp.cr_probability = 0.05;
  const auto baseline = spacefts::ngst::make_ramp_stack(flux, ramp, rng);

  auto corrupted = baseline.readouts;
  const sf::UncorrelatedFaultModel model(0.005);
  const auto mask = model.mask16(corrupted.cube().size(), rng);
  sf::apply_mask<std::uint16_t>(corrupted.cube().voxels(), mask);

  auto preprocessed = corrupted;
  const sc::AlgoNgst algo;
  const auto report = algo.preprocess(preprocessed);
  EXPECT_GT(report.pixels_corrected, 0u);

  const double psi_raw = sm::average_relative_error<std::uint16_t>(
      baseline.readouts.cube().voxels(), corrupted.cube().voxels());
  const double psi_pre = sm::average_relative_error<std::uint16_t>(
      baseline.readouts.cube().voxels(), preprocessed.cube().voxels());
  EXPECT_LT(psi_pre, psi_raw / 3.0);

  const auto ideal = spacefts::ngst::reject_and_integrate(baseline.readouts);
  const auto from_raw = spacefts::ngst::reject_and_integrate(corrupted);
  const auto from_pre = spacefts::ngst::reject_and_integrate(preprocessed);
  const double out_err_raw = sm::rms_error<float>(ideal.flux.pixels(),
                                                  from_raw.flux.pixels());
  const double out_err_pre = sm::rms_error<float>(ideal.flux.pixels(),
                                                  from_pre.flux.pixels());
  EXPECT_LT(out_err_pre, out_err_raw);
}

TEST(Integration, PreprocessingRecoversRiceCompressionRatio) {
  // §2 claims corruption costs compression ratio; preprocessing must win
  // most of it back.
  sdg::NgstSimulator sim(3);
  Rng rng(4);
  std::vector<std::uint16_t> pristine;
  for (int s = 0; s < 64; ++s) {
    const auto seq = sim.sequence(64, 27000.0, 120.0);
    pristine.insert(pristine.end(), seq.begin(), seq.end());
  }
  const double clean_ratio = spacefts::rice::compression_ratio16(pristine);

  auto corrupted = pristine;
  const sf::UncorrelatedFaultModel model(0.01);
  const auto mask = model.mask16(corrupted.size(), rng);
  sf::apply_mask<std::uint16_t>(corrupted, mask);
  const double dirty_ratio = spacefts::rice::compression_ratio16(corrupted);

  auto repaired = corrupted;
  const sc::AlgoNgst algo;
  for (std::size_t s = 0; s < 64; ++s) {
    (void)algo.preprocess(
        std::span<std::uint16_t>(repaired).subspan(s * 64, 64));
  }
  const double repaired_ratio = spacefts::rice::compression_ratio16(repaired);

  EXPECT_LT(dirty_ratio, clean_ratio);
  EXPECT_GT(repaired_ratio, dirty_ratio);
}

TEST(Integration, OtisRetrievalProtectedByPreprocessing) {
  // Corrupted radiance skews NEM temperatures; Algo_OTIS restores them.
  sdg::OtisSceneGenerator gen(5);
  Rng rng(6);
  const auto scene = gen.generate(sdg::OtisSceneKind::kBlob);
  const auto ideal =
      spacefts::otis::retrieve(scene.radiance, scene.wavelengths_um);

  auto corrupted = scene.radiance;
  const sf::UncorrelatedFaultModel model(0.003);
  const auto mask = model.mask32(corrupted.size(), rng);
  sf::apply_mask_float(corrupted.voxels(), mask);
  const auto dirty =
      spacefts::otis::retrieve(corrupted, scene.wavelengths_um);

  auto preprocessed = corrupted;
  const sc::AlgoOtis algo;
  (void)algo.preprocess(preprocessed, scene.wavelengths_um);
  const auto repaired =
      spacefts::otis::retrieve(preprocessed, scene.wavelengths_um);

  const double t_err_dirty = sm::rms_error<double>(
      ideal.temperature_k.pixels(), dirty.temperature_k.pixels());
  const double t_err_repaired = sm::rms_error<double>(
      ideal.temperature_k.pixels(), repaired.temperature_k.pixels());
  EXPECT_LT(t_err_repaired, t_err_dirty / 5.0);
}

TEST(Integration, MemoryInterleavingHelpsUnderBlockFaults) {
  // §8's closing recommendation targets "correlated block faults occurring
  // in contiguous regions in memory": interleaving neighbouring pixels
  // across memory banks decorrelates them, so temporal voting recovers
  // more.  Verified end to end against the same physical fault pattern.
  sdg::NgstSimulator sim(7);
  sc::AlgoNgstConfig config;
  config.lambda = 100.0;
  const sc::AlgoNgst algo(config);
  // One burst per baseline wiping a 12-bit-wide, 6-row-deep patch: in the
  // contiguous layout that erases the same bits of six *consecutive*
  // readouts, which defeats a 4-neighbour temporal vote.
  const sf::BlockFaultModel model(1, 12, 6, 0.95);
  double psi_contiguous = 0.0, psi_interleaved = 0.0;
  const std::size_t n = 64;
  const auto perm = sf::interleave_permutation(n, 8);
  Rng rng(8);
  for (int trial = 0; trial < 60; ++trial) {
    const auto pristine = sim.sequence(n, 27000.0, 30.0);
    // The same "physical memory" fault mask hits both layouts.  One word
    // per memory line, as in a bank of 16-bit-wide SRAM.
    const auto mask = model.mask16(1, n, rng);

    auto contiguous = pristine;
    sf::apply_mask<std::uint16_t>(contiguous, mask);
    (void)algo.preprocess(contiguous);
    psi_contiguous +=
        sm::average_relative_error<std::uint16_t>(pristine, contiguous);

    auto physical = sf::permute<std::uint16_t>(pristine, perm);
    sf::apply_mask<std::uint16_t>(physical, mask);
    auto logical = sf::unpermute<std::uint16_t>(physical, perm);
    (void)algo.preprocess(logical);
    psi_interleaved +=
        sm::average_relative_error<std::uint16_t>(pristine, logical);
  }
  EXPECT_LT(psi_interleaved, psi_contiguous);
}

TEST(Integration, AlgoNgstBeatsBaselinesUnderCorrelatedFaults) {
  // Fig. 4's qualitative claim, as a guard-rail test.
  sdg::NgstSimulator sim(9);
  Rng rng(10);
  sc::AlgoNgstConfig config;
  config.lambda = 100.0;  // Fig. 4 runs at the optimum Λ for the fault rate
  const sc::AlgoNgst algo(config);
  const sf::CorrelatedFaultModel model(0.05);
  double psi_algo = 0.0, psi_median = 0.0, psi_vote = 0.0;
  for (int trial = 0; trial < 80; ++trial) {
    const auto pristine = sim.sequence(64, 27000.0, 30.0);
    const auto mask = model.mask16(64, 1, rng);
    auto corrupted = pristine;
    sf::apply_mask<std::uint16_t>(corrupted, mask);

    auto a = corrupted;
    (void)algo.preprocess(a);
    psi_algo += sm::average_relative_error<std::uint16_t>(pristine, a);

    auto m = corrupted;
    spacefts::smoothing::median_smooth3(m);
    psi_median += sm::average_relative_error<std::uint16_t>(pristine, m);

    auto v = corrupted;
    spacefts::smoothing::majority_bit_vote3(v);
    psi_vote += sm::average_relative_error<std::uint16_t>(pristine, v);
  }
  EXPECT_LT(psi_algo, psi_median);
  EXPECT_LT(psi_algo, psi_vote);
}
