// Tests for the distributed substrate — event simulator, link model, and
// the end-to-end master/worker pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "spacefts/datagen/ngst.hpp"
#include "spacefts/dist/pipeline.hpp"
#include "spacefts/dist/sim.hpp"
#include "spacefts/metrics/error.hpp"
#include "spacefts/ngst/cr_reject.hpp"
#include "spacefts/ngst/readout.hpp"

namespace sd = spacefts::dist;
using spacefts::common::Rng;

// ------------------------------------------------------------------ Simulator

TEST(Simulator, ExecutesInTimeOrder) {
  sd::Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  const double end = sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(end, 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  sd::Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  sd::Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_after(0.5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  sd::Simulator sim;
  sim.schedule(2.0, [&] {
    EXPECT_THROW((void)sim.schedule(1.0, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(LinkModel, TransferTimeIsLatencyPlusSerialisation) {
  const sd::LinkModel link{1e-3, 1e6};  // 1 ms, 1 Mbit/s
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 1e-3);
  // 1250 bytes = 10^4 bits = 10 ms on the wire.
  EXPECT_DOUBLE_EQ(link.transfer_time(1250), 1e-3 + 1e-2);
}

// ------------------------------------------------------------------- pipeline

namespace {

spacefts::ngst::RampStack small_baseline(std::uint64_t seed,
                                         double cr_probability = 0.05) {
  Rng rng(seed);
  const auto flux = spacefts::ngst::make_flux_scene(32, 32, rng);
  spacefts::ngst::RampParams params;
  params.frames = 24;
  params.cr_probability = cr_probability;
  return spacefts::ngst::make_ramp_stack(flux, params, rng);
}

sd::PipelineConfig small_config() {
  sd::PipelineConfig config;
  config.workers = 4;
  config.fragment_side = 16;
  return config;
}

}  // namespace

TEST(Pipeline, ValidatesArguments) {
  Rng rng(1);
  const auto baseline = small_baseline(2);
  auto config = small_config();
  config.workers = 0;
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);
  config = small_config();
  config.fragment_side = 10;  // 32 % 10 != 0
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);
}

TEST(Pipeline, FaultFreeRunMatchesDirectIntegration) {
  Rng rng(3);
  const auto baseline = small_baseline(4);
  auto config = small_config();
  config.gamma0 = 0.0;
  config.preprocess = sd::PreprocessMode::kNone;
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  const auto direct = spacefts::ngst::reject_and_integrate(baseline.readouts);
  EXPECT_EQ(result.flux, direct.flux);
  EXPECT_EQ(result.fragments, 4u);
  EXPECT_EQ(result.faults_injected, 0u);
}

TEST(Pipeline, MakespanAndBusyAccountingArePlausible) {
  Rng rng(5);
  const auto baseline = small_baseline(6);
  const auto config = small_config();
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_GT(result.makespan_s, 0.0);
  ASSERT_EQ(result.worker_busy_s.size(), config.workers);
  double total_busy = 0.0;
  for (double b : result.worker_busy_s) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, result.makespan_s + 1e-9);
    total_busy += b;
  }
  EXPECT_GT(total_busy, 0.0);
  EXPECT_GT(result.compression_ratio, 0.5);
}

TEST(Pipeline, PreprocessingCostsSimulatedTime) {
  Rng rng1(7), rng2(7);
  const auto baseline = small_baseline(8);
  auto with = small_config();
  with.preprocess = sd::PreprocessMode::kAlgoNgst;
  auto without = small_config();
  without.preprocess = sd::PreprocessMode::kNone;
  const auto r_with = sd::run_pipeline(baseline.readouts, with, rng1);
  const auto r_without = sd::run_pipeline(baseline.readouts, without, rng2);
  EXPECT_GT(r_with.makespan_s, r_without.makespan_s);
}

TEST(Pipeline, DeterministicPerSeed) {
  const auto baseline = small_baseline(9);
  auto config = small_config();
  config.gamma0 = 0.01;
  Rng a(10), b(10);
  const auto ra = sd::run_pipeline(baseline.readouts, config, a);
  const auto rb = sd::run_pipeline(baseline.readouts, config, b);
  EXPECT_EQ(ra.flux, rb.flux);
  EXPECT_EQ(ra.faults_injected, rb.faults_injected);
}

TEST(Pipeline, PreprocessingProtectsTheOutputUnderFaults) {
  // The paper's end-to-end claim: with bit flips in worker memory, the
  // preprocessed pipeline lands closer to the fault-free product.
  const auto baseline = small_baseline(11);
  auto clean_config = small_config();
  clean_config.preprocess = sd::PreprocessMode::kNone;
  Rng clean_rng(12);
  const auto reference =
      sd::run_pipeline(baseline.readouts, clean_config, clean_rng);

  // Dense enough corruption that the CR rejector's own outlier filtering is
  // overwhelmed without help (sparse flips it largely absorbs by itself).
  auto faulty = small_config();
  faulty.gamma0 = 0.02;
  faulty.preprocess = sd::PreprocessMode::kNone;
  Rng rng_a(13);
  const auto raw = sd::run_pipeline(baseline.readouts, faulty, rng_a);

  faulty.preprocess = sd::PreprocessMode::kAlgoNgst;
  Rng rng_b(13);  // identical fault pattern
  const auto protected_run = sd::run_pipeline(baseline.readouts, faulty, rng_b);

  const double err_raw = spacefts::metrics::rms_error<float>(
      reference.flux.pixels(), raw.flux.pixels());
  const double err_protected = spacefts::metrics::rms_error<float>(
      reference.flux.pixels(), protected_run.flux.pixels());
  EXPECT_LT(err_protected, err_raw / 2.0);
  EXPECT_GT(protected_run.pixels_corrected, 0u);
  EXPECT_GT(protected_run.faults_injected, 0u);
}

TEST(Pipeline, WorkerCrashesAreReassignedWithoutDataLoss) {
  // The ALFT process-fault model: crashed fragments are re-dispatched by
  // timeout.  The science product must be byte-identical to the crash-free
  // run (the fault streams are decoupled from the crash stream), only the
  // timeline stretches.
  const auto baseline = small_baseline(20);
  auto config = small_config();
  config.gamma0 = 0.01;

  Rng calm_rng(21);
  const auto calm = sd::run_pipeline(baseline.readouts, config, calm_rng);
  EXPECT_EQ(calm.worker_crashes, 0u);

  config.worker_crash_prob = 0.4;
  Rng stormy_rng(21);
  const auto stormy = sd::run_pipeline(baseline.readouts, config, stormy_rng);
  EXPECT_GT(stormy.worker_crashes, 0u);
  EXPECT_EQ(stormy.reassignments, stormy.worker_crashes);
  EXPECT_EQ(stormy.flux, calm.flux);
  EXPECT_EQ(stormy.faults_injected, calm.faults_injected);
  EXPECT_GT(stormy.makespan_s, calm.makespan_s);
}

TEST(Pipeline, CrashStormStillCompletes) {
  // Even a pathological crash probability must terminate (the final
  // attempt is forced through).
  const auto baseline = small_baseline(22);
  auto config = small_config();
  config.preprocess = sd::PreprocessMode::kNone;
  config.worker_crash_prob = 0.95;
  Rng rng(23);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_EQ(result.fragments, 4u);
  EXPECT_GT(result.worker_crashes, result.fragments);
  // Every tile of the flux image was pasted (no zero-filled holes where a
  // star should be: compare against the direct integration).
  const auto direct = spacefts::ngst::reject_and_integrate(baseline.readouts);
  EXPECT_EQ(result.flux, direct.flux);
}

TEST(Pipeline, ModeNamesAreStable) {
  EXPECT_STREQ(sd::to_string(sd::PreprocessMode::kNone), "none");
  EXPECT_STREQ(sd::to_string(sd::PreprocessMode::kAlgoNgst), "Algo_NGST");
  EXPECT_STREQ(sd::to_string(sd::PreprocessMode::kMedian3), "median-3");
  EXPECT_STREQ(sd::to_string(sd::PreprocessMode::kBitVote3), "bitvote-3");
}

TEST(Pipeline, OutcomeNamesAreStable) {
  EXPECT_STREQ(sd::to_string(sd::FragmentOutcome::kHealthy), "healthy");
  EXPECT_STREQ(sd::to_string(sd::FragmentOutcome::kDegradedCorrupt),
               "degraded-corrupt");
  EXPECT_STREQ(sd::to_string(sd::FragmentOutcome::kDegradedFilled),
               "degraded-filled");
}

TEST(Pipeline, ValidatesProbabilitiesAndTimeouts) {
  Rng rng(30);
  const auto baseline = small_baseline(31);
  auto config = small_config();

  config.gamma0 = -0.1;
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);
  config.gamma0 = 1.5;
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);

  config = small_config();
  config.worker_crash_prob = -0.2;
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);
  config.worker_crash_prob = 1.01;
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);

  config = small_config();
  config.link.faults.drop_prob = 1.2;
  EXPECT_THROW((void)sd::run_pipeline(baseline.readouts, config, rng),
               std::invalid_argument);

  // Boundary values are legal.
  config = small_config();
  config.gamma0 = 0.0;
  config.worker_crash_prob = 0.0;
  EXPECT_NO_THROW((void)sd::run_pipeline(baseline.readouts, config, rng));
}

TEST(Pipeline, FaultAccountingIsConsistentAcrossModes) {
  // Identical seeds must inject identical faults and crashes whatever the
  // preprocessing mode: the fault and crash streams are decoupled from the
  // (mode-dependent) data path.  In particular the kNone path must populate
  // the counters, not skip the accounting.
  const auto baseline = small_baseline(32);
  auto config = small_config();
  config.gamma0 = 0.01;
  config.worker_crash_prob = 0.3;
  config.link.faults.drop_prob = 0.05;
  config.link.faults.corrupt_prob = 0.05;

  std::vector<sd::PipelineResult> results;
  for (const auto mode :
       {sd::PreprocessMode::kNone, sd::PreprocessMode::kAlgoNgst,
        sd::PreprocessMode::kMedian3, sd::PreprocessMode::kBitVote3}) {
    config.preprocess = mode;
    Rng rng(33);
    results.push_back(sd::run_pipeline(baseline.readouts, config, rng));
  }
  EXPECT_GT(results[0].faults_injected, 0u);  // kNone populates the counter
  for (std::size_t m = 1; m < results.size(); ++m) {
    EXPECT_EQ(results[m].faults_injected, results[0].faults_injected)
        << sd::to_string(config.preprocess);
    EXPECT_EQ(results[m].worker_crashes, results[0].worker_crashes);
    EXPECT_EQ(results[m].messages_dropped, results[0].messages_dropped);
    EXPECT_EQ(results[m].messages_corrupted, results[0].messages_corrupted);
  }
}

// ----------------------------------------------------------- link tolerance

TEST(Pipeline, PerfectLinkReportsFullCoverage) {
  Rng rng(40);
  const auto baseline = small_baseline(41);
  const auto result = sd::run_pipeline(baseline.readouts, small_config(), rng);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_EQ(result.degraded_fragments, 0u);
  EXPECT_EQ(result.messages_dropped, 0u);
  EXPECT_EQ(result.crc_failures, 0u);
  ASSERT_EQ(result.fragment_outcomes.size(), result.fragments);
  for (const auto outcome : result.fragment_outcomes) {
    EXPECT_EQ(outcome, sd::FragmentOutcome::kHealthy);
  }
}

TEST(Pipeline, LossyLinkWithRetriesTerminatesAndReportsCoverage) {
  const auto baseline = small_baseline(42);
  auto config = small_config();
  config.link.faults.drop_prob = 0.2;
  config.link.faults.corrupt_prob = 0.1;
  config.link.faults.delay_prob = 0.2;
  config.link.faults.duplicate_prob = 0.1;
  config.max_link_retries = 8;
  Rng rng(43);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_EQ(result.fragments, 4u);
  EXPECT_GT(result.messages_dropped + result.messages_corrupted, 0u);
  EXPECT_GT(result.link_retries, 0u);
  EXPECT_GE(result.coverage, 0.0);
  EXPECT_LE(result.coverage, 1.0);
  ASSERT_EQ(result.fragment_outcomes.size(), result.fragments);
}

TEST(Pipeline, RetryScheduleIsPinned) {
  // One seeded lossy flight: the literals pin the link-retry backoff law
  // (first delay, doubling, seeded jitter) through the virtual clock.
  const auto baseline = small_baseline(42);
  auto config = small_config();
  config.link.faults.drop_prob = 0.5;
  config.link.faults.corrupt_prob = 0.1;
  config.max_link_retries = 8;
  Rng rng(47);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_EQ(result.link_retries, 16u);
  EXPECT_EQ(result.messages_dropped, 14u);
  EXPECT_DOUBLE_EQ(result.makespan_s, 0.84157647752424958);
}

TEST(Pipeline, LossyLinkIsDeterministicPerSeed) {
  const auto baseline = small_baseline(44);
  auto config = small_config();
  config.link.faults.drop_prob = 0.15;
  config.link.faults.corrupt_prob = 0.15;
  config.gamma0 = 0.005;
  Rng a(45), b(45);
  const auto ra = sd::run_pipeline(baseline.readouts, config, a);
  const auto rb = sd::run_pipeline(baseline.readouts, config, b);
  EXPECT_EQ(ra.flux, rb.flux);
  EXPECT_EQ(ra.coverage, rb.coverage);
  EXPECT_EQ(ra.link_retries, rb.link_retries);
  EXPECT_EQ(ra.fragment_outcomes, rb.fragment_outcomes);
}

TEST(Pipeline, RetriesDisabledDegradesInsteadOfHanging) {
  const auto baseline = small_baseline(46);
  auto config = small_config();
  config.link.faults.drop_prob = 0.5;
  config.max_link_retries = 0;
  Rng rng(47);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_GT(result.degraded_fragments, 0u);
  EXPECT_LT(result.coverage, 1.0);
  EXPECT_EQ(result.link_retries, 0u);
  std::size_t flagged = 0;
  for (const auto outcome : result.fragment_outcomes) {
    flagged += outcome != sd::FragmentOutcome::kHealthy ? 1 : 0;
  }
  EXPECT_EQ(flagged, result.degraded_fragments);
  // The product is complete: every pixel exists and is finite (degraded
  // tiles were filled, not left as holes or NaNs).
  for (const float v : result.flux.pixels()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Pipeline, EveryLinkCorruptionIsCaughtByCrc) {
  // Corruption-only link (no drops): each corrupted message must surface as
  // exactly one CRC failure — nothing slips through to the science product.
  const auto baseline = small_baseline(48);
  auto config = small_config();
  config.link.faults.corrupt_prob = 0.3;
  config.max_link_retries = 32;
  Rng rng(49);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_GT(result.messages_corrupted, 0u);
  EXPECT_EQ(result.crc_failures, result.messages_corrupted);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);  // generous budget recovers all
}

TEST(Pipeline, ByzantineResultsAreRejected) {
  // Tight flux bounds make legitimate tiles implausible, so the screen
  // fires; the bounded budget then finishes the product degraded.
  const auto baseline = small_baseline(50);
  auto config = small_config();
  config.result_flux_lo = -1e-3f;
  config.result_flux_hi = 1e-3f;  // far below any real ramp slope
  config.max_link_retries = 1;
  Rng rng(51);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_GT(result.byzantine_rejected, 0u);
  EXPECT_EQ(result.degraded_fragments, result.fragments);
  EXPECT_DOUBLE_EQ(result.coverage, 0.0);
}

TEST(Pipeline, CrashAndLinkFaultsComposeAndTerminate) {
  const auto baseline = small_baseline(52);
  auto config = small_config();
  config.worker_crash_prob = 0.4;
  config.link.faults.drop_prob = 0.3;
  config.link.faults.corrupt_prob = 0.3;
  config.gamma0 = 0.01;
  config.max_link_retries = 6;
  Rng rng(53);
  const auto result = sd::run_pipeline(baseline.readouts, config, rng);
  EXPECT_GT(result.worker_crashes, 0u);
  // Few fragments means few link draws — assert on the combined fault
  // activity rather than any single channel.
  EXPECT_GT(result.messages_dropped + result.messages_corrupted +
                result.crc_failures,
            0u);
  EXPECT_GE(result.coverage, 0.0);
  ASSERT_EQ(result.fragment_outcomes.size(), result.fragments);
}
