// Tests for the adaptive sensitivity controller: config validation, the
// pure decision function (goldens for hysteresis, bounded steps, shed
// order, and the feed-forward raise guard), the fold-chain schedule, the
// bank's reordering/admission machinery, and the drifting-Γ₀ harness's
// determinism and acceptance gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "spacefts/campaign/drift.hpp"
#include "spacefts/control/bank.hpp"
#include "spacefts/control/controller.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/serve/request.hpp"

namespace sc = spacefts::control;
namespace ss = spacefts::serve;

namespace {

/// Signals comfortably inside the "raise" region of the default config.
sc::Signals active_signals() {
  sc::Signals s;
  s.activity = 30000.0;
  s.veto_ratio = 0.5;
  s.pressure = 0.3;
  s.load_mpix = 0.001;  // small jobs: every point fits the budget
  return s;
}

}  // namespace

// ------------------------------------------------------------- validation ---

TEST(ControlConfig, DefaultsValidate) {
  EXPECT_NO_THROW(sc::validate_config(sc::ControlConfig{}));
}

TEST(ControlConfig, RejectsDegenerateFields) {
  sc::ControlConfig cfg;
  cfg.window = 0;
  EXPECT_THROW(sc::validate_config(cfg), std::invalid_argument);
}

// ------------------------------------------------- points and cost model ---

TEST(ControlPoints, GridSnapsAndClamps) {
  // 45 + 10·level, capped at 95.
  EXPECT_DOUBLE_EQ(sc::point_at(0, 2, false).lambda, 45.0);
  EXPECT_DOUBLE_EQ(sc::point_at(3, 2, false).lambda, 75.0);
  EXPECT_DOUBLE_EQ(sc::point_at(5, 2, false).lambda, 95.0);
  EXPECT_EQ(sc::point_at(0, 6, true).max_batch, 8u);
  EXPECT_EQ(sc::point_at(0, 6, false).max_batch, 4u);
}

TEST(ControlCost, MonotoneInLambdaAndUpsilon) {
  const std::size_t pixels = 32 * 32 * 8;
  const double base = sc::virtual_cost_ms(pixels, {55.0, 4, 4});
  EXPECT_GT(sc::virtual_cost_ms(pixels, {95.0, 4, 4}), base);
  EXPECT_GT(sc::virtual_cost_ms(pixels, {55.0, 8, 4}), base);
}

TEST(ControlCost, FitBudgetPicksStrongestSustainablePoint) {
  sc::ControlConfig cfg;
  const std::size_t pixels = 32 * 32 * 8;
  // Default budget: the hottest Λ at nominal-ish Υ fits, Υ6 does not.
  const auto point = sc::fit_budget(cfg, pixels);
  EXPECT_LE(sc::virtual_cost_ms(pixels, point),
            0.95 * cfg.deadline_budget_ms);
  EXPECT_DOUBLE_EQ(point.lambda, 95.0);
  // A budget nothing fits falls back to the floor point: precision sheds,
  // requests do not.
  cfg.deadline_budget_ms = 0.1;
  const auto floor = sc::fit_budget(cfg, pixels);
  EXPECT_DOUBLE_EQ(floor.lambda, 45.0);
  EXPECT_EQ(floor.upsilon, 2u);
}

// -------------------------------------------------------------- decide() ---

TEST(ControlDecide, RaisesAreExemptFromTheDwell) {
  const sc::ControlConfig cfg;
  sc::ControllerState state;
  state.signals = active_signals();
  state.level = 0;
  state.upsilon = 4;
  // Consecutive raises: fast attack is the point of the asymmetric dwell.
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kRaise);
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kRaise);
  EXPECT_EQ(state.level, 2);
}

TEST(ControlDecide, RelaxArmsTheDwell) {
  const sc::ControlConfig cfg;  // one-epoch dwell
  sc::ControllerState state;
  state.signals.veto_ratio = 0.95;  // false-alarm storm
  state.signals.activity = 20000.0;
  state.signals.pressure = 0.3;
  state.level = 3;
  state.upsilon = 4;
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kRelax);
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kHold);  // dwelling
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kRelax);
  EXPECT_EQ(state.level, 1);
}

TEST(ControlDecide, BoundedStepsOneLevelPerEpoch) {
  const sc::ControlConfig cfg;
  sc::ControllerState state;
  state.signals = active_signals();
  state.level = 0;
  state.upsilon = 2;
  (void)sc::decide(state, cfg);
  EXPECT_EQ(state.level, 1);      // one grid step, never a jump
  EXPECT_EQ(state.upsilon, 2u);   // Λ raises before Υ
}

TEST(ControlDecide, ShedDropsSurplusVoterWaysBeforeLambda) {
  const sc::ControlConfig cfg;  // nominal Υ is 4
  sc::ControllerState state;
  state.signals.pressure = 1.2;  // overload
  state.level = 3;
  state.upsilon = 8;
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kShedPrecision);
  EXPECT_EQ(state.upsilon, 6u);
  EXPECT_EQ(state.level, 3);  // Λ untouched while surplus Υ remains
  (void)sc::decide(state, cfg);  // dwell
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kShedPrecision);
  EXPECT_EQ(state.upsilon, 4u);
  (void)sc::decide(state, cfg);  // dwell
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kShedPrecision);
  EXPECT_EQ(state.level, 2);  // only now does Λ shed
}

TEST(ControlDecide, RaiseBlockedByProjectedBudget) {
  const sc::ControlConfig cfg;
  sc::ControllerState state;
  state.signals = active_signals();
  state.signals.load_mpix = 32 * 32 * 8 * 1e-6;  // the drift harness job
  state.level = 5;   // λ95
  state.upsilon = 4;
  // λ95/Υ6 would cost 1.03 ms against a 0.95 ms effective budget: the
  // feed-forward guard holds instead of overshooting and shed-cascading.
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kHold);
  EXPECT_EQ(state.upsilon, 4u);
}

TEST(ControlDecide, VetoCapBlocksRaisesOnPseudoActivity) {
  const sc::ControlConfig cfg;
  sc::ControllerState state;
  state.signals = active_signals();
  state.signals.veto_ratio = 0.76;  // just above the 0.75 cap
  state.level = 1;
  EXPECT_EQ(sc::decide(state, cfg), sc::Action::kHold);
}

// ----------------------------------------------- controller fold chain ----

TEST(ControlController, ScheduleCoversLagThenGrowsPerFold) {
  const sc::ControlConfig cfg;
  sc::SensitivityController ctl(cfg, 1);
  EXPECT_EQ(ctl.ready_through(), cfg.lag);
  const auto initial = ctl.point_for(0);
  EXPECT_DOUBLE_EQ(initial.lambda, 75.0);
  EXPECT_DOUBLE_EQ(ctl.point_for(cfg.lag - 1).lambda, 75.0);
  EXPECT_THROW((void)ctl.point_for(cfg.lag), std::out_of_range);
  ctl.fold(sc::Observation{});
  EXPECT_EQ(ctl.ready_through(), cfg.lag + 1);
  EXPECT_NO_THROW((void)ctl.point_for(cfg.lag));
}

TEST(ControlController, DecisionTrajectoryIsAPureFunctionOfObservations) {
  const sc::ControlConfig cfg;
  sc::SensitivityController a(cfg, 3), b(cfg, 3);
  std::vector<sc::Observation> script;
  for (int i = 0; i < 40; ++i) {
    sc::Observation obs;
    obs.pixels = 32 * 32 * 8;
    const bool burst = i >= 16 && i < 32;
    obs.pixels_corrected = burst ? 300 : 15;
    obs.pixels_vetoed = burst ? 350 : 370;
    obs.cost_ms = 0.7;
    script.push_back(obs);
  }
  for (const auto& obs : script) a.fold(obs);
  for (const auto& obs : script) b.fold(obs);
  const auto log_a = sc::decisions_to_jsonl(a.decisions());
  EXPECT_EQ(log_a, sc::decisions_to_jsonl(b.decisions()));
  EXPECT_FALSE(log_a.empty());
  // The burst must have moved the point at least once.
  std::size_t raises = 0;
  for (const auto& d : a.decisions())
    if (d.action == sc::Action::kRaise) ++raises;
  EXPECT_GT(raises, 0u);
}

TEST(ControlController, DefaultTrajectoryIsPinned) {
  // A steady 9000 corrected px/Mpix at a 0.5 veto ratio, on jobs small
  // enough that every point fits the budget.  The activity EWMA (half-life
  // 4 observations) starts under the 3500 relax band, dwells between the
  // bands, and crosses the 8000 raise band at the 13th observation; from
  // the next epoch Λ climbs one grid step per epoch to 95, then Υ to 8.
  const sc::ControlConfig cfg;
  sc::SensitivityController ctl(cfg, 1);
  sc::Observation obs;
  obs.pixels = 1000;
  obs.pixels_corrected = 9;
  obs.pixels_vetoed = 9;
  obs.cost_ms = 0.3;
  for (int i = 0; i < 24; ++i) ctl.fold(obs);
  std::string trajectory;
  for (const auto& d : ctl.decisions()) {
    char step[64];
    std::snprintf(step, sizeof step, "%s %g/%zu/%zu\n",
                  sc::to_string(d.action), d.point.lambda, d.point.upsilon,
                  d.point.max_batch);
    trajectory += step;
  }
  EXPECT_EQ(trajectory,
            "relax 65/4/4\n"
            "hold 65/4/4\n"
            "hold 65/4/4\n"
            "hold 65/4/4\n"
            "hold 65/4/4\n"
            "hold 65/4/4\n"
            "raise 75/4/4\n"
            "raise 85/4/4\n"
            "raise 95/4/4\n"
            "raise 95/6/4\n"
            "raise 95/8/4\n"
            "hold 95/8/4\n");
}

TEST(ControlController, NonCompletedObservationsAdvanceWithoutSteering) {
  const sc::ControlConfig cfg;
  sc::SensitivityController ctl(cfg, 1);
  sc::Observation shed;
  shed.completed = false;
  shed.pixels_corrected = 99999;  // must be ignored
  for (int i = 0; i < 8; ++i) ctl.fold(shed);
  EXPECT_DOUBLE_EQ(ctl.state().signals.activity, 0.0);
  EXPECT_EQ(ctl.state().folds, 8u);
}

// ------------------------------------------------------------------ bank ---

namespace {

ss::Request make_request(std::uint64_t id, std::uint64_t stream) {
  ss::Request req;
  req.id = id;
  req.stream = stream;
  req.job.side = 32;
  req.job.frames = 8;
  return req;
}

ss::RequestResult make_result(std::uint64_t id, std::size_t corrected,
                              std::size_t vetoed) {
  ss::RequestResult result;
  result.id = id;
  result.status = ss::ServeStatus::kOk;
  result.pixels_corrected = corrected;
  result.pixels_vetoed = vetoed;
  return result;
}

}  // namespace

TEST(ControlBank, ReorderedObservationsFoldInStreamSeqOrder) {
  const sc::ControlConfig cfg;  // lag 4: four admits never block
  sc::ControllerBank ooo(cfg), in_order(cfg);
  for (std::uint64_t id = 0; id < 4; ++id) {
    (void)ooo.admit(make_request(id, 1));
    (void)in_order.admit(make_request(id, 1));
  }
  // Completion order scrambled vs submission order.
  for (const std::uint64_t id : {3, 1, 0, 2}) {
    ooo.observe(make_result(id, 100 * (id + 1), 50));
  }
  for (const std::uint64_t id : {0, 1, 2, 3}) {
    in_order.observe(make_result(id, 100 * (id + 1), 50));
  }
  EXPECT_EQ(sc::decisions_to_jsonl(ooo.decisions()),
            sc::decisions_to_jsonl(in_order.decisions()));
  for (std::uint64_t id = 0; id < 4; ++id) {
    const auto got = ooo.point(id);
    const auto want = in_order.point(id);
    EXPECT_EQ(got.lambda, want.lambda) << "id " << id;
    EXPECT_EQ(got.upsilon, want.upsilon) << "id " << id;
    EXPECT_EQ(got.max_batch, want.max_batch) << "id " << id;
  }
}

TEST(ControlBank, DuplicateAndUnknownResultsAreIgnored) {
  const sc::ControlConfig cfg;
  sc::ControllerBank bank(cfg);
  for (std::uint64_t id = 0; id < 2; ++id) {
    (void)bank.admit(make_request(id, 1));
  }
  bank.observe(make_result(0, 10, 10));
  bank.observe(make_result(0, 999, 999));   // duplicate: dropped
  bank.observe(make_result(77, 999, 999));  // never admitted: dropped
  bank.observe(make_result(1, 10, 10));
  sc::ControllerBank reference(cfg);
  for (std::uint64_t id = 0; id < 2; ++id) {
    (void)reference.admit(make_request(id, 1));
    reference.observe(make_result(id, 10, 10));
  }
  EXPECT_EQ(sc::decisions_to_jsonl(bank.decisions()),
            sc::decisions_to_jsonl(reference.decisions()));
}

TEST(ControlBank, StreamZeroSharesOneController) {
  const sc::ControlConfig cfg;
  sc::ControllerBank bank(cfg);
  (void)bank.admit(make_request(0, 0));
  (void)bank.admit(make_request(1, 0));
  (void)bank.admit(make_request(2, 5));
  EXPECT_EQ(bank.stream_count(), 2u);
  EXPECT_THROW((void)bank.point(99), std::out_of_range);
}

// ------------------------------------------------------- drift harness ----

namespace {

spacefts::campaign::DriftConfig small_drift() {
  spacefts::campaign::DriftConfig config;
  config.phases = {{0.0, 12}, {0.006, 12}};
  config.lambda_grid = {55.0};
  config.seed = 7;
  return config;
}

}  // namespace

TEST(ControlDrift, ReportIsIdenticalAcrossWorkerCounts) {
  auto config = small_drift();
  config.workers = 1;
  const auto report1 = spacefts::campaign::run_drift(config);
  config.workers = 4;
  const auto report4 = spacefts::campaign::run_drift(config);
  EXPECT_EQ(spacefts::campaign::to_jsonl(report1),
            spacefts::campaign::to_jsonl(report4));
}

TEST(ControlDrift, ReportSurvivesShardingAndMidLoadKill) {
  auto config = small_drift();
  const auto single = spacefts::campaign::run_drift(config);
  config.shards = 2;
  config.shard_kills = {{1, 6}};  // kill shard 1 after six results
  const auto chaotic = spacefts::campaign::run_drift(config);
  EXPECT_EQ(spacefts::campaign::to_jsonl(single),
            spacefts::campaign::to_jsonl(chaotic));
}

TEST(ControlDrift, EnforceFlagsIncompleteAndBeatenArms) {
  spacefts::campaign::DriftReport report;
  spacefts::campaign::DriftArm adaptive;
  adaptive.name = "adaptive";
  adaptive.adaptive = true;
  adaptive.requests = 4;
  adaptive.completed = 4;
  adaptive.science = 10.0;
  adaptive.virtual_compliance = 0.9;
  spacefts::campaign::DriftArm fixed;
  fixed.name = "lambda=80";
  fixed.requests = 4;
  fixed.completed = 3;            // violation: lost a request
  fixed.science = 20.0;           // violation: beats adaptive on science
  fixed.virtual_compliance = 1.0; // violation: beats it on compliance too
  report.arms = {adaptive, fixed};
  std::string diagnostics;
  EXPECT_EQ(spacefts::campaign::enforce_drift(report, diagnostics), 3u);
  EXPECT_NE(diagnostics.find("lambda=80"), std::string::npos);

  fixed.completed = 4;
  fixed.science = 5.0;
  fixed.virtual_compliance = 0.9;
  report.arms = {adaptive, fixed};
  diagnostics.clear();
  EXPECT_EQ(spacefts::campaign::enforce_drift(report, diagnostics), 0u);
}
