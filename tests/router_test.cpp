// Tests for the sharded serving tier: health policy decisions, seeded
// shard fault plans, consistent-hash routing, replay backoff goldens, and
// the router's exactly-once contract across spills, kills, ejection,
// probation re-admission, and drain-during-replay.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "spacefts/common/backoff.hpp"
#include "spacefts/fault/shard_faults.hpp"
#include "spacefts/serve/health.hpp"
#include "spacefts/serve/request.hpp"
#include "spacefts/serve/router.hpp"

namespace ss = spacefts::serve;
namespace sc = spacefts::common;
namespace sf = spacefts::fault;

namespace {

/// A small, fast NGST job (≈1 ms of compute), optionally stream-keyed.
ss::Request small_ngst(std::uint64_t id, std::uint64_t stream = 0) {
  ss::Request req;
  req.id = id;
  req.stream = stream;
  req.job.kind = ss::JobKind::kNgst;
  req.job.side = 16;
  req.job.frames = 4;
  req.job.seed = 1000 + id;
  return req;
}

/// Manual-mode router config: no control thread, the test pumps.  The
/// heartbeat timeout is effectively disabled because wall-clock gaps
/// between pump() calls are scheduling noise, not shard stalls.
ss::RouterConfig manual_config(std::size_t shards) {
  ss::RouterConfig rc;
  rc.shards = shards;
  rc.shard.workers = 0;
  rc.shard.capacity = 64;
  rc.shard.max_batch = 4;
  rc.health.heartbeat_timeout_ms = 1e9;
  rc.health.congestion_timeout_ms = 0.0;  // disabled
  return rc;
}

/// Pumps until every pending request has resolved, sleeping through replay
/// backoff windows.  Fails the test instead of hanging if the router stops
/// making progress.
void pump_to_completion(ss::Router& router) {
  int idle_spins = 0;
  while (router.pending() > 0) {
    if (router.pump() > 0) {
      idle_spins = 0;
      continue;
    }
    ASSERT_LT(++idle_spins, 20'000) << "router stopped making progress";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// The deterministic payload of one result (everything the exactly-once
/// CI `cmp` covers).
using Payload = std::tuple<ss::ServeStatus, std::uint32_t, std::size_t,
                           std::size_t, double>;

std::map<std::uint64_t, Payload> payload_map(
    const std::vector<ss::RequestResult>& results) {
  std::map<std::uint64_t, Payload> map;
  for (const auto& r : results)
    map.emplace(r.id, Payload{r.status, r.checksum, r.pixels_corrected,
                              r.bits_corrected, r.coverage});
  return map;
}

}  // namespace

// --------------------------------------------------------- health policy ---

TEST(Health, HealthyVitalsAreNotEjected) {
  const ss::HealthPolicy policy;
  ss::ShardVitals vitals;
  vitals.heartbeat_age_ms = 10.0;
  vitals.has_work = true;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kNone);
}

TEST(Health, StaleHeartbeatEjectsOnlyUnderLoad) {
  const ss::HealthPolicy policy;
  ss::ShardVitals vitals;
  vitals.heartbeat_age_ms = policy.heartbeat_timeout_ms + 1.0;
  vitals.has_work = false;  // idle shards have nothing to beat about
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kNone);
  vitals.has_work = true;
  EXPECT_EQ(ss::should_eject(policy, vitals),
            ss::EjectReason::kStaleHeartbeat);
}

TEST(Health, ThresholdBoundariesAreExact) {
  const ss::HealthPolicy policy;
  ss::ShardVitals vitals;
  vitals.has_work = true;
  // Heartbeat age exactly at the timeout is still inside the envelope —
  // ejection requires strictly exceeding it.
  vitals.heartbeat_age_ms = policy.heartbeat_timeout_ms;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kNone);
  vitals.heartbeat_age_ms =
      std::nextafter(policy.heartbeat_timeout_ms, 1e12);
  EXPECT_EQ(ss::should_eject(policy, vitals),
            ss::EjectReason::kStaleHeartbeat);
  vitals.heartbeat_age_ms = 0.0;

  // The failure count is inclusive: max_consecutive_failures is the first
  // ejecting value, one less is still tolerated.
  vitals.consecutive_failures = policy.max_consecutive_failures - 1;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kNone);
  vitals.consecutive_failures = policy.max_consecutive_failures;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kFailureBurst);
  vitals.consecutive_failures = 0;

  // Congestion mirrors the heartbeat edge: exactly-at-window is healthy.
  vitals.congested_ms = policy.congestion_timeout_ms;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kNone);
  vitals.congested_ms = std::nextafter(policy.congestion_timeout_ms, 1e12);
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kCongestion);
}

TEST(Health, FailureBurstAndCongestionEject) {
  const ss::HealthPolicy policy;
  ss::ShardVitals vitals;
  vitals.consecutive_failures = policy.max_consecutive_failures;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kFailureBurst);

  vitals.consecutive_failures = 0;
  vitals.congested_ms = policy.congestion_timeout_ms + 1.0;
  EXPECT_EQ(ss::should_eject(policy, vitals), ss::EjectReason::kCongestion);

  // congestion_timeout_ms == 0 disables the congestion check entirely.
  ss::HealthPolicy lenient = policy;
  lenient.congestion_timeout_ms = 0.0;
  EXPECT_EQ(ss::should_eject(lenient, vitals), ss::EjectReason::kNone);
}

TEST(Health, ChecksApplyInDocumentedOrder) {
  const ss::HealthPolicy policy;
  ss::ShardVitals vitals;  // violate everything at once
  vitals.heartbeat_age_ms = policy.heartbeat_timeout_ms * 2;
  vitals.has_work = true;
  vitals.consecutive_failures = policy.max_consecutive_failures + 1;
  vitals.congested_ms = policy.congestion_timeout_ms * 2;
  EXPECT_EQ(ss::should_eject(policy, vitals),
            ss::EjectReason::kStaleHeartbeat);
}

TEST(Health, PolicyValidationRejectsDegenerateThresholds) {
  ss::HealthPolicy policy;
  policy.heartbeat_timeout_ms = 0.0;
  EXPECT_THROW(ss::validate_policy(policy), std::invalid_argument);
  policy = {};
  policy.max_consecutive_failures = 0;
  EXPECT_THROW(ss::validate_policy(policy), std::invalid_argument);
  policy = {};
  policy.probation_ms = -1.0;
  EXPECT_THROW(ss::validate_policy(policy), std::invalid_argument);
  policy = {};
  policy.probation_successes = 0;
  EXPECT_THROW(ss::validate_policy(policy), std::invalid_argument);
  EXPECT_NO_THROW(ss::validate_policy(ss::HealthPolicy{}));
}

// ------------------------------------------------------ shard fault model ---

TEST(ShardFaults, PlansAreDeterministicAndTriggersInRange) {
  sf::ShardFaultConfig config;
  config.crash_prob = 0.3;
  config.stall_prob = 0.3;
  config.slow_prob = 0.3;
  config.trigger_lo = 5;
  config.trigger_hi = 9;
  const sf::ShardFaultModel model(config);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
      const auto a = model.plan(shard, epoch);
      const auto b = model.plan(shard, epoch);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.after_completed, b.after_completed);
      if (a.kind != sf::ShardFaultKind::kNone) {
        EXPECT_GE(a.after_completed, config.trigger_lo);
        EXPECT_LE(a.after_completed, config.trigger_hi);
      }
    }
  }
}

TEST(ShardFaults, PerfectFleetNeverFaults) {
  const sf::ShardFaultModel model(sf::ShardFaultConfig{});
  for (std::size_t shard = 0; shard < 8; ++shard)
    EXPECT_EQ(model.plan(shard, 0).kind, sf::ShardFaultKind::kNone);
}

TEST(ShardFaults, ConfigValidationRejectsBadKnobs) {
  sf::ShardFaultConfig config;
  config.crash_prob = 0.7;
  config.stall_prob = 0.7;  // sums past 1
  EXPECT_THROW(sf::ShardFaultModel{config}, std::invalid_argument);
  config = {};
  config.crash_prob = -0.1;
  EXPECT_THROW(sf::ShardFaultModel{config}, std::invalid_argument);
  config = {};
  config.stall_ms = -5.0;
  EXPECT_THROW(sf::ShardFaultModel{config}, std::invalid_argument);
  config = {};
  config.trigger_lo = 10;
  config.trigger_hi = 4;
  EXPECT_THROW(sf::ShardFaultModel{config}, std::invalid_argument);
}

// ---------------------------------------------------------- replay backoff ---

TEST(ReplayBackoff, GoldenValuesNeverDrift) {
  // Default RouterConfig (base 1 ms, factor 2, jitter 0.25, seed
  // 0x70c7e12): the jitter stream is derive_stream_seed-based, so these
  // literals pin the whole derivation chain.
  const ss::RouterConfig config;
  EXPECT_DOUBLE_EQ(ss::replay_backoff_ms(config, 7, 1), 0.93075243750704439);
  EXPECT_DOUBLE_EQ(ss::replay_backoff_ms(config, 7, 2), 1.8459888670426767);
  EXPECT_DOUBLE_EQ(ss::replay_backoff_ms(config, 7, 3), 4.8360399722127463);
  EXPECT_DOUBLE_EQ(ss::replay_backoff_ms(config, 8, 1), 1.1230572190350554);
  EXPECT_DOUBLE_EQ(ss::replay_backoff_ms(config, 42, 2), 1.9150512635060948);
}

TEST(ReplayBackoff, JitterIsBoundedAndSeeded) {
  const ss::RouterConfig config;
  for (std::uint64_t id = 1; id <= 32; ++id) {
    for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
      // 1 ms first replay delay, doubling per attempt.
      const double base = std::pow(sc::kBackoffFactor, attempt - 1);
      const double delay = ss::replay_backoff_ms(config, id, attempt);
      EXPECT_GE(delay, base * (1.0 - sc::kBackoffJitter));
      EXPECT_LE(delay, base * (1.0 + sc::kBackoffJitter));
      EXPECT_DOUBLE_EQ(delay, ss::replay_backoff_ms(config, id, attempt));
    }
  }
}

// --------------------------------------------------------- config + ring ---

TEST(Router, ConfigValidationRejectsBadKnobs) {
  auto make = [](auto mutate) {
    ss::RouterConfig rc;
    rc.shard.workers = 0;
    mutate(rc);
    ss::Router router(rc);
  };
  EXPECT_THROW(make([](ss::RouterConfig& rc) { rc.shards = 0; }),
               std::invalid_argument);
  EXPECT_THROW(
      make([](ss::RouterConfig& rc) { rc.health.heartbeat_timeout_ms = 0; }),
      std::invalid_argument);
  EXPECT_NO_THROW(make([](ss::RouterConfig&) {}));
}

TEST(Router, RingIsDeterministicAndCoversEveryShard) {
  const auto rc = manual_config(8);
  ss::Router a(rc);
  ss::Router b(rc);
  std::set<std::uint32_t> hit;
  for (std::uint64_t key = 1; key <= 400; ++key) {
    const auto shard = a.shard_of(key);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, a.shard_of(key));     // stable within an instance
    EXPECT_EQ(shard, b.shard_of(key));     // pure function of the config
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 8u);  // 32 vnodes/shard: 400 keys reach everyone
  // The ring geometry is part of the replay contract: committed serve
  // results and kill payloads depend on where each stream lands.
  std::vector<std::uint32_t> placement;
  for (std::uint64_t key = 1; key <= 12; ++key) {
    placement.push_back(a.shard_of(key));
  }
  EXPECT_EQ(placement, (std::vector<std::uint32_t>{0, 1, 1, 7, 3, 5, 1, 7, 6,
                                                   5, 1, 2}));
}

// ----------------------------------------------------- exactly-once paths ---

TEST(Router, KillMidLoadResolvesEveryRequestExactlyOnceBytewise) {
  constexpr std::size_t kRequests = 48;

  // Reference run: one healthy shard.
  std::vector<ss::RequestResult> reference;
  {
    ss::Router router(manual_config(1));
    for (std::uint64_t i = 1; i <= kRequests; ++i)
      ASSERT_EQ(router.submit(small_ngst(i, 1 + (i % 8))),
                ss::ServeStatus::kOk);
    pump_to_completion(router);
    router.drain();
    reference = router.take_results();
  }
  ASSERT_EQ(reference.size(), kRequests);

  // Chaos run: four shards, one killed with work queued and in flight.
  ss::Router router(manual_config(4));
  for (std::uint64_t i = 1; i <= kRequests; ++i)
    ASSERT_EQ(router.submit(small_ngst(i, 1 + (i % 8))),
              ss::ServeStatus::kOk);
  std::size_t retired = 0;
  while (retired < 10) retired += router.pump();
  router.kill_shard(2);
  pump_to_completion(router);
  router.drain();
  const auto results = router.take_results();

  ASSERT_EQ(results.size(), kRequests);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate result id " << r.id;
    EXPECT_EQ(r.status, ss::ServeStatus::kOk);
  }
  EXPECT_EQ(payload_map(results), payload_map(reference));

  const auto stats = router.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.ejections, 1u);
  EXPECT_EQ(stats.kills, 1u);
}

TEST(Router, KillRemapsOnlyTheDeadShardsKeys) {
  ss::Router router(manual_config(4));
  // Two stream keys per shard, discovered through the public ring lookup.
  std::vector<std::vector<std::uint64_t>> keys(4);
  for (std::uint64_t key = 1;; ++key) {
    auto& bucket = keys[router.shard_of(key)];
    if (bucket.size() < 2) bucket.push_back(key);
    bool full = true;
    for (const auto& b : keys) full = full && b.size() == 2;
    if (full) break;
  }

  router.kill_shard(3);
  std::map<std::uint64_t, std::uint64_t> stream_of;  // id -> stream key
  std::uint64_t id = 0;
  for (const auto& bucket : keys) {
    for (const auto key : bucket) {
      ++id;
      stream_of[id] = key;
      ASSERT_EQ(router.submit(small_ngst(id, key)), ss::ServeStatus::kOk);
    }
  }
  pump_to_completion(router);
  router.drain();

  for (const auto& r : router.take_results()) {
    const auto owner = router.shard_of(stream_of.at(r.id));
    EXPECT_EQ(r.status, ss::ServeStatus::kOk);
    if (owner != 3)
      EXPECT_EQ(r.shard, owner);  // live shards keep their keys
    else
      EXPECT_NE(r.shard, 3u);  // only the dead shard's keys remap
  }
}

TEST(Router, SpillsOnceToLeastLoadedThenSheds) {
  auto rc = manual_config(2);
  rc.shard.capacity = 1;
  rc.shard.max_batch = 1;
  ss::Router router(rc);
  std::uint64_t key = 1;
  while (router.shard_of(key) != 0) ++key;  // pin the home shard

  EXPECT_EQ(router.submit(small_ngst(1, key)), ss::ServeStatus::kOk);
  // Home shard full: the router spills to the other shard, once.
  EXPECT_EQ(router.submit(small_ngst(2, key)), ss::ServeStatus::kOk);
  // Both full: the spill hop is exhausted and the request sheds.
  EXPECT_EQ(router.submit(small_ngst(3, key)), ss::ServeStatus::kShed);

  pump_to_completion(router);
  router.drain();
  const auto results = router.take_results();
  ASSERT_EQ(results.size(), 3u);
  std::size_t ok = 0, shed = 0;
  for (const auto& r : results) {
    if (r.status == ss::ServeStatus::kOk) ++ok;
    if (r.status == ss::ServeStatus::kShed) ++shed;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 1u);
  const auto stats = router.stats();
  EXPECT_GE(stats.spills, 1u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST(Router, DuplicatePendingIdThrows) {
  ss::Router router(manual_config(2));
  ASSERT_EQ(router.submit(small_ngst(7)), ss::ServeStatus::kOk);
  EXPECT_THROW(router.submit(small_ngst(7)), std::invalid_argument);
  pump_to_completion(router);
  // Once resolved, the id is free again (unique while live, like Server).
  EXPECT_EQ(router.submit(small_ngst(7)), ss::ServeStatus::kOk);
  pump_to_completion(router);
}

TEST(Router, SubmitAfterDrainRecordsShutdown) {
  ss::Router router(manual_config(2));
  router.drain();
  EXPECT_EQ(router.submit(small_ngst(1)), ss::ServeStatus::kShutdown);
  const auto results = router.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_EQ(results[0].status, ss::ServeStatus::kShutdown);
}

TEST(Router, DrainDuringEjectionNeverLosesARequest) {
  ss::Router router(manual_config(2));
  std::uint64_t dead_key = 1, live_key = 1;
  while (router.shard_of(dead_key) != 0) ++dead_key;
  while (router.shard_of(live_key) != 1) ++live_key;
  for (std::uint64_t i = 1; i <= 8; ++i)
    ASSERT_EQ(router.submit(small_ngst(i, i % 2 ? dead_key : live_key)),
              ss::ServeStatus::kOk);
  (void)router.pump();
  // Kill shard 0 (replays now wait out their backoff) and drain before
  // any replay can dispatch: the drain must shed them, not hang.
  router.kill_shard(0);
  router.drain();
  const auto results = router.take_results();
  ASSERT_EQ(results.size(), 8u);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate result id " << r.id;
    EXPECT_TRUE(r.status == ss::ServeStatus::kOk ||
                r.status == ss::ServeStatus::kShed)
        << "unexpected status " << ss::to_string(r.status);
  }
}

TEST(Router, ScheduleKillValidatesTheShardIndex) {
  ss::Router router(manual_config(2));
  EXPECT_THROW(router.schedule_kill(2, 0), std::invalid_argument);
  EXPECT_NO_THROW(router.schedule_kill(1, 1'000'000));
  router.drain();
}

// ------------------------------------------------- threaded-mode lifecycle ---

TEST(Router, ScheduledKillEjectsThenShardEarnsReadmission) {
  ss::RouterConfig rc;
  rc.shards = 2;
  rc.shard.workers = 1;
  rc.shard.capacity = 128;
  rc.shard.max_batch = 4;
  rc.health.probation_ms = 20.0;
  rc.health.probation_successes = 2;
  ss::Router router(rc);
  router.schedule_kill(0, 6);

  for (std::uint64_t i = 1; i <= 40; ++i)
    (void)router.submit(small_ngst(i, 1 + (i % 8)));
  router.wait_idle();

  auto stats = router.stats();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_GE(stats.ejections, 1u);

  // Wait out probation, then feed the rebooted shard its own keys until it
  // earns the probation_successes completions that promote it.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::uint64_t key = 1;
  while (router.shard_of(key) != 0) ++key;
  for (std::uint64_t i = 41; i <= 50; ++i)
    (void)router.submit(small_ngst(i, key));
  router.wait_idle();
  router.drain();

  stats = router.stats();
  EXPECT_GE(stats.readmissions, 1u);
  EXPECT_EQ(router.shard(0).state, ss::ShardState::kHealthy);

  const auto results = router.take_results();
  ASSERT_EQ(results.size(), 50u);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate result id " << r.id;
    EXPECT_EQ(r.status, ss::ServeStatus::kOk);
  }
}

TEST(Router, StallChaosTripsTheHeartbeatAndReplaysRecover) {
  ss::RouterConfig rc;
  rc.shards = 3;
  rc.shard.workers = 1;
  rc.shard.capacity = 128;
  rc.shard.max_batch = 2;
  rc.health.heartbeat_timeout_ms = 30.0;
  rc.health.probation_ms = 10.0;
  rc.health.probation_successes = 2;
  rc.max_replays = 16;
  rc.chaos.stall_prob = 1.0;  // every epoch freezes...
  rc.chaos.stall_ms = 150.0;  // ...well past the heartbeat timeout
  rc.chaos.trigger_lo = 2;
  rc.chaos.trigger_hi = 2;
  ss::Router router(rc);

  constexpr std::size_t kRequests = 12;
  for (std::uint64_t i = 1; i <= kRequests; ++i)
    (void)router.submit(small_ngst(i, 1 + (i % 6)));
  router.wait_idle();
  router.drain();

  const auto results = router.take_results();
  ASSERT_EQ(results.size(), kRequests);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate result id " << r.id;
    EXPECT_EQ(r.status, ss::ServeStatus::kOk);
  }
  const auto stats = router.stats();
  EXPECT_GE(stats.ejections, 1u);  // a stalled shard tripped the heartbeat
  EXPECT_GE(stats.replays, 1u);    // its in-flight work replayed elsewhere
  // The stalled worker eventually finished its request in the graveyard;
  // that late duplicate must have been dropped, not double-recorded.
  EXPECT_GE(stats.stale_results, 1u);
}
