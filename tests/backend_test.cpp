// Tests for the pluggable compute backends: trusted-CPU equivalence, the
// unreliable accelerator's seeded determinism (across worker threads and
// shard counts), the shadow guard's detect-and-repair contract, and the
// quarantine verdict replayed from an exported decision log.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "spacefts/backend/backend.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/serve/request.hpp"
#include "spacefts/serve/router.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace sb = spacefts::backend;
namespace sf = spacefts::fault;
namespace ss = spacefts::serve;

namespace {

/// A lively fault model: high rate, silent kinds only, so corruption is
/// frequent and the stall leg cannot slow the suite down.
sf::ComputeFaultConfig lively_faults(double rate = 0.5) {
  sf::ComputeFaultConfig fc;
  fc.fault_rate = rate;
  fc.stall_weight = 0.0;  // keep the suite fast; stalls are timing-only
  fc.seed = 0xfee1bad;
  return fc;
}

spacefts::common::TemporalStack<std::uint16_t> small_stack(
    std::uint64_t seed) {
  spacefts::datagen::NgstSimulator sim(seed);
  spacefts::datagen::SceneParams scene;
  scene.width = 12;
  scene.height = 12;
  return sim.stack(6, scene);
}

ss::Request small_ngst(std::uint64_t id) {
  ss::Request req;
  req.id = id;
  req.job.kind = ss::JobKind::kNgst;
  req.job.side = 16;
  req.job.frames = 4;
  req.job.seed = 1000 + id;
  return req;
}

// ------------------------------------------------------------ equivalence ---

TEST(Backend, CpuBackendMatchesInlineAlgo) {
  const spacefts::core::AlgoNgstConfig config;
  auto direct = small_stack(7);
  const auto want = spacefts::core::AlgoNgst(config).preprocess(direct);

  sb::CpuBackend cpu;
  auto via = small_stack(7);
  sb::ComputeOutcome outcome;
  const auto got = cpu.preprocess(via, config, {1, 0}, &outcome);

  EXPECT_TRUE(direct == via);
  EXPECT_EQ(want.pixels_corrected, got.pixels_corrected);
  EXPECT_EQ(outcome.fault, sf::ComputeFaultKind::kNone);
  EXPECT_FALSE(outcome.shadow_sampled);
}

TEST(Backend, UnreliableZeroRateIsByteIdenticalToInner) {
  const spacefts::core::AlgoNgstConfig config;
  auto cpu = std::make_shared<sb::CpuBackend>();
  sb::UnreliableBackend unreliable(cpu, sf::ComputeFaultConfig{});  // rate 0

  auto trusted = small_stack(3);
  (void)cpu->preprocess(trusted, config, {0, 0}, nullptr);
  auto faulty = small_stack(3);
  sb::ComputeOutcome outcome;
  (void)unreliable.preprocess(faulty, config, {0, 0}, &outcome);

  EXPECT_TRUE(trusted == faulty);
  EXPECT_EQ(outcome.fault, sf::ComputeFaultKind::kNone);
}

TEST(Backend, UnreliableCorruptionIsPureInRequestAndEpoch) {
  const spacefts::core::AlgoNgstConfig config;
  auto cpu = std::make_shared<sb::CpuBackend>();
  sb::UnreliableBackend a(cpu, lively_faults());
  sb::UnreliableBackend b(cpu, lively_faults());

  bool any_fault = false;
  for (std::uint64_t req = 0; req < 16; ++req) {
    auto via_a = small_stack(req);
    auto via_b = small_stack(req);
    sb::ComputeOutcome oa, ob;
    (void)a.preprocess(via_a, config, {req, 0}, &oa);
    (void)b.preprocess(via_b, config, {req, 0}, &ob);
    // Same (request, epoch) on two instances of the same config: the same
    // plan, the same bytes — call history must not matter.
    EXPECT_TRUE(via_a == via_b) << "request " << req;
    EXPECT_EQ(oa.fault, ob.fault);
    any_fault |= oa.fault != sf::ComputeFaultKind::kNone;
  }
  EXPECT_TRUE(any_fault) << "rate 0.5 over 16 requests fired nothing";

  // A different epoch is a different stream: at least one of the 16
  // requests must draw a different plan.
  bool epoch_differs = false;
  for (std::uint64_t req = 0; req < 16 && !epoch_differs; ++req) {
    auto e0 = small_stack(req);
    auto e1 = small_stack(req);
    sb::ComputeOutcome o0, o1;
    (void)a.preprocess(e0, config, {req, 0}, &o0);
    (void)a.preprocess(e1, config, {req, 1}, &o1);
    epoch_differs = !(e0 == e1) || o0.fault != o1.fault;
  }
  EXPECT_TRUE(epoch_differs);
}

// ------------------------------------------------------------ shadow guard ---

TEST(Backend, ShadowFullRateRestoresTrustedBytesOnEveryMismatch) {
  const spacefts::core::AlgoNgstConfig config;
  auto cpu = std::make_shared<sb::CpuBackend>();
  auto unreliable =
      std::make_shared<sb::UnreliableBackend>(cpu, lively_faults());
  sb::ShadowConfig sc;
  sc.shadow_rate = 1.0;
  sb::ShadowBackend shadowed(unreliable, cpu, sc);

  std::size_t mismatches = 0;
  for (std::uint64_t req = 0; req < 24; ++req) {
    auto trusted = small_stack(req);
    (void)cpu->preprocess(trusted, config, {req, 0}, nullptr);

    auto served = small_stack(req);
    sb::ComputeOutcome outcome;
    (void)shadowed.preprocess(served, config, {req, 0}, &outcome);

    EXPECT_TRUE(outcome.shadow_sampled);
    // The guard's whole contract: whatever the accelerator did, the served
    // bytes are the trusted bytes.
    EXPECT_TRUE(served == trusted) << "request " << req;
    mismatches += outcome.shadow_mismatch ? 1 : 0;
  }
  EXPECT_GT(mismatches, 0u);
  const auto health = shadowed.health();
  EXPECT_EQ(health.executed, 24u);
  EXPECT_EQ(health.sampled, 24u);
  EXPECT_EQ(health.mismatches, mismatches);
}

TEST(Backend, ShadowSampleIsPureAndHonoursRateEndpoints) {
  auto cpu = std::make_shared<sb::CpuBackend>();
  const auto make = [&](double rate) {
    sb::ShadowConfig sc;
    sc.shadow_rate = rate;
    return sb::ShadowBackend(cpu, cpu, sc);
  };
  const auto always = make(1.0);
  const auto never = make(0.0);
  const auto half_a = make(0.5);
  const auto half_b = make(0.5);
  std::size_t hits = 0;
  for (std::uint64_t req = 0; req < 200; ++req) {
    EXPECT_TRUE(always.sampled(req, 0));
    EXPECT_FALSE(never.sampled(req, 0));
    // Pure in (request, epoch): instances agree, repeats agree.
    EXPECT_EQ(half_a.sampled(req, 0), half_b.sampled(req, 0));
    EXPECT_EQ(half_a.sampled(req, 0), half_a.sampled(req, 0));
    hits += half_a.sampled(req, 0) ? 1 : 0;
  }
  EXPECT_GT(hits, 50u);
  EXPECT_LT(hits, 150u);
}

/// Parses the --backend-log JSONL artifact back into decisions.
std::vector<sb::ShadowDecision> parse_decision_log(const std::string& text) {
  namespace jsonl = spacefts::telemetry::jsonl;
  std::vector<sb::ShadowDecision> parsed;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    sb::ShadowDecision d;
    d.request_id = std::stoull(jsonl::json_field(line, "request"));
    d.epoch = std::stoull(jsonl::json_field(line, "epoch"));
    d.sampled = jsonl::json_field(line, "sampled") == "true";
    d.mismatch = jsonl::json_field(line, "mismatch") == "true";
    d.from_guard = jsonl::json_field(line, "from_guard") == "true";
    parsed.push_back(d);
  }
  return parsed;
}

TEST(Backend, QuarantineVerdictReplaysFromExportedDecisionLog) {
  const spacefts::core::AlgoNgstConfig config;
  auto cpu = std::make_shared<sb::CpuBackend>();
  auto unreliable =
      std::make_shared<sb::UnreliableBackend>(cpu, lively_faults());
  sb::ShadowConfig sc;
  sc.shadow_rate = 1.0;
  sb::ShadowBackend shadowed(unreliable, cpu, sc);

  // Submit in a scrambled order: the canonical log must not care.
  for (const std::uint64_t req : {9, 2, 14, 0, 7, 11, 4, 1, 13, 5, 3, 8}) {
    auto stack = small_stack(req);
    (void)shadowed.preprocess(stack, config, {req, 0}, nullptr);
  }
  const auto live = shadowed.decisions();
  const auto health = shadowed.health();
  ASSERT_GE(health.mismatches, 3u);
  EXPECT_TRUE(health.quarantined);

  // Round-trip through the on-disk artifact and replay the fold.
  const std::string rendered = sb::decisions_to_jsonl(live);
  const auto parsed = parse_decision_log(rendered);
  ASSERT_EQ(parsed.size(), live.size());
  EXPECT_EQ(sb::count_mismatches(parsed), health.mismatches);

  const auto crossing = sb::quarantine_after(parsed);
  ASSERT_NE(crossing.request_id, UINT64_MAX) << "threshold never crossed";
  // The verdict is a prefix fold of the sorted log: replaying only the
  // prefix up to the crossing key reaches exactly the third mismatch.
  std::vector<sb::ShadowDecision> prefix;
  for (const auto& d : parsed) {
    prefix.push_back(d);
    if (d.request_id == crossing.request_id && d.epoch == crossing.epoch) {
      break;
    }
  }
  EXPECT_EQ(sb::count_mismatches(prefix), 3u);

  // And the rendered artifact itself is reproducible from the parse.
  EXPECT_EQ(sb::decisions_to_jsonl(parsed), rendered);
}

// ------------------------------------------- serve-tier byte determinism ---

TEST(Backend, ServedResultsByteIdenticalAcrossWorkerCounts) {
  ss::WorkloadSpec spec;
  spec.requests = 24;
  spec.rate_hz = 1e6;
  spec.seed = 11;
  spec.otis_fraction = 0.25;
  spec.pipeline_fraction = 0.25;
  spec.ngst_side = 16;
  spec.ngst_frames = 4;
  spec.otis_side = 8;
  spec.otis_bands = 3;
  const auto items = ss::generate_workload(spec);

  std::vector<std::string> renders;
  for (const std::size_t workers : {1u, 8u}) {
    auto cpu = std::make_shared<sb::CpuBackend>();
    ss::ServerConfig config;
    config.capacity = 64;
    config.workers = workers;
    config.max_batch = 4;
    config.admission_timeout_ms = 60'000.0;
    config.exec.fragment_side = 8;
    config.exec.backend =
        std::make_shared<sb::UnreliableBackend>(cpu, lively_faults(0.4));
    ss::Server server(config);
    for (const auto& item : items) {
      ASSERT_EQ(server.submit(item.request), ss::ServeStatus::kOk);
    }
    server.wait_idle();
    server.drain();
    renders.push_back(ss::results_to_jsonl(server.take_results()));
  }
  EXPECT_EQ(renders[0], renders[1])
      << "unreliable-backend results depend on worker count";
  EXPECT_NE(renders[0].find("\"backend\":\"unreliable\""), std::string::npos);
}

/// The deterministic payload of one result (what the CI `cmp` covers, sans
/// the topology-dependent shard field).
using Payload =
    std::tuple<ss::ServeStatus, std::uint32_t, std::size_t, std::size_t,
               double, bool>;

std::map<std::uint64_t, Payload> payload_map(
    const std::vector<ss::RequestResult>& results) {
  std::map<std::uint64_t, Payload> map;
  for (const auto& r : results) {
    map.emplace(r.id, Payload{r.status, r.checksum, r.pixels_corrected,
                              r.bits_corrected, r.coverage,
                              r.backend_mismatch});
  }
  return map;
}

TEST(Backend, ServedResultsIdenticalAcrossShardCounts) {
  constexpr std::uint64_t kRequests = 24;
  std::vector<std::map<std::uint64_t, Payload>> payloads;
  for (const std::size_t shards : {1u, 4u}) {
    auto cpu = std::make_shared<sb::CpuBackend>();
    ss::RouterConfig rc;
    rc.shards = shards;
    rc.shard.workers = 0;
    rc.shard.capacity = 64;
    rc.shard.max_batch = 4;
    rc.health.heartbeat_timeout_ms = 1e9;
    rc.health.congestion_timeout_ms = 0.0;
    rc.shard.exec.backend =
        std::make_shared<sb::UnreliableBackend>(cpu, lively_faults(0.4));
    ss::Router router(rc);
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
      ASSERT_EQ(router.submit(small_ngst(id)), ss::ServeStatus::kOk);
    }
    int idle_spins = 0;
    while (router.pending() > 0) {
      if (router.pump() > 0) {
        idle_spins = 0;
        continue;
      }
      ASSERT_LT(++idle_spins, 20'000) << "router stopped making progress";
    }
    router.drain();
    payloads.push_back(payload_map(router.take_results()));
  }
  ASSERT_EQ(payloads[0].size(), kRequests);
  EXPECT_EQ(payloads[0], payloads[1])
      << "unreliable-backend results depend on shard count";
}

}  // namespace
