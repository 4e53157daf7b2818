// Tests for the serve subsystem: bounded queue edge cases, admission
// control under overload, priority scheduling, batching, cancellation,
// deadlines, graceful drain, and cross-thread-count determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spacefts/serve/job.hpp"
#include "spacefts/serve/queue.hpp"
#include "spacefts/serve/request.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"

namespace ss = spacefts::serve;

namespace {

ss::QueueEntry entry_with(int priority, double deadline_abs_ms,
                          ss::ShapeKey shape = {}) {
  ss::QueueEntry entry;
  entry.priority = priority;
  entry.deadline_abs_ms = deadline_abs_ms;
  entry.shape = shape;
  return entry;
}

/// A small, fast NGST job (≈1 ms of compute).
ss::Request small_ngst(std::uint64_t id, int priority = 0,
                       double deadline_ms = 0.0) {
  ss::Request req;
  req.id = id;
  req.priority = priority;
  req.deadline_ms = deadline_ms;
  req.job.kind = ss::JobKind::kNgst;
  req.job.side = 16;
  req.job.frames = 4;
  req.job.seed = 1000 + id;
  return req;
}

ss::Request small_otis(std::uint64_t id, int priority = 0) {
  ss::Request req;
  req.id = id;
  req.priority = priority;
  req.job.kind = ss::JobKind::kOtis;
  req.job.side = 8;
  req.job.frames = 3;
  req.job.seed = 2000 + id;
  return req;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ---------------------------------------------------------------- queue ---

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(ss::BoundedQueue{0}, std::invalid_argument);
}

TEST(BoundedQueue, CapacityOneAdmitsShedsAndRecovers) {
  ss::BoundedQueue queue(1);
  EXPECT_EQ(queue.push(entry_with(0, kInf)), ss::ServeStatus::kOk);
  // Full: reject-on-full mode sheds immediately, repeatedly.
  EXPECT_EQ(queue.push(entry_with(5, kInf)), ss::ServeStatus::kShed);
  EXPECT_EQ(queue.push(entry_with(0, kInf)), ss::ServeStatus::kShed);
  EXPECT_EQ(queue.size(), 1u);
  // Popping frees the single slot again.
  ASSERT_TRUE(queue.pop_best().has_value());
  EXPECT_EQ(queue.push(entry_with(0, kInf)), ss::ServeStatus::kOk);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueue, ShutdownWakesBlockedProducer) {
  ss::BoundedQueue queue(1);
  ASSERT_EQ(queue.push(entry_with(0, kInf)), ss::ServeStatus::kOk);
  std::atomic<int> producer_state{0};  // 2 = bounded wait ended in shutdown
  std::thread producer([&] {
    // The queue is full and nobody consumes: this push waits for room, and
    // close() must wake it with kShutdown well before the 10 s bound.
    const auto status = queue.push(entry_with(0, kInf), 10'000.0);
    producer_state = status == ss::ServeStatus::kShutdown ? 2 : 1;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_EQ(producer_state.load(), 2);
  EXPECT_EQ(queue.push(entry_with(0, kInf)), ss::ServeStatus::kShutdown);
  // The queued entry is still retrievable after close (drain semantics).
  EXPECT_TRUE(queue.pop_best().has_value());
  EXPECT_FALSE(queue.pop_best().has_value());
}

TEST(BoundedQueue, ShutdownWakesBlockedConsumer) {
  ss::BoundedQueue queue(4);
  std::atomic<int> consumer_state{0};  // 2 = saw the shutdown signal
  std::thread consumer([&] {
    // Empty and open: this blocks until close() wakes it with nullopt.
    consumer_state = queue.pop_best().has_value() ? 1 : 2;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
  EXPECT_EQ(consumer_state.load(), 2);
}

TEST(BoundedQueue, OrdersByPriorityDeadlineThenAdmission) {
  ss::BoundedQueue queue(16);
  // Same priority, same deadline: admission order must break the tie
  // deterministically (seq asc), exercising stable scheduling.
  ASSERT_EQ(queue.push(entry_with(1, 500.0)), ss::ServeStatus::kOk);  // seq 0
  ASSERT_EQ(queue.push(entry_with(1, 500.0)), ss::ServeStatus::kOk);  // seq 1
  ASSERT_EQ(queue.push(entry_with(1, 100.0)), ss::ServeStatus::kOk);  // seq 2
  ASSERT_EQ(queue.push(entry_with(9, kInf)), ss::ServeStatus::kOk);   // seq 3
  ASSERT_EQ(queue.push(entry_with(1, 500.0)), ss::ServeStatus::kOk);  // seq 4

  std::vector<std::uint64_t> seqs;
  std::vector<int> priorities;
  while (auto entry = queue.try_pop_best()) {
    seqs.push_back(entry->seq);
    priorities.push_back(entry->priority);
  }
  EXPECT_EQ(priorities, (std::vector<int>{9, 1, 1, 1, 1}));
  // Priority 9 first; then the earlier deadline; then seq order 0, 1, 4.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3, 2, 0, 1, 4}));
}

TEST(BoundedQueue, CollectBatchMatchesShapeOnly) {
  const ss::ShapeKey ngst{ss::JobKind::kNgst, 16, 4, 80.0};
  const ss::ShapeKey otis{ss::JobKind::kOtis, 8, 3, 80.0};
  ss::BoundedQueue queue(16);
  ASSERT_EQ(queue.push(entry_with(0, kInf, ngst)), ss::ServeStatus::kOk);
  ASSERT_EQ(queue.push(entry_with(0, kInf, otis)), ss::ServeStatus::kOk);
  ASSERT_EQ(queue.push(entry_with(0, kInf, ngst)), ss::ServeStatus::kOk);

  // Both NGST entries, the OTIS one stays queued.
  const auto batch = queue.collect_batch(ngst, 8);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& entry : batch) EXPECT_TRUE(entry.shape == ngst);
  EXPECT_EQ(queue.size(), 1u);
  ASSERT_TRUE(queue.try_pop_best().has_value());
}

TEST(BoundedQueue, CollectBatchNeverWaits) {
  const ss::ShapeKey shape{ss::JobKind::kNgst, 16, 4, 80.0};
  ss::BoundedQueue queue(16);
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(queue.push(entry_with(0, kInf, shape)), ss::ServeStatus::kOk);
  });
  // Nothing is queued at the call, so the batch is empty: a later arrival
  // is the next batch's head, not a follower of this one.
  const auto batch = queue.collect_batch(shape, 1);
  late.join();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueue, CloseRacesWithProducersAndConsumers) {
  // Producers hammer push() while consumers pop and the queue closes under
  // them: every admitted entry must be popped exactly once, every refused
  // push must be a typed kShed/kShutdown, and nobody may deadlock.  Run
  // under TSAN this is the queue's data-race certificate.
  ss::BoundedQueue queue(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::atomic<int> ok{0}, shed{0}, shutdown{0}, popped{0};

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        switch (queue.push(entry_with(i % 3, kInf))) {
          case ss::ServeStatus::kOk: ++ok; break;
          case ss::ServeStatus::kShed: ++shed; break;
          case ss::ServeStatus::kShutdown: ++shutdown; break;
          default: FAIL() << "unexpected push status";
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int t = 0; t < 2; ++t) {
    consumers.emplace_back([&] {
      // Runs until the queue is closed *and* empty, so the consumers
      // between them retire every admitted entry.
      while (queue.pop_best().has_value()) ++popped;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(ok + shed + shutdown, kProducers * kPerProducer);
  EXPECT_EQ(popped.load(), ok.load());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.closed());
}

// --------------------------------------------------------------- server ---

TEST(Server, ValidatesConfig) {
  ss::ServerConfig config;
  config.max_batch = 0;
  EXPECT_THROW(ss::Server{config}, std::invalid_argument);
  config = {};
  config.capacity = 0;
  EXPECT_THROW(ss::Server{config}, std::invalid_argument);
}

TEST(Server, RejectsInvalidJobsAndDuplicateIds) {
  ss::ServerConfig config;
  config.workers = 0;
  ss::Server server(config);
  ss::Request bad = small_ngst(1);
  bad.job.frames = 2;  // NGST temporal voting needs >= 3
  EXPECT_THROW(server.submit(bad), std::invalid_argument);
  EXPECT_EQ(server.submit(small_ngst(7)), ss::ServeStatus::kOk);
  EXPECT_THROW(server.submit(small_ngst(7)), std::invalid_argument);
}

TEST(Server, ShedsAtOverloadWithoutDeadlockAndAccountsEveryRequest) {
  ss::ServerConfig config;
  config.capacity = 4;
  config.workers = 1;
  config.max_batch = 2;
  config.admission_timeout_ms = 0.0;  // pure reject-on-full
  ss::Server server(config);

  // Offer far more than the queue bound as fast as possible: admission
  // must shed rather than block, and nothing may deadlock.
  constexpr std::size_t kOffered = 64;
  std::size_t shed = 0;
  for (std::uint64_t id = 0; id < kOffered; ++id) {
    const auto status = server.submit(small_ngst(id));
    ASSERT_TRUE(status == ss::ServeStatus::kOk ||
                status == ss::ServeStatus::kShed);
    if (status == ss::ServeStatus::kShed) ++shed;
  }
  EXPECT_GT(shed, 0u) << "offered 16x capacity yet nothing was shed";
  server.wait_idle();
  server.drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, kOffered);
  EXPECT_EQ(stats.accepted + stats.shed, kOffered);
  EXPECT_EQ(stats.completed, stats.accepted);
  // Exactly one result per submission, shed ones included.
  const auto results = server.take_results();
  EXPECT_EQ(results.size(), kOffered);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) ids.insert(r.id);
  EXPECT_EQ(ids.size(), kOffered);
}

TEST(Server, ManualStepServesInPriorityOrder) {
  ss::ServerConfig config;
  config.workers = 0;  // manual mode: fully deterministic
  config.max_batch = 1;
  ss::Server server(config);

  const std::vector<int> priorities = {0, 2, 1, 2, 0};
  for (std::uint64_t id = 0; id < priorities.size(); ++id) {
    ASSERT_EQ(server.submit(small_ngst(id, priorities[id])),
              ss::ServeStatus::kOk);
  }
  while (server.step() > 0) {
  }
  const auto results = server.take_results();
  ASSERT_EQ(results.size(), priorities.size());
  // Completion order must be priority desc, then admission order.
  std::vector<std::uint64_t> order;
  for (const auto& r : results) {
    EXPECT_EQ(r.status, ss::ServeStatus::kOk) << r.error;
    order.push_back(r.id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2, 0, 4}));
}

TEST(Server, CancellationSkipsRequestInsideFormedBatch) {
  ss::ServerConfig config;
  config.workers = 0;
  config.max_batch = 4;
  ss::Server server(config);

  for (std::uint64_t id = 0; id < 4; ++id) {
    ASSERT_EQ(server.submit(small_ngst(id)), ss::ServeStatus::kOk);
  }
  EXPECT_TRUE(server.cancel(2));
  EXPECT_FALSE(server.cancel(99));  // unknown id

  // One step forms a single same-shape batch of all four; the cancelled
  // entry travels inside the batch and is skipped at execution time.
  EXPECT_EQ(server.step(), 4u);
  const auto results = server.take_results();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    if (r.id == 2) {
      EXPECT_EQ(r.status, ss::ServeStatus::kCancelled);
      EXPECT_EQ(r.checksum, 0u);  // never executed
    } else {
      EXPECT_EQ(r.status, ss::ServeStatus::kOk) << r.error;
      EXPECT_EQ(r.batch_size, 4u);
    }
  }
  EXPECT_FALSE(server.cancel(2));  // already retired
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Server, DeadlineExpiresBeforeStart) {
  ss::ServerConfig config;
  config.workers = 0;
  ss::Server server(config);
  ASSERT_EQ(server.submit(small_ngst(1, 0, /*deadline_ms=*/1.0)),
            ss::ServeStatus::kOk);
  ASSERT_EQ(server.submit(small_ngst(2, 0, /*deadline_ms=*/60'000.0)),
            ss::ServeStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  while (server.step() > 0) {
  }
  const auto results = server.take_results();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, r.id == 1 ? ss::ServeStatus::kExpired
                                  : ss::ServeStatus::kOk);
  }
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST(Server, GracefulDrainRetiresEveryRequestExactlyOnce) {
  ss::ServerConfig config;
  config.capacity = 64;
  config.workers = 2;
  config.max_batch = 4;
  ss::Server server(config);

  constexpr std::size_t kCount = 24;
  for (std::uint64_t id = 0; id < kCount; ++id) {
    ASSERT_EQ(server.submit(small_ngst(id)), ss::ServeStatus::kOk);
  }
  // Drain immediately: in-flight batches complete, the still-queued tail
  // is flushed as kShed, and nothing is lost or double-reported.
  server.drain();
  const auto results = server.take_results();
  ASSERT_EQ(results.size(), kCount);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(r.status == ss::ServeStatus::kOk ||
                r.status == ss::ServeStatus::kShed)
        << ss::to_string(r.status);
    ids.insert(r.id);
  }
  EXPECT_EQ(ids.size(), kCount);
  // Post-drain submissions are refused as kShutdown, still with a result.
  EXPECT_EQ(server.submit(small_ngst(1000)), ss::ServeStatus::kShutdown);
  EXPECT_EQ(server.take_results().size(), 1u);
  server.drain();  // idempotent
}

TEST(Server, ResultsAreBitIdenticalAcrossWorkerCounts) {
  ss::WorkloadSpec spec;
  spec.requests = 32;
  spec.rate_hz = 1e6;  // arrival times irrelevant here
  spec.seed = 7;
  spec.otis_fraction = 0.3;
  spec.pipeline_fraction = 0.2;
  spec.ngst_side = 16;
  spec.ngst_frames = 4;
  spec.otis_side = 8;
  spec.otis_bands = 3;
  const auto items = ss::generate_workload(spec);

  ss::ExecContext exec;
  exec.fragment_side = 8;
  exec.ingress.corrupt_prob = 0.3;  // ingress faults must replay too
  exec.ingress.drop_prob = 0.05;

  std::vector<std::string> renders;
  for (const std::size_t workers : {1u, 4u}) {
    ss::ServerConfig config;
    config.capacity = 64;
    config.workers = workers;
    config.max_batch = 4;
    config.admission_timeout_ms = 60'000.0;  // accept everything
    config.exec = exec;
    ss::Server server(config);
    for (const auto& item : items) {
      const auto status = server.submit(item.request);
      ASSERT_TRUE(status == ss::ServeStatus::kOk ||
                  status == ss::ServeStatus::kLost);
    }
    server.wait_idle();
    server.drain();
    renders.push_back(ss::results_to_jsonl(server.take_results()));
  }
  EXPECT_EQ(renders[0], renders[1])
      << "per-request results depend on worker count";

  // And the served results match the single-request direct path: batching
  // and scheduling must not change any product.
  ss::Server direct([&] {
    ss::ServerConfig config;
    config.workers = 0;
    config.max_batch = 1;
    config.capacity = 64;
    config.exec = exec;
    return config;
  }());
  std::vector<ss::RequestResult> singles;
  for (const auto& item : items) {
    if (direct.submit(item.request) != ss::ServeStatus::kOk) continue;
    while (direct.step() > 0) {
    }
  }
  EXPECT_EQ(ss::results_to_jsonl(direct.take_results()), renders[0]);
}

TEST(Server, IngressDropsAreDeterministicAndAccounted) {
  ss::ServerConfig config;
  config.workers = 0;
  config.exec.ingress.drop_prob = 0.5;
  ss::Server server(config);
  std::vector<std::uint64_t> lost_a;
  for (std::uint64_t id = 0; id < 16; ++id) {
    if (server.submit(small_otis(id)) == ss::ServeStatus::kLost) {
      lost_a.push_back(id);
    }
  }
  while (server.step() > 0) {
  }
  EXPECT_EQ(server.stats().lost, lost_a.size());
  EXPECT_EQ(server.take_results().size(), 16u);
  EXPECT_FALSE(lost_a.empty());

  // The fates are a function of the request id only.
  ss::Server replay(config);
  std::vector<std::uint64_t> lost_b;
  for (std::uint64_t id = 0; id < 16; ++id) {
    if (replay.submit(small_otis(id)) == ss::ServeStatus::kLost) {
      lost_b.push_back(id);
    }
  }
  EXPECT_EQ(lost_a, lost_b);
}

TEST(Server, CancellationRacesWithExecution) {
  // Cancel every id from other threads while the workers are serving: each
  // request must resolve exactly once as kOk (compute won) or kCancelled
  // (cancel won) — never both, never neither.
  ss::ServerConfig config;
  config.capacity = 256;
  config.workers = 2;
  config.max_batch = 4;
  ss::Server server(config);

  constexpr std::uint64_t kCount = 96;
  for (std::uint64_t id = 1; id <= kCount; ++id)
    ASSERT_EQ(server.submit(small_ngst(id)), ss::ServeStatus::kOk);
  std::thread evens([&] {
    for (std::uint64_t id = 2; id <= kCount; id += 2) (void)server.cancel(id);
  });
  std::thread odds([&] {
    for (std::uint64_t id = 1; id <= kCount; id += 2) (void)server.cancel(id);
  });
  evens.join();
  odds.join();
  server.wait_idle();
  server.drain();

  const auto results = server.take_results();
  ASSERT_EQ(results.size(), kCount);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate result id " << r.id;
    EXPECT_TRUE(r.status == ss::ServeStatus::kOk ||
                r.status == ss::ServeStatus::kCancelled)
        << ss::to_string(r.status);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed + stats.cancelled, kCount);
}

TEST(Server, DrainRacesWithSubmitters) {
  // Drain while submitters are mid-flight: every submit must come back
  // with a typed status, every status must have a matching result record,
  // and the drain must not deadlock against the producers.
  ss::ServerConfig config;
  config.capacity = 16;
  config.workers = 2;
  config.max_batch = 4;
  ss::Server server(config);

  constexpr int kThreads = 3;
  constexpr std::uint64_t kPerThread = 60;
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id = 1 + t * kPerThread + i;
        (void)server.submit(small_ngst(id));
        ++submitted;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.drain();
  for (auto& t : submitters) t.join();
  server.drain();  // flush anything admitted after the first drain began

  // record_rejects defaults to true, so kOk, kShed, and kShutdown fates
  // all leave a record: exactly one result per submission.
  const auto results = server.take_results();
  EXPECT_EQ(results.size(), submitted.load());
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate result id " << r.id;
  }
}

// ------------------------------------------------------------- workload ---

TEST(Workload, GenerateIsDeterministicAndValidated) {
  ss::WorkloadSpec spec;
  spec.requests = 50;
  const auto a = ss::generate_workload(spec);
  const auto b = ss::generate_workload(spec);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(ss::to_jsonl(a), ss::to_jsonl(b));
  // Arrival times strictly increase (open-loop Poisson clock).
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i].arrival_s, a[i - 1].arrival_s);
  }
  spec.rate_hz = 0.0;
  EXPECT_THROW(ss::generate_workload(spec), std::invalid_argument);
  spec.rate_hz = 1.0;
  spec.otis_fraction = 1.5;
  EXPECT_THROW(ss::generate_workload(spec), std::invalid_argument);
}

TEST(Workload, JsonlRoundTripsExactly) {
  ss::WorkloadSpec spec;
  spec.requests = 40;
  spec.otis_fraction = 0.4;
  spec.pipeline_fraction = 0.25;
  spec.deadline_ms = 125.0;
  spec.gamma0 = 1e-6;
  spec.link_loss = 0.01;
  const auto items = ss::generate_workload(spec);
  const auto text = ss::to_jsonl(items);
  const auto parsed = ss::parse_workload_jsonl(text);
  ASSERT_EQ(parsed.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(parsed[i].request.id, items[i].request.id);
    EXPECT_EQ(parsed[i].request.priority, items[i].request.priority);
    EXPECT_EQ(parsed[i].request.job.kind, items[i].request.job.kind);
    EXPECT_EQ(parsed[i].request.job.seed, items[i].request.job.seed);
    EXPECT_EQ(parsed[i].request.job.run_pipeline,
              items[i].request.job.run_pipeline);
  }
  // Re-render: the round trip must be byte-stable, not just field-equal.
  EXPECT_EQ(ss::to_jsonl(parsed), text);
  EXPECT_THROW(ss::parse_workload_jsonl("{\"id\":0}\n"), std::runtime_error);
}

// The replay parser is a parse boundary: an integer field must be an
// in-range integer and a double finite, or the line is refused by number
// and key (a cast of an out-of-range double to an integer is undefined).
TEST(Workload, ReplayRefusesNonIntegerAndNonFiniteValues) {
  const std::string good =
      "{\"id\":0,\"stream\":1,\"arrival_s\":0.5,\"kind\":\"ngst\","
      "\"side\":16,\"frames\":8,\"lambda\":80,\"seed\":7,\"priority\":1,"
      "\"deadline_ms\":0,\"run_pipeline\":false,\"gamma0\":0,"
      "\"link_loss\":0}\n";
  ASSERT_EQ(ss::to_jsonl(ss::parse_workload_jsonl(good)), good);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    return good + line;
  };
  using Case = std::pair<std::string, std::string>;
  for (const auto& [text, key] : std::vector<Case>{
           {with("\"side\":16", "\"side\":1e30"), "side"},
           {with("\"side\":16", "\"side\":16.7"), "side"},
           {with("\"frames\":8", "\"frames\":8.9"), "frames"},
           {with("\"side\":16", "\"side\":0"), "side"},
           {with("\"priority\":1", "\"priority\":1e20"), "priority"},
           {with("\"arrival_s\":0.5", "\"arrival_s\":nan"), "arrival_s"},
           {with("\"kind\":\"ngst\"", "\"kind\":\"cobalt\""), "kind"},
       }) {
    try {
      (void)ss::parse_workload_jsonl(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()), "workload line 2: bad " + key);
    }
  }
}

// ------------------------------------------------------------ telemetry ---

namespace {

ss::Request small_telemetry(std::uint64_t id) {
  ss::Request req;
  req.id = id;
  req.job.kind = ss::JobKind::kTelemetry;
  req.job.side = 8;    // channels
  req.job.frames = 12;  // samples
  req.job.seed = 3000 + id;
  return req;
}

}  // namespace

TEST(Telemetry, JobsServeDeterministically) {
  const auto run = [] {
    ss::ServerConfig config;
    config.workers = 0;
    ss::Server server(config);
    for (std::uint64_t id = 0; id < 4; ++id) {
      EXPECT_EQ(server.submit(small_telemetry(id)), ss::ServeStatus::kOk);
    }
    while (server.step() > 0) {
    }
    server.drain();
    return ss::results_to_jsonl(server.take_results());
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"telemetry\""), std::string::npos);
  EXPECT_EQ(first, run());
}

TEST(Telemetry, ValidationRejectsShortStacksAndPipelines) {
  ss::ServerConfig config;
  config.workers = 0;
  ss::Server server(config);
  ss::Request bad = small_telemetry(1);
  bad.job.frames = 2;  // temporal voting needs >= 3 samples
  EXPECT_THROW(server.submit(bad), std::invalid_argument);
  bad = small_telemetry(2);
  bad.job.run_pipeline = true;  // the FITS pipeline is image-only
  EXPECT_THROW(server.submit(bad), std::invalid_argument);
}

TEST(Telemetry, WorkloadMixAndJsonlRoundTrip) {
  ss::WorkloadSpec spec;
  spec.requests = 30;
  spec.telemetry_fraction = 1.0;
  const auto all = ss::generate_workload(spec);
  for (const auto& item : all) {
    EXPECT_EQ(item.request.job.kind, ss::JobKind::kTelemetry);
    EXPECT_EQ(item.request.job.side, spec.telemetry_channels);
    EXPECT_EQ(item.request.job.frames, spec.telemetry_samples);
  }
  const auto text = ss::to_jsonl(all);
  EXPECT_EQ(ss::to_jsonl(ss::parse_workload_jsonl(text)), text);

  // fraction = 0 must never emit telemetry (and, crucially, must not
  // consume a bernoulli draw — older workload specs regenerate
  // bit-identically).
  spec.telemetry_fraction = 0.0;
  for (const auto& item : ss::generate_workload(spec)) {
    EXPECT_NE(item.request.job.kind, ss::JobKind::kTelemetry);
  }
}
