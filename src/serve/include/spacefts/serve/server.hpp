/// \file server.hpp
/// The deadline-aware preprocessing server: bounded admission, dynamic
/// same-shape batching, per-request cancellation, and graceful drain.
///
/// Life of a request:
///
///   submit() ── ingress link sampling (drop / corrupt / duplicate / delay)
///      │                │ dropped → kLost, never queued
///      ▼                ▼
///   BoundedQueue  (priority desc, deadline asc, seq asc; reject-on-full
///      │           or bounded-wait admission — producers never block
///      │           indefinitely)
///      ▼
///   worker pops the best entry, collect_batch()es the same-shape entries
///   already queued (up to max_batch, never waiting), then executes each
///   member through ingest::Guard → Algo_NGST / Algo_OTIS
///   [→ dist::pipeline]; cancelled items are skipped (kCancelled), items
///   whose deadline passed before the batch formed are skipped (kExpired)
///      ▼
///   exactly one RequestResult per submitted request, via take_results()
///
/// Drain state machine:  Running ── drain() ──▶ Draining (admission closed,
/// queued entries flushed as kShed, in-flight batches complete) ──▶
/// Stopped (workers joined).  The destructor drains if the caller did not.
///
/// Every stage reports through telemetry: a `serve.queue_depth` gauge,
/// admission/outcome counters (`serve.accepted`, `serve.shed`, …), and
/// `serve.queue_wait_s` / `serve.e2e_latency_s` / `serve.batch_size`
/// histograms.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spacefts/fault/message_faults.hpp"
#include "spacefts/serve/job.hpp"
#include "spacefts/serve/queue.hpp"
#include "spacefts/serve/request.hpp"

namespace spacefts::serve {

/// Server tuning.
struct ServerConfig {
  std::size_t capacity = 256;   ///< queue bound (admission control)
  /// Batch-serving threads.  0 = manual mode: no threads are spawned and
  /// the owner pumps batches with step() — deterministic, for tests.
  std::size_t workers = 2;
  std::size_t max_batch = 8;  ///< batch size cap
  /// Bounded time submit() may wait for queue room; 0 = pure
  /// reject-on-full (load shedding).
  double admission_timeout_ms = 0.0;
  /// Optional hook run on the serving worker immediately before each
  /// request's compute (skipped for cancelled/expired entries).  The
  /// sharded router injects chaos (stall/slowdown windows) here, and the
  /// serve bench models a constant per-request service floor; plain
  /// deployments leave it empty.
  std::function<void(const Request&)> pre_execute;
  /// When false, a submit() rejected at admission (kShed / kShutdown)
  /// records *no* result — the caller owns the accounting.  The sharded
  /// router disables recording so it can spill a rejected request to
  /// another shard without a duplicate result appearing later.  Ingress
  /// kLost outcomes are always recorded (they are terminal fates, not
  /// admission rejections).
  bool record_rejects = true;
  /// Observer invoked exactly once per recorded result (same cardinality as
  /// take_results()), on whichever thread retires the request.  The control
  /// loop folds its observations here.  Behind a Router, leave this empty
  /// and use RouterConfig::on_result instead — a shard-level observer would
  /// see replayed executions twice.
  std::function<void(const RequestResult&)> on_result;
  ExecContext exec{};  ///< per-batch execution knobs + ingress fault model
};

/// Monotonic counters; a consistent snapshot via Server::stats().
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;       ///< admission rejects + drain flushes
  std::uint64_t lost = 0;       ///< ingress link drops
  std::uint64_t completed = 0;  ///< finished kOk
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t ingress_corrupted = 0;
  std::uint64_t ingress_duplicates = 0;
};

class Server {
 public:
  /// Validates the configuration (and the ingress fault model) and spawns
  /// the workers.  \throws std::invalid_argument on malformed config.
  explicit Server(const ServerConfig& config);

  /// Drains (flushing queued requests as kShed) and joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission.  Returns kOk (queued), kShed (queue full past the bounded
  /// admission wait), kShutdown (drain began), or kLost (ingress link
  /// dropped the request).  Non-kOk requests still produce a result
  /// record, so accounting always covers every submission.
  /// \throws std::invalid_argument for an invalid JobSpec or a duplicate
  /// id among live requests.
  ServeStatus submit(const Request& request);

  /// Cancels a live request.  True when the request was found (queued or
  /// in a formed batch) and will complete as kCancelled; false when it
  /// already finished (or was never accepted).  A request whose compute
  /// already started is not interrupted.
  bool cancel(std::uint64_t id);

  /// Blocks until every accepted request has completed.  Requires either
  /// running workers or concurrent step() calls to make progress.
  void wait_idle();

  /// Manual mode: pops one batch and executes it on the calling thread.
  /// Returns the number of requests retired (0 = queue empty).  Usable
  /// whenever the caller wants deterministic single-stepping; safe to mix
  /// with running workers.
  std::size_t step();

  /// Graceful drain: closes admission, flushes queued requests as kShed,
  /// lets in-flight batches complete, joins the workers.  Idempotent.
  void drain();

  /// Moves out every result recorded so far (one per retired request).
  [[nodiscard]] std::vector<RequestResult> take_results();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// Accepted requests not yet retired (queued or in flight).
  [[nodiscard]] std::size_t outstanding() const;
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Batch;

  void worker_loop();
  /// Pops + collects one batch; false when no entry was available
  /// (non-blocking) or the queue is closed and empty (blocking).
  bool next_batch(Batch& batch, bool blocking);
  void execute_batch(Batch& batch);
  void record(RequestResult result);
  void finish_one();  ///< outstanding bookkeeping after a retire
  [[nodiscard]] double now_ms() const;

  ServerConfig config_;
  fault::MessageFaultModel ingress_model_;
  core::Kernel resolved_kernel_;  ///< stamped into every recorded result
  std::chrono::steady_clock::time_point epoch_;
  BoundedQueue queue_;

  mutable std::mutex mutex_;  ///< guards live_, results_, stats_
  std::condition_variable idle_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestState>> live_;
  std::vector<RequestResult> results_;
  ServerStats stats_;
  std::uint64_t outstanding_ = 0;  ///< accepted, not yet retired

  std::vector<std::thread> workers_;
  bool joined_ = false;  ///< guarded by drain_mutex_
  std::mutex drain_mutex_;
};

/// Internal per-request state shared between the queue and the server.
/// Declared here (not in queue.hpp) so the queue stays payload-agnostic.
class RequestState {
 public:
  Request request;
  bool corrupt_ingress = false;
  double submit_ms = 0.0;        ///< ms since server epoch
  double deadline_abs_ms = 0.0;  ///< +inf when none
  std::atomic<bool> cancelled{false};
};

}  // namespace spacefts::serve
