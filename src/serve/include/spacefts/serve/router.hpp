/// \file router.hpp
/// The sharded serving tier: a consistent-hash front end over N in-process
/// worker shards that survives shard death.
///
/// Each shard is a full serve::Server (own BoundedQueue, own worker pool)
/// wrapped in health bookkeeping.  The router:
///
///  * **routes** by consistent hashing: the request's stream id (or its own
///    id when it has no stream) hashes onto a ring of 32 points per
///    shard, so one stream lands on one shard and removing a shard remaps
///    only that shard's keys;
///  * **spills** a request rejected by its home shard (queue full — shards
///    run reject-fast admission) to the least-loaded healthy shard, once,
///    before shedding it;
///  * **health-checks** every shard on a control loop — heartbeat age,
///    consecutive-failure bursts, sustained queue congestion (see
///    health.hpp) — and **ejects** violators: the shard's Server retires to
///    a graveyard drain, its epoch is bumped, and after `probation_ms` a
///    fresh Server boots into probation;
///  * **replays** the ejected shard's in-flight requests on surviving
///    shards with exponential backoff and seeded jitter, at most
///    `max_replays` times, then sheds;
///  * injects **seeded chaos** (fault::ShardFaultModel): per-(shard, epoch)
///    crash / stall / slowdown plans that fire mid-load, so the whole
///    detect-eject-replay path is exercised deterministically in tests.
///
/// Exactly-once contract: every submitted request resolves to exactly one
/// RequestResult — completed, replayed-then-completed, or an accounted
/// shed — never zero (no hangs) and never two (no duplicates).  The
/// mechanism is an epoch-versioned pending registry: a result collected
/// from shard s is accepted only while the request is still assigned to
/// (s, current epoch of s); anything else — drain flushes of a dead shard,
/// late completions from a stalled worker — is dropped as stale, because
/// the request has already been replayed (or resolved) elsewhere.  Compute
/// is a pure function of the JobSpec, so a replayed request reproduces the
/// original result bit for bit; the payload fields of the result file are
/// byte-identical across thread counts and shard counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spacefts/fault/shard_faults.hpp"
#include "spacefts/serve/health.hpp"
#include "spacefts/serve/server.hpp"

namespace spacefts::serve {

/// Router tuning.  The embedded ServerConfig is a *template* stamped onto
/// every shard; the router forces `admission_timeout_ms = 0` (shards
/// reject fast so the router can spill) and `record_rejects = false` (the
/// router owns rejection accounting), and chains its chaos hook in front
/// of any caller-supplied `pre_execute`.
struct RouterConfig {
  std::size_t shards = 4;
  ServerConfig shard;   ///< per-shard template (capacity, workers, exec, …)
  HealthPolicy health;  ///< ejection / probation thresholds
  /// Replay budget per request after shard death; exhausting it sheds.
  std::size_t max_replays = 3;
  /// Base seed of the ring geometry, key hashing, and replay jitter.
  std::uint64_t seed = 0x70c7e12ULL;
  fault::ShardFaultConfig chaos;  ///< default: a faithful fleet
  /// Observer invoked exactly once per router-recorded result — the same
  /// exactly-once stream take_results() sees, so replayed executions and
  /// stale epoch-mismatched results never reach it.  This (not the shard
  /// template's ServerConfig::on_result, which the router clears) is where
  /// the control loop folds observations in sharded mode: the bank keyed by
  /// stream survives any shard's death because it lives here, above the
  /// fleet.
  std::function<void(const RequestResult&)> on_result;
};

/// Monotonic counters; a consistent snapshot via Router::stats().
struct RouterStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;   ///< queued on some shard at first dispatch
  std::uint64_t shed = 0;       ///< router-resolved sheds (all causes)
  std::uint64_t completed = 0;  ///< collected kOk results
  std::uint64_t lost = 0;       ///< ingress link drops
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t replays = 0;     ///< replay dispatches scheduled
  std::uint64_t spills = 0;      ///< rejected-by-home-shard reroutes
  std::uint64_t ejections = 0;   ///< shard ejections (all reasons)
  std::uint64_t readmissions = 0;///< probation -> healthy promotions
  std::uint64_t kills = 0;       ///< explicit / chaos-crash kills
  std::uint64_t stale_results = 0;  ///< dropped epoch-mismatched results
};

/// One shard's externally visible condition.
struct ShardSnapshot {
  ShardState state = ShardState::kHealthy;
  std::uint64_t epoch = 0;       ///< incarnation number (bumps per eject)
  std::size_t queue_depth = 0;
  std::uint64_t completed = 0;   ///< lifetime collected kOk results
  std::uint64_t ejections = 0;   ///< lifetime eject count
};

/// The replay delay for `attempt` (1-based) of request `id`: the shared
/// backoff law (common/backoff.hpp) from a 1 ms first delay, jittered by a
/// uniform drawn from config.seed's replay stream so replay herds
/// decorrelate reproducibly.  Pure function of (config.seed, id, attempt)
/// — the golden test pins its values forever.
[[nodiscard]] double replay_backoff_ms(const RouterConfig& config,
                                       std::uint64_t id,
                                       std::uint32_t attempt);

/// The sharded front end.  Thread-safe; one instance owns its shard fleet.
class Router {
 public:
  /// Validates the configuration, builds the ring, boots every shard.
  /// When the shard template has `workers == 0` the router runs in manual
  /// mode — no control thread is spawned and the owner drives everything
  /// with pump() — otherwise a control thread runs health checks, result
  /// collection, and replay dispatch continuously.
  /// \throws std::invalid_argument on malformed config.
  explicit Router(const RouterConfig& config);

  /// Drains (resolving any still-pending request as kShed) and joins.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Admission.  Routes to the key's shard (spilling once on rejection),
  /// registers the request in the pending registry, and returns kOk
  /// (dispatched — the result arrives via take_results()), kShed (no shard
  /// could take it; a kShed result is already recorded), kLost (ingress
  /// drop; result recorded), or kShutdown (drain began; result recorded).
  /// \throws std::invalid_argument for an invalid JobSpec or an id already
  /// pending.
  ServeStatus submit(const Request& request);

  /// Manual mode: runs one control step (collect results, health checks,
  /// due replays, scheduled kills) and pumps one batch through every
  /// routable shard.  Returns the number of requests retired by the shard
  /// steps — 0 means no queued work was ready (replays may still be
  /// waiting out their backoff; poll pending()).
  std::size_t pump();

  /// Blocks until the pending registry is empty (every submitted request
  /// has a recorded result).  Requires the control thread (threaded mode)
  /// or concurrent pump() calls (manual mode) to make progress.
  void wait_idle();

  /// Graceful drain: closes admission, drains every shard (queued requests
  /// resolve as kShed), collects the last results, joins the graveyard,
  /// and sheds any request still awaiting replay.  Idempotent.
  void drain();

  /// Moves out every result recorded so far (one per submitted request).
  [[nodiscard]] std::vector<RequestResult> take_results();

  /// Ejects shard `i` immediately (reason kKilled): its server retires to
  /// the graveyard, in-flight requests replay elsewhere, and a fresh
  /// server reboots after probation.  The chaos crash plan and the CLI's
  /// --shard-kill knob both land here.  No-op when already ejected.
  void kill_shard(std::size_t i);

  /// Arms a deterministic kill: shard `i` is killed once the router has
  /// recorded `after_results` results.  Several kills may be scheduled.
  /// \throws std::invalid_argument for an out-of-range shard.
  void schedule_kill(std::size_t i, std::uint64_t after_results);

  /// The ring owner of a routing key (health ignored) — exposed so tests
  /// can pin the remap-only-the-dead-shard's-keys property.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t key) const;

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] ShardSnapshot shard(std::size_t i) const;
  /// Requests submitted but not yet resolved to a result.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }

 private:
  /// Chaos state shared with a shard's pre_execute hook (worker threads).
  struct ChaosState;
  /// One shard slot: the live server plus health/epoch bookkeeping.
  struct Shard;
  /// One entry of the exactly-once pending registry.
  struct PendingEntry;

  [[nodiscard]] double now_ms() const;
  [[nodiscard]] std::uint64_t key_of(const Request& request) const noexcept;
  /// Ring walk from the key's owner to the first routable shard.
  [[nodiscard]] std::optional<std::uint32_t> route_locked(
      std::uint64_t key) const;
  [[nodiscard]] std::optional<std::uint32_t> least_loaded_locked(
      std::optional<std::uint32_t> excluding) const;
  [[nodiscard]] bool routable_locked(std::uint32_t i) const;

  /// Boots a fresh Server for slot `i` at its current epoch (chaos plan
  /// included).  Lock held.
  void boot_shard_locked(std::size_t i);
  void eject_locked(std::size_t i, EjectReason reason, double now);
  /// take_results() from slot `i`'s live server and accept/drop each.
  void collect_locked(std::size_t i);
  void accept_locked(std::uint32_t i, RequestResult result);
  /// Marks a pending entry for replay (or sheds it past max_replays).
  void schedule_replay_locked(std::uint64_t id, double now);
  void resolve_shed_locked(std::uint64_t id);
  /// Health checks + chaos triggers + probation promotion for one tick.
  void control_step();
  /// Dispatches a pending entry to a shard (initial or replay).
  ServeStatus dispatch_locked(std::uint64_t id, bool is_replay);
  void control_loop();

  RouterConfig config_;
  fault::ShardFaultModel chaos_model_;
  std::chrono::steady_clock::time_point epoch_;

  /// Ring point: (hash, shard), sorted by hash.  Immutable after build.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::vector<Shard> shards_;
  std::unordered_map<std::uint64_t, PendingEntry> pending_;
  std::vector<RequestResult> results_;
  std::uint64_t results_recorded_ = 0;  ///< lifetime, drives schedule_kill
  RouterStats stats_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> scheduled_kills_;
  bool draining_ = false;

  /// Retired servers finishing their in-flight batches off the hot path.
  std::vector<std::pair<std::shared_ptr<Server>, std::thread>> graveyard_;

  std::thread control_;
  std::atomic<bool> stop_control_{false};
};

}  // namespace spacefts::serve
