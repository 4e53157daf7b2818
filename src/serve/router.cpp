#include "spacefts/serve/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "spacefts/common/backoff.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::serve {
namespace {

/// Sub-stream salts of the router's seeded draws.  Fixed and documented so
/// ring geometry, key placement, and replay jitter replay forever.
enum RouterStream : std::uint64_t {
  kStreamRing = 0x52494e47,    ///< ring point of (shard, replica)
  kStreamKey = 0x4b4559,       ///< routing-key hash
  kStreamReplay = 0x5250,      ///< replay-backoff jitter of (id, attempt)
};

/// First replay delay of the shared backoff law.
constexpr double kReplayBackoffMs = 1.0;

/// Ring points per shard.  More points smooth the key distribution; 32
/// keeps the worst shard within ~±20% of the mean.
constexpr std::size_t kVirtualNodes = 32;

}  // namespace

double replay_backoff_ms(const RouterConfig& config, std::uint64_t id,
                         std::uint32_t attempt) {
  if (attempt == 0) return 0.0;
  common::Rng rng(common::derive_stream_seed(
      common::derive_stream_seed(config.seed, kStreamReplay, id), attempt,
      0));
  return common::backoff_delay(kReplayBackoffMs, attempt, rng.uniform());
}

/// Chaos state shared between the router (trigger checks) and the shard's
/// pre_execute hook (worker threads).  The hook never takes the router
/// lock — it reads the immutable plan and its own atomics.
struct Router::ChaosState {
  fault::ShardFaultPlan plan{};
  std::atomic<std::uint64_t> executed{0};     ///< requests entering compute
  std::atomic<double> slow_until_ms{0.0};     ///< kSlow window end (router clock)
};

struct Router::Shard {
  std::shared_ptr<Server> server;  ///< null while kEjected
  std::shared_ptr<ChaosState> chaos;
  ShardState state = ShardState::kHealthy;
  std::uint64_t epoch = 0;
  double heartbeat_ms = 0.0;       ///< last observed progress
  std::uint64_t last_retired = 0;  ///< retired-count snapshot behind it
  std::uint32_t consec_failures = 0;
  std::uint32_t mismatch_burst = 0;  ///< consecutive shadow-overruled results
  double congested_since_ms = -1.0;  ///< < 0 when the queue has room
  double eject_at_ms = 0.0;
  std::uint32_t probation_ok = 0;  ///< completions since reboot
  std::uint64_t completed_total = 0;
  std::uint64_t ejections = 0;
  bool crash_fired = false;
  std::string depth_gauge;  ///< prebuilt "serve.shard.<i>.queue_depth"
  std::string state_gauge;  ///< prebuilt "serve.shard.<i>.state"
};

struct Router::PendingEntry {
  Request request;
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint32_t attempts = 0;  ///< replay dispatches so far
  bool awaiting = false;       ///< waiting out a replay backoff
  double due_ms = 0.0;
};

Router::Router(const RouterConfig& config)
    : config_(config),
      chaos_model_(config.chaos),  // validates the chaos config
      epoch_(std::chrono::steady_clock::now()) {
  if (config_.shards == 0) {
    throw std::invalid_argument("router: shards must be > 0");
  }
  validate_policy(config_.health);

  ring_.reserve(config_.shards * kVirtualNodes);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    const std::uint64_t shard_base =
        common::derive_stream_seed(config_.seed, kStreamRing, s);
    for (std::uint64_t r = 0; r < kVirtualNodes; ++r) {
      ring_.emplace_back(common::derive_stream_seed(shard_base, r, 0), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  shards_.resize(config_.shards);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards_[i].depth_gauge =
          "serve.shard." + std::to_string(i) + ".queue_depth";
      shards_[i].state_gauge =
          "serve.shard." + std::to_string(i) + ".state";
      boot_shard_locked(i);
      shards_[i].state = ShardState::kHealthy;  // the fleet starts trusted
    }
  }
  // Threaded mode: a control thread runs collection / health / replay
  // continuously.  Manual mode (shard workers == 0): the owner pumps.
  if (config_.shard.workers > 0) {
    control_ = std::thread([this] { control_loop(); });
  }
}

Router::~Router() { drain(); }

double Router::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t Router::key_of(const Request& request) const noexcept {
  return request.stream != 0 ? request.stream : request.id;
}

std::uint32_t Router::shard_of(std::uint64_t key) const {
  const std::uint64_t h =
      common::derive_stream_seed(config_.seed, key, kStreamKey);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& point, std::uint64_t value) { return point.first < value; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

bool Router::routable_locked(std::uint32_t i) const {
  return shards_[i].server != nullptr &&
         shards_[i].state != ShardState::kEjected;
}

std::optional<std::uint32_t> Router::route_locked(std::uint64_t key) const {
  const std::uint64_t h =
      common::derive_stream_seed(config_.seed, key, kStreamKey);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& point, std::uint64_t value) { return point.first < value; });
  // Walk the ring from the owner to the first routable shard: a dead
  // shard's keys fall to its ring successors; everyone else's stay put.
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (routable_locked(it->second)) return it->second;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> Router::least_loaded_locked(
    std::optional<std::uint32_t> excluding) const {
  std::optional<std::uint32_t> best;
  std::size_t best_load = 0;
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    if (!routable_locked(i) || (excluding && *excluding == i)) continue;
    const std::size_t load = shards_[i].server->outstanding();
    if (!best || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

void Router::boot_shard_locked(std::size_t i) {
  Shard& slot = shards_[i];
  auto chaos = std::make_shared<ChaosState>();
  if (!chaos_model_.config().perfect()) {
    chaos->plan = chaos_model_.plan(i, slot.epoch);
  }

  ServerConfig sc = config_.shard;
  // The router owns admission: shards reject fast so rejections can spill,
  // and record nothing for them so accounting stays single-writer.
  sc.admission_timeout_ms = 0.0;
  sc.record_rejects = false;
  // Shard-level observers would see replayed executions once per epoch;
  // the router's own exactly-once on_result replaces them.
  sc.on_result = nullptr;
  const auto user_hook = config_.shard.pre_execute;
  sc.pre_execute = [this, chaos, user_hook](const Request& request) {
    const auto& plan = chaos->plan;
    if (plan.kind != fault::ShardFaultKind::kNone) {
      const std::uint64_t n =
          chaos->executed.fetch_add(1, std::memory_order_relaxed);
      if (plan.kind == fault::ShardFaultKind::kStall) {
        if (n == plan.after_completed) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(plan.stall_ms));
        }
      } else if (plan.kind == fault::ShardFaultKind::kSlow) {
        if (n == plan.after_completed) {
          chaos->slow_until_ms.store(now_ms() + fault::kSlowWindowMs,
                                     std::memory_order_relaxed);
        }
        if (now_ms() < chaos->slow_until_ms.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(fault::kSlowMs));
        }
      }
      // kCrash: the control loop watches `executed` and kills the shard.
    }
    if (user_hook) user_hook(request);
  };

  slot.server = std::make_shared<Server>(sc);
  slot.chaos = std::move(chaos);
  slot.state = ShardState::kProbation;  // ctor resets epoch-0 boots
  slot.heartbeat_ms = now_ms();
  slot.last_retired = 0;
  slot.consec_failures = 0;
  slot.mismatch_burst = 0;
  slot.congested_since_ms = -1.0;
  slot.probation_ok = 0;
  slot.crash_fired = false;
}

ServeStatus Router::submit(const Request& request) {
  validate_job(request.job, config_.shard.exec);
  std::lock_guard lock(mutex_);
  ++stats_.submitted;
  if (draining_) {
    RequestResult result;
    result.id = request.id;
    result.kind = request.job.kind;
    result.status = ServeStatus::kShutdown;
    result.kernel = core::resolve_kernel(config_.shard.exec.kernel);
    if (config_.on_result) config_.on_result(result);
    results_.push_back(std::move(result));
    ++results_recorded_;
    return ServeStatus::kShutdown;
  }
  if (pending_.count(request.id) != 0) {
    --stats_.submitted;  // the throw unwinds the submission
    throw std::invalid_argument("router: duplicate pending request id");
  }
  PendingEntry entry;
  entry.request = request;
  pending_.emplace(request.id, std::move(entry));
  return dispatch_locked(request.id, /*is_replay=*/false);
}

ServeStatus Router::dispatch_locked(std::uint64_t id, bool is_replay) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return ServeStatus::kShed;  // already resolved
  PendingEntry& entry = it->second;
  const std::uint64_t key = key_of(entry.request);

  std::optional<std::uint32_t> target = route_locked(key);
  for (int hop = 0; hop < 2 && target; ++hop) {
    entry.shard = *target;
    entry.epoch = shards_[*target].epoch;
    entry.awaiting = false;
    const ServeStatus admitted =
        shards_[*target].server->submit(entry.request);
    if (admitted == ServeStatus::kOk) {
      if (!is_replay) ++stats_.accepted;
      return ServeStatus::kOk;
    }
    if (admitted == ServeStatus::kLost) {
      // The shard recorded the kLost result; collection will accept it.
      return ServeStatus::kLost;
    }
    // Rejected (queue full / draining): one spill to the least-loaded
    // healthy shard, then give up.
    target = least_loaded_locked(*target);
    if (target) {
      ++stats_.spills;
      telemetry::counter("serve.router.spills").add();
    }
  }

  if (is_replay) {
    // A replay that found no room tries again after another backoff (and
    // sheds once its budget runs out) — replayed work is never dropped on
    // the floor just because the fleet was momentarily full.
    schedule_replay_locked(id, now_ms());
    return ServeStatus::kShed;
  }
  resolve_shed_locked(id);
  return ServeStatus::kShed;
}

void Router::schedule_replay_locked(std::uint64_t id, double now) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingEntry& entry = it->second;
  if (entry.attempts >= config_.max_replays) {
    resolve_shed_locked(id);
    return;
  }
  ++entry.attempts;
  entry.awaiting = true;
  entry.due_ms = now + replay_backoff_ms(config_, id, entry.attempts);
  ++stats_.replays;
  telemetry::counter("serve.router.replays").add();
}

void Router::resolve_shed_locked(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  RequestResult result;
  result.id = id;
  result.kind = it->second.request.job.kind;
  result.status = ServeStatus::kShed;
  result.kernel = core::resolve_kernel(config_.shard.exec.kernel);
  result.shard = it->second.shard;
  result.replays = it->second.attempts;
  pending_.erase(it);
  ++stats_.shed;
  telemetry::counter("serve.router.shed").add();
  if (config_.on_result) config_.on_result(result);
  results_.push_back(std::move(result));
  ++results_recorded_;
  if (pending_.empty()) idle_cv_.notify_all();
}

void Router::accept_locked(std::uint32_t i, RequestResult result) {
  const auto it = pending_.find(result.id);
  if (it == pending_.end() || it->second.shard != i ||
      it->second.epoch != shards_[i].epoch || it->second.awaiting) {
    // The request has been replayed (or resolved) elsewhere: this result
    // belongs to a retired epoch.  Dropping it is what makes delivery
    // exactly-once.
    ++stats_.stale_results;
    telemetry::counter("serve.router.stale_results").add();
    return;
  }
  Shard& slot = shards_[i];
  result.shard = i;
  result.replays = it->second.attempts;
  switch (result.status) {
    case ServeStatus::kOk:
      ++stats_.completed;
      ++slot.completed_total;
      ++slot.probation_ok;
      slot.consec_failures = 0;
      // The shadow guard overruling this shard's compute is a health
      // signal, not a payload error (the result already carries the
      // trusted bytes): track the burst for the ejection policy.
      if (result.backend_mismatch) {
        ++slot.mismatch_burst;
        telemetry::counter("serve.router.backend_mismatches").add();
      } else {
        slot.mismatch_burst = 0;
      }
      break;
    case ServeStatus::kFailed:
      ++stats_.failed;
      ++slot.consec_failures;
      break;
    case ServeStatus::kShed:  // drain flush of a shard being retired
      ++stats_.shed;
      break;
    case ServeStatus::kLost:
      ++stats_.lost;
      break;
    case ServeStatus::kCancelled:
      ++stats_.cancelled;
      break;
    case ServeStatus::kExpired:
      ++stats_.expired;
      break;
    default:
      break;
  }
  pending_.erase(it);
  if (config_.on_result) config_.on_result(result);
  results_.push_back(std::move(result));
  ++results_recorded_;
  if (pending_.empty()) idle_cv_.notify_all();
}

void Router::collect_locked(std::size_t i) {
  if (!shards_[i].server) return;
  for (auto& result : shards_[i].server->take_results()) {
    accept_locked(static_cast<std::uint32_t>(i), std::move(result));
  }
}

void Router::eject_locked(std::size_t i, EjectReason reason, double now) {
  Shard& slot = shards_[i];
  if (slot.state == ShardState::kEjected || !slot.server) return;
  // Harvest what the shard already finished — completed work survives the
  // ejection; only genuinely unfinished requests replay.
  collect_locked(i);

  ++stats_.ejections;
  ++slot.ejections;
  if (reason == EjectReason::kKilled) ++stats_.kills;
  telemetry::counter("serve.router.ejections").add();
  telemetry::instant("serve.router.eject",
                     {"shard", static_cast<double>(i)},
                     {"reason", static_cast<double>(reason)});

  // Retire the server to the graveyard: its drain (in-flight batches, a
  // possibly mid-stall worker) must not block the control loop.  Results
  // it records from here on are stale by construction — the epoch bumps
  // below.
  auto server = std::move(slot.server);
  graveyard_.emplace_back(server, std::thread([server] { server->drain(); }));
  slot.server = nullptr;
  slot.chaos = nullptr;
  slot.state = ShardState::kEjected;
  slot.eject_at_ms = now;
  const std::uint64_t old_epoch = slot.epoch;
  ++slot.epoch;

  // Everything still pending on the dead epoch replays elsewhere.
  std::vector<std::uint64_t> to_replay;
  for (const auto& [id, entry] : pending_) {
    if (entry.shard == i && entry.epoch == old_epoch && !entry.awaiting) {
      to_replay.push_back(id);
    }
  }
  for (const std::uint64_t id : to_replay) schedule_replay_locked(id, now);
}

void Router::kill_shard(std::size_t i) {
  if (i >= shards_.size()) {
    throw std::invalid_argument("router: shard index out of range");
  }
  std::lock_guard lock(mutex_);
  if (draining_) return;
  eject_locked(i, EjectReason::kKilled, now_ms());
}

void Router::schedule_kill(std::size_t i, std::uint64_t after_results) {
  if (i >= shards_.size()) {
    throw std::invalid_argument("router: shard index out of range");
  }
  std::lock_guard lock(mutex_);
  scheduled_kills_.emplace_back(static_cast<std::uint32_t>(i), after_results);
}

void Router::control_step() {
  std::lock_guard lock(mutex_);
  if (draining_) return;
  const double now = now_ms();

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& slot = shards_[i];
    if (slot.state == ShardState::kEjected) {
      if (now - slot.eject_at_ms >= config_.health.probation_ms) {
        boot_shard_locked(i);  // reboot into probation, next epoch
      } else {
        continue;
      }
    }
    collect_locked(i);

    // Chaos crash: the plan fires once the shard has started enough work.
    if (slot.chaos && !slot.crash_fired &&
        slot.chaos->plan.kind == fault::ShardFaultKind::kCrash) {
      const std::uint64_t executed =
          slot.chaos->executed.load(std::memory_order_relaxed);
      if (executed > 0 && executed >= slot.chaos->plan.after_completed) {
        slot.crash_fired = true;
        eject_locked(i, EjectReason::kKilled, now);
        continue;
      }
    }

    // Vitals → pure policy decision.
    const ServerStats st = slot.server->stats();
    const std::uint64_t retired = st.completed + st.failed + st.cancelled +
                                  st.expired + st.shed + st.lost;
    const std::size_t outstanding = slot.server->outstanding();
    if (retired != slot.last_retired || outstanding == 0) {
      slot.last_retired = retired;
      slot.heartbeat_ms = now;
    }
    ShardVitals vitals;
    vitals.heartbeat_age_ms = now - slot.heartbeat_ms;
    vitals.has_work = outstanding > 0;
    vitals.consecutive_failures = slot.consec_failures;
    vitals.mismatch_burst = slot.mismatch_burst;
    const std::size_t depth = slot.server->queue_depth();
    if (depth >= config_.shard.capacity) {
      if (slot.congested_since_ms < 0.0) slot.congested_since_ms = now;
      vitals.congested_ms = now - slot.congested_since_ms;
    } else {
      slot.congested_since_ms = -1.0;
    }
    telemetry::gauge(slot.depth_gauge.c_str())
        .set(static_cast<double>(depth));
    telemetry::gauge(slot.state_gauge.c_str())
        .set(static_cast<double>(slot.state));

    const EjectReason reason = should_eject(config_.health, vitals);
    if (reason != EjectReason::kNone) {
      eject_locked(i, reason, now);
      continue;
    }
    if (slot.state == ShardState::kProbation &&
        slot.probation_ok >= config_.health.probation_successes) {
      slot.state = ShardState::kHealthy;
      ++stats_.readmissions;
      telemetry::counter("serve.router.readmissions").add();
    }
  }

  // Armed kills fire once the router has recorded enough results.  They
  // are checked after this step's collection, so a run whose last results
  // arrive in this step has seen its kill before wait_idle() returns.
  for (auto it = scheduled_kills_.begin(); it != scheduled_kills_.end();) {
    if (results_recorded_ >= it->second) {
      const std::uint32_t victim = it->first;
      it = scheduled_kills_.erase(it);
      eject_locked(victim, EjectReason::kKilled, now);
    } else {
      ++it;
    }
  }

  // Replays whose backoff has elapsed go back out.
  std::vector<std::uint64_t> due;
  for (const auto& [id, entry] : pending_) {
    if (entry.awaiting && now >= entry.due_ms) due.push_back(id);
  }
  for (const std::uint64_t id : due) {
    (void)dispatch_locked(id, /*is_replay=*/true);
  }
}

void Router::control_loop() {
  while (!stop_control_.load(std::memory_order_relaxed)) {
    control_step();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::size_t Router::pump() {
  std::vector<std::shared_ptr<Server>> servers;
  {
    std::lock_guard lock(mutex_);
    for (const Shard& slot : shards_) {
      if (slot.server) servers.push_back(slot.server);
    }
  }
  std::size_t retired = 0;
  for (const auto& server : servers) retired += server->step();
  control_step();
  return retired;
}

void Router::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_.empty(); });
}

void Router::drain() {
  {
    std::lock_guard lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  stop_control_.store(true, std::memory_order_relaxed);
  if (control_.joinable()) control_.join();

  // Drain the live fleet without the lock: in-flight batches complete and
  // queued requests flush as kShed results we then collect normally.
  std::vector<std::shared_ptr<Server>> live;
  {
    std::lock_guard lock(mutex_);
    for (const Shard& slot : shards_) {
      if (slot.server) live.push_back(slot.server);
    }
  }
  for (const auto& server : live) server->drain();
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < shards_.size(); ++i) collect_locked(i);
  }

  // The graveyard finishes off the hot path; anything those servers still
  // recorded belongs to retired epochs.
  for (auto& [server, thread] : graveyard_) {
    if (thread.joinable()) thread.join();
  }
  {
    std::lock_guard lock(mutex_);
    for (auto& [server, thread] : graveyard_) {
      const std::size_t stale = server->take_results().size();
      stats_.stale_results += stale;
      if (stale > 0) {
        telemetry::counter("serve.router.stale_results").add(stale);
      }
    }
    graveyard_.clear();
    // Whatever is still pending was awaiting a replay that will never be
    // dispatched: account it as shed so the exactly-once ledger closes.
    std::vector<std::uint64_t> leftover;
    leftover.reserve(pending_.size());
    for (const auto& [id, entry] : pending_) leftover.push_back(id);
    for (const std::uint64_t id : leftover) resolve_shed_locked(id);
    idle_cv_.notify_all();
  }
}

std::vector<RequestResult> Router::take_results() {
  std::lock_guard lock(mutex_);
  return std::exchange(results_, {});
}

RouterStats Router::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

ShardSnapshot Router::shard(std::size_t i) const {
  if (i >= shards_.size()) {
    throw std::invalid_argument("router: shard index out of range");
  }
  std::lock_guard lock(mutex_);
  const Shard& slot = shards_[i];
  ShardSnapshot snapshot;
  snapshot.state = slot.state;
  snapshot.epoch = slot.epoch;
  snapshot.queue_depth = slot.server ? slot.server->queue_depth() : 0;
  snapshot.completed = slot.completed_total;
  snapshot.ejections = slot.ejections;
  return snapshot;
}

std::size_t Router::pending() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

}  // namespace spacefts::serve
