#include "spacefts/serve/server.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "spacefts/common/random.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sub-stream index of the admission-time ingress draw (drop / duplicate /
/// delay); the payload-corruption pattern uses job.cpp's kStreamIngress.
constexpr std::uint64_t kStreamAdmission = 0;

const char* const kStatusNames[] = {"ok",      "shed", "shutdown", "cancelled",
                                    "expired", "lost", "failed"};
const char* const kKindNames[] = {"ngst", "otis", "telemetry"};

}  // namespace

const char* to_string(ServeStatus status) noexcept {
  return kStatusNames[static_cast<std::size_t>(status)];
}

const char* to_string(JobKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool from_string(std::string_view name, JobKind& out) noexcept {
  return telemetry::jsonl::from_names(kKindNames, name, out);
}

/// One formed batch: the head entry plus same-shape followers.
struct Server::Batch {
  std::vector<QueueEntry> entries;
};

Server::Server(const ServerConfig& config)
    : config_(config),
      ingress_model_(config.exec.ingress),  // validates the fault config
      resolved_kernel_(core::resolve_kernel(config.exec.kernel)),
      epoch_(std::chrono::steady_clock::now()),
      queue_(config.capacity) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("serve: max_batch must be > 0");
  }
  if (config_.admission_timeout_ms < 0.0) {
    throw std::invalid_argument("serve: negative timeout");
  }
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { drain(); }

double Server::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

ServeStatus Server::submit(const Request& request) {
  validate_job(request.job, config_.exec);

  auto state = std::make_shared<RequestState>();
  state->request = request;
  state->submit_ms = now_ms();
  state->deadline_abs_ms = request.deadline_ms > 0.0
                               ? state->submit_ms + request.deadline_ms
                               : kInf;
  {
    // Register first: the emplace doubles as the duplicate-id check, and a
    // cancel() racing this submit can already find the request.
    std::lock_guard lock(mutex_);
    if (!live_.emplace(request.id, state).second) {
      throw std::invalid_argument("serve: duplicate live request id");
    }
    ++stats_.submitted;
  }

  // The request crosses the ingress link before it reaches the queue.
  // Outcomes are drawn from a stream derived from the request id alone, so
  // the same workload replays the same fates at any thread count.
  if (!ingress_model_.config().perfect()) {
    common::Rng rng(
        common::derive_stream_seed(kIngressSeed, request.id, kStreamAdmission));
    const auto outcome = ingress_model_.sample(rng);
    bool dropped = false;
    RequestResult lost_result;
    {
      std::lock_guard lock(mutex_);
      if (outcome.duplicates > 0) {
        // The receiver dedups redundant deliveries; account, then proceed.
        stats_.ingress_duplicates += outcome.duplicates;
        telemetry::counter("serve.ingress_duplicates").add(outcome.duplicates);
      }
      if (outcome.corrupted) {
        state->corrupt_ingress = true;
        ++stats_.ingress_corrupted;
        telemetry::counter("serve.ingress_corrupted").add();
      }
      if (outcome.extra_delay_s > 0.0) {
        telemetry::histogram("serve.ingress_delay_s")
            .record(outcome.extra_delay_s);
      }
      if (outcome.dropped) {
        ++stats_.lost;
        telemetry::counter("serve.lost").add();
        lost_result.id = request.id;
        lost_result.kind = request.job.kind;
        lost_result.status = ServeStatus::kLost;
        lost_result.kernel = resolved_kernel_;
        live_.erase(request.id);
        results_.push_back(lost_result);
        dropped = true;
      }
    }
    if (dropped) {
      if (config_.on_result) config_.on_result(lost_result);
      return ServeStatus::kLost;
    }
  }

  QueueEntry entry;
  entry.priority = request.priority;
  entry.deadline_abs_ms = state->deadline_abs_ms;
  entry.shape = shape_of(request.job);
  entry.state = state;

  {
    std::lock_guard lock(mutex_);
    ++outstanding_;
  }
  const ServeStatus admitted =
      queue_.push(std::move(entry), config_.admission_timeout_ms);
  if (admitted != ServeStatus::kOk) {
    ServeStatus status;
    bool recorded = false;
    RequestResult reject_result;
    {
      std::lock_guard lock(mutex_);
      live_.erase(request.id);
      --outstanding_;
      status = admitted == ServeStatus::kShutdown ? ServeStatus::kShutdown
                                                  : ServeStatus::kShed;
      if (config_.record_rejects) {
        if (status == ServeStatus::kShed) {
          ++stats_.shed;
          telemetry::counter("serve.shed").add();
        }
        reject_result.id = request.id;
        reject_result.kind = request.job.kind;
        reject_result.status = status;
        reject_result.kernel = resolved_kernel_;
        results_.push_back(reject_result);
        recorded = true;
      }
      idle_cv_.notify_all();
    }
    if (recorded && config_.on_result) config_.on_result(reject_result);
    return status;
  }
  {
    std::lock_guard lock(mutex_);
    ++stats_.accepted;
  }
  telemetry::counter("serve.accepted").add();
  telemetry::gauge("serve.queue_depth")
      .set(static_cast<double>(queue_.size()));
  return ServeStatus::kOk;
}

bool Server::cancel(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second->cancelled.store(true, std::memory_order_relaxed);
  return true;
}

void Server::record(RequestResult result) {
  if (result.kernel == core::Kernel::kAuto) result.kernel = resolved_kernel_;
  // Observer first, outside mutex_: the control loop's fold can wake an
  // admission gate whose submitter immediately re-enters submit().
  if (config_.on_result) config_.on_result(result);
  {
    std::lock_guard lock(mutex_);
    switch (result.status) {
      case ServeStatus::kOk:
        ++stats_.completed;
        break;
      case ServeStatus::kCancelled:
        ++stats_.cancelled;
        break;
      case ServeStatus::kExpired:
        ++stats_.expired;
        break;
      case ServeStatus::kFailed:
        ++stats_.failed;
        break;
      case ServeStatus::kShed:
        ++stats_.shed;
        break;
      default:
        break;
    }
    live_.erase(result.id);
    results_.push_back(std::move(result));
  }
  finish_one();
}

void Server::finish_one() {
  std::lock_guard lock(mutex_);
  --outstanding_;
  if (outstanding_ == 0) idle_cv_.notify_all();
}

bool Server::next_batch(Batch& batch, bool blocking) {
  batch.entries.clear();
  auto head = blocking ? queue_.pop_best() : queue_.try_pop_best();
  if (!head) return false;
  const ShapeKey shape = head->shape;
  // The head's operating point may cap the batch below the server ceiling
  // (the control loop biases small batches when calm, large under
  // pressure).  A throwing tuner is ignored here — the hint is advisory,
  // and the compute-time resolution will surface the error per request.
  std::size_t budget = config_.max_batch;
  if (config_.exec.tuner) {
    try {
      const std::size_t hint =
          config_.exec.tuner(head->state->request).max_batch;
      if (hint > 0) budget = std::min(budget, hint);
    } catch (...) {
    }
  }
  batch.entries.push_back(std::move(*head));
  if (budget > 1) {
    auto extra = queue_.collect_batch(shape, budget - 1);
    for (auto& e : extra) batch.entries.push_back(std::move(e));
  }
  telemetry::gauge("serve.queue_depth")
      .set(static_cast<double>(queue_.size()));
  return true;
}

void Server::execute_batch(Batch& batch) {
  SPACEFTS_TSPAN("serve.batch",
                 {"size", static_cast<double>(batch.entries.size())},
                 {"priority",
                  static_cast<double>(batch.entries.front().priority)});
  {
    std::lock_guard lock(mutex_);
    ++stats_.batches;
  }
  telemetry::counter("serve.batches").add();
  telemetry::histogram("serve.batch_size")
      .record(static_cast<double>(batch.entries.size()));

  const double formed_ms = now_ms();
  for (auto& entry : batch.entries) {
    RequestState& state = *entry.state;
    const Request& request = state.request;
    const double wait_ms = formed_ms - state.submit_ms;
    telemetry::histogram("serve.queue_wait_s").record(wait_ms / 1e3);

    RequestResult result;
    if (state.cancelled.load(std::memory_order_relaxed)) {
      result.id = request.id;
      result.kind = request.job.kind;
      result.status = ServeStatus::kCancelled;
      telemetry::counter("serve.cancelled").add();
    } else if (formed_ms > state.deadline_abs_ms) {
      result.id = request.id;
      result.kind = request.job.kind;
      result.status = ServeStatus::kExpired;
      telemetry::counter("serve.expired").add();
      telemetry::instant("serve.deadline_miss",
                         {"id", static_cast<double>(request.id)});
    } else {
      const double start_ms = now_ms();
      if (config_.pre_execute) config_.pre_execute(request);
      result = execute_job(request, state.corrupt_ingress, config_.exec);
      result.service_ms = now_ms() - start_ms;
    }
    result.queue_wait_ms = wait_ms;
    result.e2e_ms = now_ms() - state.submit_ms;
    result.batch_size = batch.entries.size();
    telemetry::histogram("serve.e2e_latency_s").record(result.e2e_ms / 1e3);
    record(std::move(result));
  }
}

void Server::worker_loop() {
  Batch batch;
  while (next_batch(batch, /*blocking=*/true)) execute_batch(batch);
}

std::size_t Server::step() {
  Batch batch;
  // Manual stepping never blocks on an empty queue (a racing worker may
  // steal between any check and the pop, so the pop itself is the check).
  if (!next_batch(batch, /*blocking=*/false)) return 0;
  execute_batch(batch);
  return batch.entries.size();
}

void Server::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void Server::drain() {
  std::lock_guard drain_lock(drain_mutex_);
  if (joined_) return;
  queue_.close();
  // Flush everything still queued: those requests are shed, not lost —
  // their producers get a definitive answer.
  for (auto& entry : queue_.drain()) {
    RequestResult result;
    result.id = entry.state->request.id;
    result.kind = entry.state->request.job.kind;
    result.status = ServeStatus::kShed;
    telemetry::counter("serve.drain_flushed").add();
    record(std::move(result));
  }
  // In-flight batches complete; workers exit on the closed+empty queue.
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  // A race window exists where a worker popped entries before close() but
  // had not yet retired them — record() above and in the worker both
  // handle their own entries, so every request retires exactly once.
  joined_ = true;
  telemetry::gauge("serve.queue_depth").set(0.0);
}

std::vector<RequestResult> Server::take_results() {
  std::lock_guard lock(mutex_);
  return std::exchange(results_, {});
}

ServerStats Server::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t Server::outstanding() const {
  std::lock_guard lock(mutex_);
  return outstanding_;
}

}  // namespace spacefts::serve
