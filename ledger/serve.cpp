/// \file serve.cpp
/// The serve workloads.
///
/// serve_mixed: one serve::Server (2 workers, capacity 256, max_batch 8,
/// reject-on-full) fed by an open-loop Poisson generator at three fixed
/// rates — 500 and 900 req/s below the knee, 2600 req/s past it.
///
/// serve_chaos: serve::Router (2 shards × 1 worker) driven by one closed-loop
/// client, computing through ShadowBackend (every request re-executed on a
/// trusted CpuBackend guard) over an UnreliableBackend that silently
/// corrupts 5% of outputs, with shard 1 killed halfway through.
///
/// One generator thread submits every request.  Open loop (serve_mixed):
/// each at its due time; latency is measured from the due time to the
/// result callback, so a stall that delays later submissions is charged to
/// them.  Closed loop (serve_chaos): each as soon as the previous result
/// has arrived; latency is measured from submission to the result callback.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ledger.hpp"
#include "spacefts/backend/backend.hpp"
#include "spacefts/serve/job.hpp"
#include "spacefts/serve/router.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"

namespace ledger {
namespace {

namespace common = spacefts::common;
namespace core = spacefts::core;
namespace fault = spacefts::fault;
namespace sb = spacefts::backend;
namespace ss = spacefts::serve;

/// A step whose generator ran later than this at p99 measured a noisy
/// host, not the server; it is rerun, and the run is marked invalid if no
/// attempt keeps the schedule.
constexpr double kLagLimitMs = 1.0;
/// One rerun at most: a host that starves the generator twice in a row is
/// rarely better on a third try, and each attempt costs a full step.
constexpr std::size_t kStepAttempts = 2;
/// p99 latency limit at the fixed rates below the knee.
constexpr double kLatencyLimitMs = 10.0;
/// serve_mixed re-verifies every 16th request on the trusted path.
constexpr std::size_t kVerifyStride = 16;
/// Requests executed inline during set-up, so lazy initialisation and
/// allocator warm-up happen before timing.
constexpr std::size_t kWarmupRequests = 256;
/// Verification threads, counting the main one; it runs after every server
/// thread has been joined, so the process stays within four threads.
constexpr std::size_t kVerifyThreads = 4;
/// Untraced runs calibrate host speed on the worker after every 8th
/// request's compute, about 1% of a worker's time.
constexpr std::uint64_t kCalibrationStride = 8;
/// serve_mixed gives each step its own id range, so spans and the Chrome
/// trace never confuse two steps' requests.
constexpr std::uint64_t kStepIdStride = 1'000'000'000;
/// serve_chaos requests per second of run length.  The closed-loop client
/// completes one every ~2.5 ms on the reference host (shadowed compute), so
/// this fills about the run length; the count is fixed, not the time, so
/// the shadow decisions and mismatches repeat exactly for a seed.
constexpr double kChaosRequestsPerSecond = 400.0;

/// Traced runs record spans for even ids only; the odd ids are the
/// untraced control group for trace.overhead_frac.
bool traced_id(std::uint64_t id) { return id % 2 == 0; }

ss::WorkloadSpec mix_spec(std::uint64_t seed, double rate_hz,
                          double seconds) {
  ss::WorkloadSpec spec;
  spec.seed = seed;
  spec.rate_hz = rate_hz;
  spec.requests = static_cast<std::size_t>(
      std::max(1.0, std::round(rate_hz * seconds)));
  spec.telemetry_fraction = 0.20;
  // OTIS is drawn from the non-telemetry remainder: 0.3125 of the
  // remaining 80% makes a quarter of all requests.
  spec.otis_fraction = 0.3125;
  spec.ngst_side = 32;
  spec.ngst_frames = 16;
  spec.otis_side = 24;
  spec.otis_bands = 6;
  spec.telemetry_channels = 32;
  spec.telemetry_samples = 64;
  return spec;
}

/// Science-product pixels of one request: its repaired output voxels.
double product_px(const ss::JobSpec& job) {
  const double side = static_cast<double>(job.side);
  const double frames = static_cast<double>(job.frames);
  return job.kind == ss::JobKind::kTelemetry ? side * frames
                                             : side * side * frames;
}

/// Records one span per call around an inner backend.  name() passes
/// through, so results read exactly as without the decorator.
class TimedBackend final : public sb::Backend {
 public:
  TimedBackend(std::shared_ptr<sb::Backend> inner, const char* span,
               Tracer& tracer)
      : inner_(std::move(inner)), span_(span), tracer_(tracer) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

  core::AlgoNgstReport preprocess(
      common::TemporalStack<std::uint16_t>& stack,
      const core::AlgoNgstConfig& config, const sb::ComputeMeta& meta,
      sb::ComputeOutcome* outcome) override {
    const Scope s(traced_id(meta.request_id) ? &tracer_ : nullptr, span_,
                  meta.request_id);
    return inner_->preprocess(stack, config, meta, outcome);
  }

  core::AlgoOtisReport preprocess(common::Cube<float>& radiance,
                                  std::span<const double> wavelengths_um,
                                  const core::AlgoOtisConfig& config,
                                  const sb::ComputeMeta& meta,
                                  sb::ComputeOutcome* outcome) override {
    const Scope s(traced_id(meta.request_id) ? &tracer_ : nullptr, span_,
                  meta.request_id);
    return inner_->preprocess(radiance, wavelengths_um, config, meta,
                              outcome);
  }

 private:
  std::shared_ptr<sb::Backend> inner_;
  const char* span_;
  Tracer& tracer_;
};

/// Runs the calibration kernel (ledger.hpp) on the serve worker thread
/// after the compute of every kCalibrationStride-th request id, so an
/// untraced run measures the speed of the cores doing the work.  name()
/// passes through.
class CalibratedBackend final : public sb::Backend {
 public:
  explicit CalibratedBackend(std::shared_ptr<sb::Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

  core::AlgoNgstReport preprocess(
      common::TemporalStack<std::uint16_t>& stack,
      const core::AlgoNgstConfig& config, const sb::ComputeMeta& meta,
      sb::ComputeOutcome* outcome) override {
    auto report = inner_->preprocess(stack, config, meta, outcome);
    sample(meta.request_id);
    return report;
  }

  core::AlgoOtisReport preprocess(common::Cube<float>& radiance,
                                  std::span<const double> wavelengths_um,
                                  const core::AlgoOtisConfig& config,
                                  const sb::ComputeMeta& meta,
                                  sb::ComputeOutcome* outcome) override {
    auto report =
        inner_->preprocess(radiance, wavelengths_um, config, meta, outcome);
    sample(meta.request_id);
    return report;
  }

  /// Moves the samples taken so far into \p cal, timed from \p start.
  void take(Clock::time_point start, Calibration& cal) {
    const std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < at_.size(); ++i) {
      cal.at_s.push_back(ms_between(start, at_[i]) / 1e3);
      cal.ms.push_back(ms_[i]);
    }
    at_.clear();
    ms_.clear();
  }

 private:
  void sample(std::uint64_t id) {
    if (id % kCalibrationStride != 0) return;
    const auto at = Clock::now();
    const double ms = calibrate_ms();
    const std::lock_guard lock(mutex_);
    at_.push_back(at);
    ms_.push_back(ms);
  }

  std::shared_ptr<sb::Backend> inner_;
  std::mutex mutex_;  ///< guards at_ and ms_
  std::vector<Clock::time_point> at_;
  std::vector<double> ms_;
};

/// One attempt at one fixed-rate step, indexed by position in the step's
/// workload (request id = id_base + position).
struct StepRun {
  std::uint64_t id_base = 0;
  std::vector<Clock::time_point> due;
  std::vector<Clock::time_point> sent;      ///< submit() entered
  std::vector<Clock::time_point> returned;  ///< submit() returned
  std::vector<Clock::time_point> done;      ///< result callback
  std::vector<ss::RequestResult> results;
  std::vector<std::size_t> result_count;
  Clock::time_point start;
  std::size_t queue_depth_max = 0;
  std::size_t span_mark = 0;  ///< first tracer span of this attempt
  double lag_p99_ms = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t shed = 0;
  ss::RouterStats router;
  Calibration cal;  ///< untraced runs: worker-side host speed
};

/// Submits \p items through the front end \p make builds (a Server or a
/// Router), waits for every result, and drains.  Open loop: each item at
/// its arrival time.  \p closed_loop: each item once the previous one's
/// result has arrived, its due time being that moment.  A traced run also
/// samples \p depth after each submit.  \p finish reads the front end's
/// counters after the drain.  \p probe, when set, is the compute path's
/// calibrating decorator; its samples of this attempt land in the run.
template <typename Make, typename Depth, typename Finish>
StepRun run_step(const std::vector<ss::WorkloadItem>& items,
                 std::uint64_t id_base, bool closed_loop, Tracer* tracer,
                 CalibratedBackend* probe, Make make, Depth depth,
                 Finish finish) {
  const std::size_t n = items.size();
  StepRun run;
  run.id_base = id_base;
  run.due.resize(n);
  run.sent.resize(n);
  run.returned.resize(n);
  run.done.resize(n);
  run.results.resize(n);
  run.result_count.assign(n, 0);
  run.span_mark = tracer ? tracer->spans().size() : 0;

  // Declared before the front end, which calls back into them until it is
  // destroyed.
  std::mutex results_mutex;
  std::condition_variable results_cv;
  std::size_t results_seen = 0;  // guarded by results_mutex
  auto front = make([&](const ss::RequestResult& result) {
    run.done[result.id - run.id_base] = Clock::now();
    if (!closed_loop) return;
    {
      const std::lock_guard lock(results_mutex);
      ++results_seen;
    }
    results_cv.notify_one();
  });
  // A short lead keeps the first due time from being already past.
  run.start = Clock::now() + std::chrono::milliseconds(2);
  if (probe != nullptr) {
    Calibration earlier;  // a previous attempt's samples
    probe->take(run.start, earlier);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (closed_loop) {
      // Bounded, so a result that never arrives cannot hang the run; the
      // exactly-once gate reports it.
      std::unique_lock lock(results_mutex);
      results_cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return results_seen >= i; });
      run.due[i] = std::max(run.start, Clock::now());
    } else {
      run.due[i] = run.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       items[i].arrival_s));
    }
    std::this_thread::sleep_until(run.due[i]);
    const std::uint64_t id = items[i].request.id;
    run.sent[i] = Clock::now();
    {
      const Scope s(tracer && traced_id(id) ? tracer : nullptr,
                    "loadgen.submit", id);
      (void)front->submit(items[i].request);
    }
    run.returned[i] = Clock::now();
    if (tracer != nullptr) {
      run.queue_depth_max = std::max(run.queue_depth_max, depth(*front));
    }
  }
  front->wait_idle();
  front->drain();
  for (auto& result : front->take_results()) {
    const std::size_t i = result.id - id_base;
    ++run.result_count[i];
    run.results[i] = std::move(result);
  }
  finish(*front, run);
  front.reset();
  if (probe != nullptr) probe->take(run.start, run.cal);

  std::vector<double> lag(n);
  for (std::size_t i = 0; i < n; ++i) {
    lag[i] = ms_between(run.due[i], run.sent[i]);
  }
  run.lag_p99_ms = percentile_of(lag, 99.0);
  return run;
}

/// Reruns a step until its generator keeps the schedule, at most
/// kStepAttempts times.  Returns the last attempt and how many ran.  An
/// attempt is dropped before the next starts, so a rerun never holds two
/// attempts' results at once.
template <typename Once>
StepRun run_valid_step(Once once, std::size_t& attempts) {
  StepRun run;
  for (attempts = 1;; ++attempts) {
    run = StepRun{};
    run = once();
    if (run.lag_p99_ms <= kLagLimitMs || attempts == kStepAttempts) break;
  }
  return run;
}

/// Every kOk request of a step: latency from due time to result, the due
/// and completion times as offsets from the step's start, and product px.
struct OkSamples {
  std::vector<double> latency_ms;
  std::vector<double> due_s;
  std::vector<double> done_s;
  std::vector<double> px;
  double due_span_s = 0.0;   ///< offset of the last due time
  double done_span_s = 0.0;  ///< offset of the last kOk result

  /// The latency percentile \p p over blocks of due time (block_quartile).
  [[nodiscard]] double latency(double p, const Calibration* cal) const {
    return block_quartile(
        latency_ms, due_s, due_span_s,
        [p](std::span<const double> ms) { return percentile_of(ms, p); },
        Scale::kTime, cal);
  }
  /// Delivered product px/s over blocks of completion time.
  [[nodiscard]] double px_per_s(const Calibration* cal) const {
    const double block_s = done_span_s / static_cast<double>(kBlocks);
    return block_quartile(
        px, done_s, done_span_s,
        [block_s](std::span<const double> block) {
          double sum = 0.0;
          for (const double v : block) sum += v;
          return sum / block_s;
        },
        Scale::kRate, cal);
  }
};

OkSamples ok_samples(const StepRun& run,
                     const std::vector<ss::WorkloadItem>& items) {
  OkSamples out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double due = ms_between(run.start, run.due[i]) / 1e3;
    out.due_span_s = std::max(out.due_span_s, due);
    if (run.results[i].status != ss::ServeStatus::kOk) continue;
    out.latency_ms.push_back(ms_between(run.due[i], run.done[i]));
    out.due_s.push_back(due);
    const double done = ms_between(run.start, run.done[i]) / 1e3;
    out.done_s.push_back(done);
    out.done_span_s = std::max(out.done_span_s, done);
    out.px.push_back(product_px(items[i].request.job));
  }
  return out;
}

/// Adds p50, p90 and p99 of \p ok's latency as latency_ms_p<P>.<step>.
void add_latencies(const OkSamples& ok, const char* step, RunReport& report) {
  for (const int p : {50, 90, 99}) {
    report.add("latency_ms_p" + std::to_string(p) + "." + step,
               percentile_of(ok.latency_ms, p), "ms");
  }
}

/// Every request must resolve to exactly one result.
void check_exactly_once(const StepRun& run, const char* step,
                        RunReport& report) {
  std::size_t bad = 0;
  for (const std::size_t c : run.result_count) bad += c != 1 ? 1 : 0;
  if (bad > 0) {
    report.fail(std::string(step) + ": " + std::to_string(bad) +
                " requests without exactly one result");
  }
}

/// Recomputes the selected kOk results on the trusted inline path (a
/// default ExecContext: no backend, no faults) and returns how many served
/// checksums differ.  Runs on kVerifyThreads threads.
std::size_t count_escapes(const std::vector<ss::WorkloadItem>& items,
                          const StepRun& run, std::size_t stride) {
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < items.size(); i += stride) {
    if (run.results[i].status == ss::ServeStatus::kOk) picked.push_back(i);
  }
  std::vector<std::size_t> escapes(kVerifyThreads, 0);
  const auto verify = [&](std::size_t lane) {
    const ss::ExecContext trusted;
    for (std::size_t k = lane; k < picked.size(); k += kVerifyThreads) {
      const std::size_t i = picked[k];
      const auto expect = ss::execute_job(items[i].request, false, trusted);
      if (expect.status != ss::ServeStatus::kOk ||
          expect.checksum != run.results[i].checksum) {
        ++escapes[lane];
      }
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined on every exit path
    for (std::size_t lane = 1; lane < kVerifyThreads; ++lane) {
      helpers.emplace_back(verify, lane);
    }
    verify(0);
  }
  std::size_t total = 0;
  for (const std::size_t e : escapes) total += e;
  return total;
}

/// Set-up: \p build generates every step's workload and returns the first;
/// its leading requests then run inline so lazy initialisation and
/// allocator warm-up happen before timing.  Returns setup_s (ledger.hpp's
/// timed_setup); \p raw_s receives the wall-clock median.  A serve set-up
/// takes about 0.25 s, a tenth of an ngst_chain one, so it is repeated
/// three times as often to time a comparable interval.
template <typename Build>
double serve_setup(const Options& options, Build build, double& raw_s) {
  return timed_setup(
      3 * options.setup_reps,
      [&] {
        const std::vector<ss::WorkloadItem>& warm = build();
        const ss::ExecContext inline_ctx;
        for (std::size_t i = 0; i < std::min(kWarmupRequests, warm.size());
             ++i) {
          (void)ss::execute_job(warm[i].request, false, inline_ctx);
        }
      },
      raw_s);
}

/// The untraced end-to-end metrics of a serve workload: latency from the
/// \p latency step, throughput from the \p capacity step, a step whose
/// delivered rate the server's speed sets.
void end_to_end(const StepRun& latency_run, const OkSamples& latency,
                const StepRun& capacity_run, const OkSamples& capacity,
                double setup_s, double setup_wall_s, RunReport& report) {
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("throughput_px_per_s", capacity.px_per_s(&capacity_run.cal),
             "px/s");
  report.add("latency_ms_p50", latency.latency(50.0, &latency_run.cal), "ms");
  report.add("wall.setup_s", setup_wall_s, "s");
  report.add("wall.throughput_px_per_s", capacity.px_per_s(nullptr), "px/s");
  report.add("wall.latency_ms_p50", latency.latency(50.0, nullptr), "ms");
  report.add("host.calibration_ms", percentile_of(latency_run.cal.ms, 50.0),
             "ms");
}

/// Span times (ms) of one request.
struct RequestSpans {
  double submit = 0.0;   ///< the generator's submit() call
  double outer = 0.0;    ///< outermost backend call(s)
  double voter = 0.0;    ///< CpuBackend compute (the primary's, under shadow)
  double primary = 0.0;
  double guard = 0.0;
  double shadow = 0.0;
  std::size_t executions = 0;  ///< outermost backend calls; >1 when replayed
};

std::unordered_map<std::uint64_t, RequestSpans> fold_request_spans(
    const Tracer& tracer, std::size_t mark) {
  std::unordered_map<std::uint64_t, RequestSpans> out;
  const auto& spans = tracer.spans();
  for (std::size_t i = mark; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string name = s.name;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    RequestSpans& r = out[s.op];
    if (name == "loadgen.submit") {
      r.submit += ms;
      continue;
    }
    if (s.parent < 0) {
      r.outer += ms;
      ++r.executions;
    }
    if (name == "core.voter") r.voter += ms;
    if (name == "backend.primary") r.primary += ms;
    if (name == "backend.guard") r.guard += ms;
    if (name == "backend.shadow") r.shadow += ms;
  }
  return out;
}

/// Per-layer metrics of the headline step of a traced run.  \p shadowed
/// marks the Shadow(Unreliable(Cpu), Cpu) stack.  Requests executed more
/// than once (replayed after a shard kill) are left out: their spans add
/// up executions whose result was never delivered.
void layer_metrics(const StepRun& run,
                   const std::vector<ss::WorkloadItem>& items,
                   const Tracer& tracer, bool shadowed, RunReport& report) {
  const auto spans = fold_request_spans(tracer, run.span_mark);
  double sum_latency = 0.0, sum_lag = 0.0, sum_submit = 0.0, sum_queue = 0.0,
         sum_batch_wait = 0.0, sum_voter = 0.0, sum_noncompute = 0.0,
         sum_guard = 0.0, sum_shadow_overhead = 0.0, sum_spans = 0.0,
         voxels = 0.0, batch_sizes = 0.0;
  std::size_t traced = 0, ok = 0, replayed = 0;
  std::vector<double> queue_ms, batch_wait_ms, service_ms, noncompute_ms,
      ngst_ms, otis_ms, telemetry_ms, primary_ms, guard_ms, shadow_overhead_ms,
      traced_lat, untraced_lat, submit_us;
  for (std::size_t i = 0; i < items.size(); ++i) {
    submit_us.push_back(ms_between(run.sent[i], run.returned[i]) * 1e3);
    const ss::RequestResult& r = run.results[i];
    if (r.status != ss::ServeStatus::kOk) continue;
    ++ok;
    batch_sizes += static_cast<double>(r.batch_size);
    const std::uint64_t id = items[i].request.id;
    const double latency = ms_between(run.due[i], run.done[i]);
    if (!traced_id(id)) {
      untraced_lat.push_back(latency);
      continue;
    }
    traced_lat.push_back(latency);
    const auto it = spans.find(id);
    const RequestSpans s = it == spans.end() ? RequestSpans{} : it->second;
    if (s.executions > 1) {
      ++replayed;
      continue;
    }
    // Batch members execute one after another: the time a request spends
    // in a formed batch behind earlier members is neither queue wait (taken
    // at batch formation) nor its own service.
    const double batch_wait = r.e2e_ms - r.queue_wait_ms - r.service_ms;
    const double noncompute = r.service_ms - s.outer;
    queue_ms.push_back(r.queue_wait_ms);
    batch_wait_ms.push_back(batch_wait);
    service_ms.push_back(r.service_ms);
    noncompute_ms.push_back(noncompute);
    const ss::JobKind kind = items[i].request.job.kind;
    (kind == ss::JobKind::kOtis        ? otis_ms
     : kind == ss::JobKind::kTelemetry ? telemetry_ms
                                       : ngst_ms)
        .push_back(s.voter);
    const double shadow_overhead = s.shadow - s.primary - s.guard;
    if (shadowed) {
      primary_ms.push_back(s.primary);
      guard_ms.push_back(s.guard);
      shadow_overhead_ms.push_back(shadow_overhead);
      sum_shadow_overhead += shadow_overhead;
    }
    ++traced;
    sum_latency += latency;
    sum_lag += ms_between(run.due[i], run.sent[i]);
    sum_submit += ms_between(run.sent[i], run.returned[i]);
    sum_queue += r.queue_wait_ms;
    sum_batch_wait += batch_wait;
    sum_voter += s.voter;
    sum_noncompute += noncompute;
    sum_guard += s.guard;
    sum_spans += s.submit + s.outer;
    voxels += product_px(items[i].request.job);
  }
  const double voter_ms = sum_voter / static_cast<double>(traced);
  const auto share = [&](const char* name, double sum) {
    report.add(name, sum / sum_latency, "fraction");
  };
  const auto p50 = [&](const char* name, std::span<const double> ms) {
    report.add(name, percentile_of(ms, 50.0), "ms");
  };
  report.add("core.voter_ms", voter_ms, "ms");
  share("core.voter.share", sum_voter);
  report.add("core.voxels_per_s", voxels / (sum_voter / 1e3), "voxel/s");
  share("loadgen.lag.share", sum_lag);
  share("serve.submit.share", sum_submit);
  share("serve.queue_wait.share", sum_queue);
  share("serve.batch_wait.share", sum_batch_wait);
  share("serve.noncompute.share", sum_noncompute);
  share("backend.guard.share", sum_guard);
  share("backend.shadow_overhead.share", sum_shadow_overhead);
  // What the benchmark's own spans (submit and backend calls) cover of the
  // request; the rest is queue wait, batch wait and non-compute service,
  // which only the server's timing fields see.
  share("serve.span_coverage", sum_spans);
  report.add("serve.batch_size_mean",
             batch_sizes / static_cast<double>(ok), "count");
  report.add("serve.queue_depth_max",
             static_cast<double>(run.queue_depth_max), "count");
  p50("serve.queue_wait_ms_p50", queue_ms);
  report.add("serve.queue_wait_ms_p99", percentile_of(queue_ms, 99.0), "ms");
  p50("serve.batch_wait_ms_p50", batch_wait_ms);
  p50("serve.service_ms_p50", service_ms);
  report.add("serve.submit_us_p99", percentile_of(submit_us, 99.0), "us");
  p50("backend.ngst_ms_p50", ngst_ms);
  p50("backend.otis_ms_p50", otis_ms);
  p50("backend.telemetry_ms_p50", telemetry_ms);
  p50("serve.noncompute_ms_p50", noncompute_ms);
  if (shadowed) {
    p50("backend.primary_ms_p50", primary_ms);
    p50("backend.guard_ms_p50", guard_ms);
    p50("backend.shadow_overhead_ms_p50", shadow_overhead_ms);
  }
  report.add("trace.overhead_frac",
             percentile_of(traced_lat, 50.0) /
                     percentile_of(untraced_lat, 50.0) -
                 1.0,
             "fraction");
  report.add("requests_traced", static_cast<double>(traced), "count");
  report.add("requests_replayed_traced", static_cast<double>(replayed),
             "count");
}

/// Adds the voter counters of every kOk result in \p run.
void add_voter_counts(const StepRun& run, double& corrected, double& bits,
                      double& vetoed) {
  for (const auto& r : run.results) {
    if (r.status != ss::ServeStatus::kOk) continue;
    corrected += static_cast<double>(r.pixels_corrected);
    bits += static_cast<double>(r.bits_corrected);
    vetoed += static_cast<double>(r.pixels_vetoed);
  }
}

void put_voter_counts(double corrected, double bits, double vetoed,
                      RunReport& report) {
  report.add("core.pixels_corrected", corrected, "count");
  report.add("core.bits_corrected", bits, "count");
  report.add("core.pixels_vetoed", vetoed, "count");
  report.add("core.veto_ratio",
             corrected + vetoed > 0.0 ? vetoed / (corrected + vetoed) : 0.0,
             "fraction");
}

std::size_t ok_count(const StepRun& run) {
  std::size_t ok = 0;
  for (const auto& r : run.results) ok += r.status == ss::ServeStatus::kOk;
  return ok;
}

std::string step_json(const char* label, std::size_t submitted,
                      std::size_t ok, std::size_t attempts, double lag_p99) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"%s\":{\"attempted\":%zu,\"ok\":%zu,\"attempts\":%zu,"
                "\"lag_ms_p99\":%.17g}",
                label, submitted, ok, attempts, lag_p99);
  return buf;
}

}  // namespace

RunReport run_serve_mixed(const Options& options, Tracer* tracer) {
  struct Step {
    const char* label;
    double rate_hz;
    double share;  ///< of the run length
    bool scored;   ///< counts toward attempted/failed (below the knee)
  };
  // 500 and 900 req/s sit below the knee and carry the latency limit; at
  // 2600 req/s the server sheds by design and goodput measures capacity.
  // r500 reports the end-to-end latency and the per-layer breakdown and
  // r2600 the end-to-end throughput, so they get most of the run; r900's
  // latencies are detail only.
  const Step steps[] = {{"r500", 500.0, 0.4, true},
                        {"r900", 900.0, 0.2, true},
                        {"r2600", 2600.0, 0.4, false}};
  constexpr std::size_t kHeadline = 0;  // r500
  constexpr std::size_t kOverload = 2;  // r2600

  RunReport report;
  std::vector<std::vector<ss::WorkloadItem>> workloads(3);
  double setup_wall_s = 0.0;
  const double setup_s = serve_setup(
      options,
      [&]() -> const auto& {
        for (std::size_t s = 0; s < 3; ++s) {
          workloads[s] = ss::generate_workload(mix_spec(
              common::derive_stream_seed(options.seed, 0x5e7e, s),
              steps[s].rate_hz, steps[s].share * options.seconds));
          for (auto& item : workloads[s]) item.request.id += s * kStepIdStride;
        }
        return workloads[0];
      },
      setup_wall_s);

  std::shared_ptr<sb::Backend> compute = std::make_shared<sb::CpuBackend>();
  std::shared_ptr<CalibratedBackend> probe;
  if (tracer) {
    compute = std::make_shared<TimedBackend>(compute, "core.voter", *tracer);
  } else {
    probe = std::make_shared<CalibratedBackend>(compute);
    compute = probe;
  }

  std::vector<StepRun> runs;
  std::string steps_json;
  double corrected = 0.0, bits = 0.0, vetoed = 0.0;
  std::uint64_t shed = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& items = workloads[s];
    std::size_t attempts = 0;
    StepRun run = run_valid_step(
        [&] {
          return run_step(
              items, s * kStepIdStride, /*closed_loop=*/false, tracer,
              probe.get(),
              [&](auto on_result) {
                ss::ServerConfig config;
                config.capacity = 256;
                config.workers = 2;
                config.max_batch = 8;
                config.admission_timeout_ms = 0.0;  // reject on full
                config.on_result = on_result;
                config.exec.backend = compute;
                return std::make_unique<ss::Server>(config);
              },
              [](ss::Server& server) { return server.queue_depth(); },
              [](ss::Server& server, StepRun& r) {
                const auto stats = server.stats();
                r.batches = stats.batches;
                r.shed = stats.shed;
              });
        },
        attempts);
    if (run.lag_p99_ms > kLagLimitMs) report.valid = false;
    check_exactly_once(run, steps[s].label, report);
    const std::size_t ok = ok_count(run);
    if (steps[s].scored) {
      report.attempted += items.size();
      report.failed += items.size() - ok;
      add_voter_counts(run, corrected, bits, vetoed);
    } else {
      for (const auto& r : run.results) {
        if (r.status != ss::ServeStatus::kOk &&
            r.status != ss::ServeStatus::kShed) {
          report.fail(std::string(steps[s].label) +
                      ": a request ended neither ok nor shed");
          break;
        }
      }
    }
    shed += run.shed;
    if (!steps_json.empty()) steps_json += ",";
    steps_json += step_json(steps[s].label, items.size(), ok, attempts,
                            run.lag_p99_ms);
    runs.push_back(std::move(run));
  }
  report.steps = steps_json;

  // Trusted re-verification, after the timed phase.
  for (std::size_t s = 0; s < 3; ++s) {
    const std::size_t escapes =
        count_escapes(workloads[s], runs[s], kVerifyStride);
    if (escapes > 0) {
      report.fail(std::string(steps[s].label) + ": " +
                  std::to_string(escapes) +
                  " served checksums differ from the trusted path");
    }
  }

  for (std::size_t s = 0; s < 3; ++s) {
    report.add(std::string("loadgen.lag_ms_p99.") + steps[s].label,
               runs[s].lag_p99_ms, "ms");
  }
  if (tracer == nullptr) {
    const auto r500 = ok_samples(runs[kHeadline], workloads[kHeadline]);
    const auto r900 = ok_samples(runs[1], workloads[1]);
    const auto r2600 = ok_samples(runs[kOverload], workloads[kOverload]);
    end_to_end(runs[kHeadline], r500, runs[kOverload], r2600, setup_s,
               setup_wall_s, report);
    add_latencies(r500, "r500", report);
    add_latencies(r900, "r900", report);
    report.add("goodput_rps.r2600",
               static_cast<double>(r2600.px.size()) / r2600.done_span_s,
               "1/s");
    report.add("fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "fraction");
    report.add("latency_limit_met",
               percentile_of(r500.latency_ms, 99.0) <= kLatencyLimitMs &&
                       percentile_of(r900.latency_ms, 99.0) <=
                           kLatencyLimitMs &&
                       report.failed == 0
                   ? 1.0
                   : 0.0,
               "bool");
    return report;
  }

  layer_metrics(runs[kHeadline], workloads[kHeadline], *tracer,
                /*shadowed=*/false, report);
  put_voter_counts(corrected, bits, vetoed, report);
  report.add("serve.batches", static_cast<double>(runs[kHeadline].batches),
             "count");
  report.add("serve.shed", static_cast<double>(shed), "count");
  return report;
}

RunReport run_serve_chaos(const Options& options, Tracer* tracer) {
  RunReport report;
  std::vector<ss::WorkloadItem> items;
  double setup_wall_s = 0.0;
  const double setup_s = serve_setup(
      options,
      [&]() -> const auto& {
        items = ss::generate_workload(mix_spec(
            common::derive_stream_seed(options.seed, 0xc4a05, 0),
            kChaosRequestsPerSecond, options.seconds));
        return items;
      },
      setup_wall_s);

  // Shadow(Unreliable(Cpu), Cpu): every output is re-executed on the
  // trusted guard and byte-diffed.  Stalls are off: an injected 25 ms
  // stall would set p99 by itself, and no code change could move it.
  fault::ComputeFaultConfig faults;
  faults.fault_rate = 0.05;
  faults.stall_weight = 0.0;
  sb::ShadowConfig shadow_config;
  shadow_config.shadow_rate = 1.0;
  const auto wrap = [&](std::shared_ptr<sb::Backend> inner, const char* span)
      -> std::shared_ptr<sb::Backend> {
    if (tracer == nullptr) return inner;
    return std::make_shared<TimedBackend>(std::move(inner), span, *tracer);
  };
  const auto primary = wrap(
      std::make_shared<sb::UnreliableBackend>(
          wrap(std::make_shared<sb::CpuBackend>(), "core.voter"), faults),
      "backend.primary");
  const auto guard =
      wrap(std::make_shared<sb::CpuBackend>(), "backend.guard");
  const auto shadow =
      std::make_shared<sb::ShadowBackend>(primary, guard, shadow_config);
  std::shared_ptr<sb::Backend> compute = wrap(shadow, "backend.shadow");
  std::shared_ptr<CalibratedBackend> probe;
  if (tracer == nullptr) {
    probe = std::make_shared<CalibratedBackend>(compute);
    compute = probe;
  }

  // A closed loop has no schedule to fall behind, so one attempt always
  // counts.
  const StepRun run = run_step(
      items, 0, /*closed_loop=*/true, tracer, probe.get(),
      [&](auto on_result) {
        ss::RouterConfig config;
        config.shards = 2;
        config.shard.workers = 1;
        config.shard.capacity = 256;
        config.shard.max_batch = 8;
        config.shard.exec.backend = compute;
        config.on_result = on_result;
        auto router = std::make_unique<ss::Router>(config);
        router->schedule_kill(1, items.size() / 2);
        return router;
      },
      [](ss::Router& router) {
        return router.shard(0).queue_depth + router.shard(1).queue_depth;
      },
      [](ss::Router& router, StepRun& r) { r.router = router.stats(); });
  check_exactly_once(run, "closed", report);
  const std::size_t ok = ok_count(run);
  report.attempted = items.size();
  report.failed = items.size() - ok;
  report.steps = step_json("closed", items.size(), ok, 1, run.lag_p99_ms);

  const std::size_t escapes = count_escapes(items, run, 1);
  if (escapes > 0) {
    report.fail(std::to_string(escapes) +
                " served checksums differ from the trusted path");
  }
  // The canonical log collapses replayed executions, so these counts are
  // deterministic where health() totals would not be.
  const auto decisions = shadow->decisions();
  std::size_t sampled = 0;
  for (const auto& d : decisions) sampled += d.sampled ? 1 : 0;
  const auto mismatches = sb::count_mismatches(decisions);

  report.add("escapes", static_cast<double>(escapes), "count");
  if (tracer == nullptr) {
    const auto samples = ok_samples(run, items);
    end_to_end(run, samples, run, samples, setup_s, setup_wall_s, report);
    add_latencies(samples, "closed", report);
    report.add("fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "fraction");
    report.add("backend.mismatches", static_cast<double>(mismatches),
               "count");
    report.add("latency_limit_met",
               percentile_of(samples.latency_ms, 99.0) <= kLatencyLimitMs &&
                       report.failed == 0
                   ? 1.0
                   : 0.0,
               "bool");
    return report;
  }

  layer_metrics(run, items, *tracer, /*shadowed=*/true, report);
  double corrected = 0.0, bits = 0.0, vetoed = 0.0;
  add_voter_counts(run, corrected, bits, vetoed);
  put_voter_counts(corrected, bits, vetoed, report);
  double batches = 0.0;
  for (const auto& r : run.results) {
    if (r.status == ss::ServeStatus::kOk) {
      batches += 1.0 / static_cast<double>(r.batch_size);
    }
  }
  const auto& rs = run.router;
  const std::pair<const char*, double> counts[] = {
      {"serve.batches", std::round(batches)},
      {"serve.shed", static_cast<double>(rs.shed)},
      {"backend.sampled", static_cast<double>(sampled)},
      {"backend.mismatches", static_cast<double>(mismatches)},
      {"router.replays", static_cast<double>(rs.replays)},
      {"router.ejections", static_cast<double>(rs.ejections)},
      {"router.stale_results", static_cast<double>(rs.stale_results)},
      {"router.spills", static_cast<double>(rs.spills)},
  };
  for (const auto& [name, value] : counts) report.add(name, value, "count");
  return report;
}

}  // namespace ledger
