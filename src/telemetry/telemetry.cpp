/// \file telemetry.cpp
/// Tracer internals: per-thread span buffers, the global drop-oldest ring,
/// the metric registries, and the Chrome-trace / JSONL exporters.

#include "spacefts/telemetry/telemetry.hpp"

#if SPACEFTS_TELEMETRY

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string_view>

#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Per-thread buffer size: spans recorded between drains without a lock.
constexpr std::size_t kThreadBufferCap = 4096;
constexpr std::size_t kDefaultRingCap = 1u << 18;

/// Monotonic nanoseconds since the first telemetry touch in the process.
std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// POD form of a completed span as it sits in buffers and the ring: name
/// and tag keys stay `const char*` (string-literal contract) so recording
/// never allocates.
struct SpanEvent {
  const char* name = nullptr;
  const char* keys[2] = {nullptr, nullptr};
  double vals[2] = {0.0, 0.0};
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint8_t argc = 0;
  bool instant = false;
};

struct ThreadBuffer;

/// Process-wide tracer state.  Leaked on purpose: worker threads (and the
/// shared thread pool) may outlive any static-destruction order we could
/// arrange, and their ThreadBuffer destructors must always have a live
/// tracer to unregister from.
class Tracer {
 public:
  Tracer() { (void)now_ns(); }  // pin the clock epoch before any span

  void register_thread(ThreadBuffer& buffer);
  void unregister_thread(ThreadBuffer& buffer);
  void drain(ThreadBuffer& buffer);
  void flush_all();

  void set_ring_capacity(std::size_t events) {
    std::scoped_lock lock(ring_mutex_);
    ring_cap_ = events == 0 ? 1 : events;
    ring_.clear();
  }

  [[nodiscard]] std::vector<SpanEvent> snapshot() {
    std::scoped_lock lock(ring_mutex_);
    std::vector<SpanEvent> out(ring_.begin(), ring_.end());
    std::sort(out.begin(), out.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                if (a.tid != b.tid) return a.tid < b.tid;
                return a.depth < b.depth;
              });
    return out;
  }

  void clear_ring() {
    std::scoped_lock lock(ring_mutex_);
    ring_.clear();
  }

  std::mutex registry_mutex;  ///< guards the three metric maps
  // std::less<> lets a lookup compare a string_view without building a key.
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;

 private:
  std::mutex threads_mutex_;  ///< guards registered_ and next_tid_
  std::vector<ThreadBuffer*> registered_;
  std::uint32_t next_tid_ = 0;

  std::mutex ring_mutex_;
  std::deque<SpanEvent> ring_;
  std::size_t ring_cap_ = kDefaultRingCap;
};

Tracer& tracer() {
  static Tracer* t = new Tracer;  // leaked: see class comment
  return *t;
}

/// One thread's preallocated span storage; registers itself with the
/// tracer for flush() and drains itself on thread exit.
struct ThreadBuffer {
  ThreadBuffer() {
    events.reserve(kThreadBufferCap);
    tracer().register_thread(*this);
  }
  ~ThreadBuffer() { tracer().unregister_thread(*this); }
  ThreadBuffer(const ThreadBuffer&) = delete;
  ThreadBuffer& operator=(const ThreadBuffer&) = delete;

  void push(const SpanEvent& event) {
    if (events.size() >= kThreadBufferCap) tracer().drain(*this);
    events.push_back(event);
  }

  std::vector<SpanEvent> events;
  std::uint32_t tid = 0;  ///< assigned by register_thread, 1-based
};

thread_local ThreadBuffer t_buffer;
thread_local std::uint32_t t_depth = 0;

void Tracer::register_thread(ThreadBuffer& buffer) {
  std::scoped_lock lock(threads_mutex_);
  next_tid_ += 1;
  buffer.tid = next_tid_;
  registered_.push_back(&buffer);
}

void Tracer::unregister_thread(ThreadBuffer& buffer) {
  drain(buffer);
  std::scoped_lock lock(threads_mutex_);
  std::erase(registered_, &buffer);
}

void Tracer::drain(ThreadBuffer& buffer) {
  if (buffer.events.empty()) return;
  std::scoped_lock lock(ring_mutex_);
  for (const SpanEvent& event : buffer.events) {
    if (ring_.size() >= ring_cap_) ring_.pop_front();  // drop-oldest
    ring_.push_back(event);
  }
  buffer.events.clear();
}

void Tracer::flush_all() {
  // Quiescent-point contract: no other thread is recording right now, so
  // draining their buffers from here is safe.
  std::vector<ThreadBuffer*> threads;
  {
    std::scoped_lock lock(threads_mutex_);
    threads = registered_;
  }
  for (ThreadBuffer* buffer : threads) drain(*buffer);
}

void record_instant(const char* name, const SpanArg* args,
                    std::uint8_t argc) noexcept {
  SpanEvent event;
  event.name = name;
  event.start_ns = now_ns();
  event.tid = 0;  // filled from the buffer below
  event.depth = t_depth;
  event.instant = true;
  event.argc = argc;
  for (std::uint8_t i = 0; i < argc; ++i) {
    event.keys[i] = args[i].key;
    event.vals[i] = args[i].value;
  }
  ThreadBuffer& buffer = t_buffer;
  event.tid = buffer.tid;
  buffer.push(event);
}

/// R-7 linear-interpolated percentile over an already sorted series; used
/// for the per-span-name duration aggregates.  (The metrics library has
/// the public equivalent, but telemetry sits below it in the link order.)
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (!(p > 0.0)) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// Lower edge of histogram bucket \p index (upper edge = lower of index+1).
double bucket_lower(std::size_t index) {
  if (index == 0) return 0.0;
  return std::ldexp(1.0, Histogram::kMinExp + static_cast<int>(index) - 1);
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void ScopedSpan::begin(const char* name, std::uint8_t argc) noexcept {
  name_ = name;
  argc_ = argc;
  depth_ = t_depth;
  t_depth += 1;
  start_ns_ = now_ns();
}

void ScopedSpan::end() noexcept {
  const std::uint64_t end_ns = now_ns();
  t_depth -= 1;
  SpanEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  event.dur_ns = end_ns - start_ns_;
  event.depth = depth_;
  event.argc = argc_;
  for (std::uint8_t i = 0; i < argc_; ++i) {
    event.keys[i] = args_[i].key;
    event.vals[i] = args_[i].value;
  }
  ThreadBuffer& buffer = t_buffer;
  event.tid = buffer.tid;
  buffer.push(event);
}

void instant(const char* name) noexcept {
  if (enabled()) record_instant(name, nullptr, 0);
}

void instant(const char* name, SpanArg a) noexcept {
  if (enabled()) record_instant(name, &a, 1);
}

void instant(const char* name, SpanArg a, SpanArg b) noexcept {
  if (enabled()) {
    const SpanArg args[2] = {a, b};
    record_instant(name, args, 2);
  }
}

void Histogram::record(double value) noexcept {
  if (!enabled()) return;
  std::size_t index = 0;
  if (value > std::ldexp(1.0, kMinExp) && std::isfinite(value)) {
    int exp = 0;
    (void)std::frexp(value, &exp);  // 2^(exp-1) <= value < 2^exp
    const int offset = exp - kMinExp;
    index = offset < 1 ? 1
            : offset > static_cast<int>(kBucketCount) - 1
                ? kBucketCount - 1
                : static_cast<std::size_t>(offset);
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  expected = min_.load(std::memory_order_relaxed);
  while (value < expected && !min_.compare_exchange_weak(
                                 expected, value, std::memory_order_relaxed)) {
  }
  expected = max_.load(std::memory_order_relaxed);
  while (value > expected && !max_.compare_exchange_weak(
                                 expected, value, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t index) const noexcept {
  return index < kBucketCount
             ? buckets_[index].load(std::memory_order_relaxed)
             : 0;
}

double Histogram::quantile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  p = p < 0.0 ? 0.0 : p > 100.0 ? 100.0 : p;
  // Rank of the requested quantile among n samples, then linear
  // interpolation across the width of the bucket that holds it.
  const double target = p / 100.0 * static_cast<double>(n - 1);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    const auto in_bucket = static_cast<double>(bucket(b));
    if (in_bucket == 0.0) continue;
    if (target < cumulative + in_bucket) {
      const double frac = (target - cumulative) / in_bucket;
      const double lo = bucket_lower(b);
      const double hi = b + 1 < kBucketCount ? bucket_lower(b + 1) : max();
      double value = lo + frac * (hi - lo);
      // Clamp to the observed range so single-valued and narrow
      // distributions report exact answers instead of bucket edges.
      value = value < min() ? min() : value > max() ? max() : value;
      return value;
    }
    cumulative += in_bucket;
  }
  return max();
}

void Histogram::clear() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

namespace {

/// Returns the registered metric `name`, registering it on first use.  Only
/// the registration allocates (the key and the node); std::map keeps the
/// returned reference stable.
template <typename Metric>
Metric& find_or_register(std::map<std::string, Metric, std::less<>>& metrics,
                         const char* name) {
  const std::string_view key(name);
  if (const auto it = metrics.find(key); it != metrics.end()) {
    return it->second;
  }
  return metrics.try_emplace(std::string(key)).first->second;
}

}  // namespace

Counter& counter(const char* name) {
  Tracer& t = tracer();
  std::scoped_lock lock(t.registry_mutex);
  return find_or_register(t.counters, name);
}

Gauge& gauge(const char* name) {
  Tracer& t = tracer();
  std::scoped_lock lock(t.registry_mutex);
  return find_or_register(t.gauges, name);
}

Histogram& histogram(const char* name) {
  Tracer& t = tracer();
  std::scoped_lock lock(t.registry_mutex);
  return find_or_register(t.histograms, name);
}

void flush() { tracer().flush_all(); }

std::vector<SpanRecord> collect() {
  flush();
  std::vector<SpanRecord> out;
  const auto events = tracer().snapshot();
  out.reserve(events.size());
  for (const SpanEvent& event : events) {
    SpanRecord record;
    record.name = event.name;
    record.tid = event.tid;
    record.start_ns = event.start_ns;
    record.dur_ns = event.dur_ns;
    record.depth = event.depth;
    record.instant = event.instant;
    for (std::uint8_t i = 0; i < event.argc; ++i) {
      record.args.emplace_back(event.keys[i], event.vals[i]);
    }
    out.push_back(std::move(record));
  }
  return out;
}

void set_ring_capacity(std::size_t events) {
  tracer().set_ring_capacity(events);
}

std::string trace_json() {
  flush();
  const auto events = tracer().snapshot();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const SpanEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\": \"";
    out += jsonl::escape(event.name);
    out += "\", \"cat\": \"spacefts\", \"ph\": \"";
    out += event.instant ? "i" : "X";
    out += "\", \"pid\": 1, \"tid\": ";
    jsonl::append_fmt(out, "%.10g", static_cast<double>(event.tid));
    out += ", \"ts\": ";
    // trace_event timestamps are microseconds; keep ns resolution.
    jsonl::append_fmt(out, "%.3f",
                      static_cast<double>(event.start_ns) / 1000.0);
    if (event.instant) {
      out += ", \"s\": \"t\"";
    } else {
      out += ", \"dur\": ";
      jsonl::append_fmt(out, "%.3f",
                        static_cast<double>(event.dur_ns) / 1000.0);
    }
    if (event.argc > 0) {
      out += ", \"args\": {";
      for (std::uint8_t i = 0; i < event.argc; ++i) {
        if (i > 0) out += ", ";
        out += "\"";
        out += jsonl::escape(event.keys[i]);
        out += "\": ";
        jsonl::append_fmt(out, "%.10g", event.vals[i]);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string metrics_jsonl() {
  flush();
  std::string out;
  Tracer& t = tracer();
  {
    std::scoped_lock lock(t.registry_mutex);
    for (const auto& [name, counter] : t.counters) {
      out += "{\"bench\": \"telemetry\", \"kind\": \"counter\", \"name\": \"";
      out += jsonl::escape(name);
      out += "\", \"value\": ";
      jsonl::append_fmt(out, "%.10g", static_cast<double>(counter.value()));
      out += "}\n";
    }
    for (const auto& [name, gauge] : t.gauges) {
      out += "{\"bench\": \"telemetry\", \"kind\": \"gauge\", \"name\": \"";
      out += jsonl::escape(name);
      out += "\", \"value\": ";
      jsonl::append_fmt(out, "%.10g", gauge.value());
      out += "}\n";
    }
    for (const auto& [name, histogram] : t.histograms) {
      out += "{\"bench\": \"telemetry\", \"kind\": \"histogram\", \"name\": \"";
      out += jsonl::escape(name);
      out += "\", \"count\": ";
      jsonl::append_fmt(out, "%.10g", static_cast<double>(histogram.count()));
      out += ", \"sum\": ";
      jsonl::append_fmt(out, "%.10g", histogram.sum());
      out += ", \"min\": ";
      jsonl::append_fmt(out, "%.10g", histogram.min());
      out += ", \"max\": ";
      jsonl::append_fmt(out, "%.10g", histogram.max());
      out += ", \"p50\": ";
      jsonl::append_fmt(out, "%.10g", histogram.quantile(50.0));
      out += ", \"p95\": ";
      jsonl::append_fmt(out, "%.10g", histogram.quantile(95.0));
      out += "}\n";
    }
  }
  // Per-span-name duration aggregates, so the JSONL alone answers "where
  // did the time go" without opening the trace.
  std::map<std::string, std::vector<double>> durations_ms;
  for (const SpanEvent& event : t.snapshot()) {
    if (event.instant) continue;
    durations_ms[event.name].push_back(static_cast<double>(event.dur_ns) /
                                       1e6);
  }
  for (auto& [name, series] : durations_ms) {
    std::sort(series.begin(), series.end());
    double total = 0.0;
    for (const double d : series) total += d;
    out += "{\"bench\": \"telemetry\", \"kind\": \"span\", \"name\": \"";
    out += jsonl::escape(name);
    out += "\", \"count\": ";
    jsonl::append_fmt(out, "%.10g", static_cast<double>(series.size()));
    out += ", \"total_ms\": ";
    jsonl::append_fmt(out, "%.10g", total);
    out += ", \"p50_ms\": ";
    jsonl::append_fmt(out, "%.10g", sorted_percentile(series, 50.0));
    out += ", \"p95_ms\": ";
    jsonl::append_fmt(out, "%.10g", sorted_percentile(series, 95.0));
    out += "}\n";
  }
  return out;
}

bool write_trace(const std::string& path) {
  return write_text(path, trace_json());
}

bool write_metrics(const std::string& path) {
  return write_text(path, metrics_jsonl());
}

void reset() {
  Tracer& t = tracer();
  t.flush_all();
  t.clear_ring();
  std::scoped_lock lock(t.registry_mutex);
  for (auto& [name, counter] : t.counters) counter.clear();
  for (auto& [name, gauge] : t.gauges) gauge.clear();
  for (auto& [name, histogram] : t.histograms) histogram.clear();
}

}  // namespace spacefts::telemetry

#endif  // SPACEFTS_TELEMETRY
