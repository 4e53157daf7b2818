/// \file telemetry.hpp
/// Tracing, metrics registry, and profiling hooks for the whole pipeline.
///
/// The paper's central trade-off — sensitivity Λ buys corrections at the
/// price of false alarms *and* compute overhead (Fig. 3) — is only
/// actionable when a run shows *where* time and corrections happen.  This
/// subsystem provides that visibility in three parts:
///
///  1. **Span tracer.**  `ScopedSpan` (or the `SPACEFTS_TSPAN` macro)
///     records a named monotonic-clock interval, with up to two numeric
///     tags, into a per-thread buffer.  Buffers are preallocated and drain
///     into a bounded global ring (drop-oldest) only when full, so the
///     recording hot path takes no lock and performs no allocation after
///     warm-up.  `trace_json()` renders the ring as Chrome `trace_event`
///     JSON, so a run opens directly in chrome://tracing or Perfetto.
///  2. **Metrics registry.**  Named `Counter`s, `Gauge`s, and fixed-bucket
///     (power-of-two) `Histogram`s, registered on first use and stable for
///     the process lifetime (references never dangle, even across
///     `reset()`).  `metrics_jsonl()` renders them — plus per-span-name
///     duration aggregates — as JSON-lines compatible with the repo's
///     `BENCH_*.json` artifacts.
///  3. **Zero overhead when off.**  Building with `SPACEFTS_TELEMETRY=0`
///     compiles every call site to an empty inline stub (bit-identical
///     behaviour to an uninstrumented build); with telemetry compiled in
///     but runtime-disabled (the default) every hook reduces to one relaxed
///     atomic load and a branch, a cost `perf_microbench` keeps honest.
///
/// Threading contract: recording is safe from any thread at any time.
/// `flush()`, `collect()`, the exporters, and `reset()` must be called at a
/// quiescent point (no concurrent recording) — in practice after
/// `parallel_for`/pipeline work has joined, which is where every caller in
/// this repo sits.  Span and metric names, and span tag keys, must be
/// string literals (they are stored as pointers, never copied).
#pragma once

#ifndef SPACEFTS_TELEMETRY
#define SPACEFTS_TELEMETRY 1
#endif

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#if SPACEFTS_TELEMETRY
#include <array>
#include <atomic>
#include <limits>
#endif

namespace spacefts::telemetry {

/// One numeric tag on a span ("lambda", 80).  The key must be a literal.
struct SpanArg {
  const char* key;
  double value;
};

/// One recorded span, as handed back by collect() for tests and exporters.
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;       ///< registration-order thread id (1-based)
  std::uint64_t start_ns = 0;  ///< monotonic, relative to process epoch
  std::uint64_t dur_ns = 0;    ///< 0 for instant events
  std::uint32_t depth = 0;     ///< nesting depth on the recording thread
  bool instant = false;
  std::vector<std::pair<std::string, double>> args;
};

#if SPACEFTS_TELEMETRY

inline constexpr bool kCompiledIn = true;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch; off (the default) makes every hook a no-op.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// RAII span: records [construction, destruction) on the current thread.
/// The enabled() check happens at construction; a span that started
/// enabled is recorded even if the switch flips mid-flight.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (enabled()) begin(name, 0);
  }
  ScopedSpan(const char* name, SpanArg a) noexcept {
    if (enabled()) {
      args_[0] = a;
      begin(name, 1);
    }
  }
  ScopedSpan(const char* name, SpanArg a, SpanArg b) noexcept {
    if (enabled()) {
      args_[0] = a;
      args_[1] = b;
      begin(name, 2);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name, std::uint8_t argc) noexcept;
  void end() noexcept;

  const char* name_ = nullptr;  ///< nullptr = disabled at construction
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  SpanArg args_[2] = {};
  std::uint8_t argc_ = 0;
};

/// Zero-duration marker event (retry epochs, degraded completions, …).
void instant(const char* name) noexcept;
void instant(const char* name, SpanArg a) noexcept;
void instant(const char* name, SpanArg a, SpanArg b) noexcept;

/// Monotonically increasing event count.  add() is one relaxed atomic
/// fetch_add when enabled, one relaxed load when not.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void clear() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (queue depths, lane counts, configured Λ).
class Gauge {
 public:
  void set(double value) noexcept {
    if (enabled()) value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void clear() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram over power-of-two boundaries: bucket b >= 1
/// counts values in [2^(kMinExp+b-1), 2^(kMinExp+b)); bucket 0 is the
/// underflow bin (v <= 2^kMinExp, including non-positive values) and the
/// last bucket collects overflow.  The fixed layout means recording is one
/// exponent extraction plus atomic increments — no per-histogram
/// configuration, no allocation, thread-safe.
class Histogram {
 public:
  static constexpr int kMinExp = -34;  ///< ~5.8e-11: below any timed span
  static constexpr int kMaxExp = 14;   ///< 16384: above any counter-ish value
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp) + 2;

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Min/max of the recorded values; 0 for an empty histogram.
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept;
  /// Bucket-interpolated quantile estimate, clamped to [min(), max()] so a
  /// single-valued histogram reports that value exactly.  p clamps to
  /// [0, 100]; an empty histogram returns 0.
  [[nodiscard]] double quantile(double p) const noexcept;
  void clear() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Registry access: registers on first use, then returns the same object
/// forever (node-stable storage; reset() zeroes values, never erases).
[[nodiscard]] Counter& counter(const char* name);
[[nodiscard]] Gauge& gauge(const char* name);
[[nodiscard]] Histogram& histogram(const char* name);

/// Drains every thread's span buffer into the global ring.  Quiescent
/// point only.
void flush();

/// flush() + a copy of the ring, ordered by start time.
[[nodiscard]] std::vector<SpanRecord> collect();

/// Resizes the global ring (drop-oldest bound on retained spans) and
/// clears it.  Default capacity: 262144 events.
void set_ring_capacity(std::size_t events);

/// The retained spans as a Chrome trace_event JSON document
/// (chrome://tracing, Perfetto).  Implies flush().
[[nodiscard]] std::string trace_json();

/// Counters, gauges, histograms, and per-span-name duration aggregates as
/// JSON-lines ({"bench":"telemetry",...} per line).  Implies flush().
[[nodiscard]] std::string metrics_jsonl();

/// Writes trace_json() / metrics_jsonl() to \p path (truncating).
/// Returns false when the file cannot be written.
[[nodiscard]] bool write_trace(const std::string& path);
[[nodiscard]] bool write_metrics(const std::string& path);

/// Clears the ring and zeroes every registered metric (registrations and
/// previously returned references stay valid).  Quiescent point only.
void reset();

#else  // !SPACEFTS_TELEMETRY — every hook is an empty inline stub.

inline constexpr bool kCompiledIn = false;

[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*) noexcept {}
  ScopedSpan(const char*, SpanArg) noexcept {}
  ScopedSpan(const char*, SpanArg, SpanArg) noexcept {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

inline void instant(const char*) noexcept {}
inline void instant(const char*, SpanArg) noexcept {}
inline void instant(const char*, SpanArg, SpanArg) noexcept {}

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void clear() noexcept {}
};

class Gauge {
 public:
  void set(double) noexcept {}
  [[nodiscard]] double value() const noexcept { return 0.0; }
  void clear() noexcept {}
};

class Histogram {
 public:
  static constexpr int kMinExp = -34;
  static constexpr int kMaxExp = 14;
  static constexpr std::size_t kBucketCount = 1;
  void record(double) noexcept {}
  [[nodiscard]] std::uint64_t count() const noexcept { return 0; }
  [[nodiscard]] double sum() const noexcept { return 0.0; }
  [[nodiscard]] double min() const noexcept { return 0.0; }
  [[nodiscard]] double max() const noexcept { return 0.0; }
  [[nodiscard]] std::uint64_t bucket(std::size_t) const noexcept { return 0; }
  [[nodiscard]] double quantile(double) const noexcept { return 0.0; }
  void clear() noexcept {}
};

inline Counter& counter(const char*) {
  static Counter c;
  return c;
}
inline Gauge& gauge(const char*) {
  static Gauge g;
  return g;
}
inline Histogram& histogram(const char*) {
  static Histogram h;
  return h;
}

inline void flush() {}
[[nodiscard]] inline std::vector<SpanRecord> collect() { return {}; }
inline void set_ring_capacity(std::size_t) {}
[[nodiscard]] inline std::string trace_json() { return {}; }
[[nodiscard]] inline std::string metrics_jsonl() { return {}; }
[[nodiscard]] inline bool write_trace(const std::string&) { return false; }
[[nodiscard]] inline bool write_metrics(const std::string&) { return false; }
inline void reset() {}

#endif  // SPACEFTS_TELEMETRY

}  // namespace spacefts::telemetry

// Statement macro for the common case; expands to a uniquely named scoped
// span (a no-op object in SPACEFTS_TELEMETRY=0 builds).
#define SPACEFTS_TELEMETRY_CONCAT_IMPL(a, b) a##b
#define SPACEFTS_TELEMETRY_CONCAT(a, b) SPACEFTS_TELEMETRY_CONCAT_IMPL(a, b)
#define SPACEFTS_TSPAN(...)                                  \
  const ::spacefts::telemetry::ScopedSpan SPACEFTS_TELEMETRY_CONCAT( \
      spacefts_tspan_, __COUNTER__)(__VA_ARGS__)
