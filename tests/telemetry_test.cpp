// Unit tests for spacefts::telemetry — scoped spans, the metrics registry,
// and the export formats.  The suite runs against both build flavours: with
// SPACEFTS_TELEMETRY=0 the hooks are no-ops and the tests assert exactly
// that (empty collections, zero counters), so the OFF configuration keeps
// its "bit-identical, no output" contract under test too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace {
// Heap requests since the last reset, so a test can assert that a path
// allocates nothing.
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(std::max<std::size_t>(n, 1))) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs a new-expression with free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace st = spacefts::telemetry;

namespace {

/// Fresh, enabled telemetry state for each test (ON builds); with the
/// hooks compiled out, enable requests are silently ignored.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    st::reset();
    st::set_enabled(true);
  }
  void TearDown() override {
    st::set_enabled(false);
    st::reset();
  }
};

[[nodiscard]] std::vector<st::SpanRecord> spans_named(
    const std::vector<st::SpanRecord>& all, const std::string& name) {
  std::vector<st::SpanRecord> out;
  for (const auto& s : all) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------------- spans

TEST_F(TelemetryTest, SpanRecordsNameArgsAndDuration) {
  {
    SPACEFTS_TSPAN("test.outer", {"lambda", 80.0}, {"width", 64.0});
  }
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto outer = spans_named(spans, "test.outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_FALSE(outer[0].instant);
  EXPECT_EQ(outer[0].depth, 0u);
  ASSERT_EQ(outer[0].args.size(), 2u);
  EXPECT_EQ(outer[0].args[0].first, "lambda");
  EXPECT_DOUBLE_EQ(outer[0].args[0].second, 80.0);
  EXPECT_EQ(outer[0].args[1].first, "width");
  EXPECT_DOUBLE_EQ(outer[0].args[1].second, 64.0);
}

TEST_F(TelemetryTest, NestedSpansTrackDepthAndContainment) {
  {
    SPACEFTS_TSPAN("test.parent");
    {
      SPACEFTS_TSPAN("test.child");
      { SPACEFTS_TSPAN("test.grandchild"); }
    }
  }
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto parent = spans_named(spans, "test.parent");
  const auto child = spans_named(spans, "test.child");
  const auto grandchild = spans_named(spans, "test.grandchild");
  ASSERT_EQ(parent.size(), 1u);
  ASSERT_EQ(child.size(), 1u);
  ASSERT_EQ(grandchild.size(), 1u);
  EXPECT_EQ(parent[0].depth, 0u);
  EXPECT_EQ(child[0].depth, 1u);
  EXPECT_EQ(grandchild[0].depth, 2u);
  // Children start no earlier and end no later than their parent.
  EXPECT_GE(child[0].start_ns, parent[0].start_ns);
  EXPECT_LE(child[0].start_ns + child[0].dur_ns,
            parent[0].start_ns + parent[0].dur_ns);
  EXPECT_GE(grandchild[0].start_ns, child[0].start_ns);
}

TEST_F(TelemetryTest, SiblingSpansShareDepth) {
  {
    SPACEFTS_TSPAN("test.parent");
    { SPACEFTS_TSPAN("test.first"); }
    { SPACEFTS_TSPAN("test.second"); }
  }
  const auto spans = st::collect();
  if (!st::kCompiledIn) return;
  const auto first = spans_named(spans, "test.first");
  const auto second = spans_named(spans, "test.second");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].depth, 1u);
  EXPECT_EQ(second[0].depth, 1u);
  // collect() sorts by start time: first precedes second.
  EXPECT_LE(first[0].start_ns, second[0].start_ns);
}

TEST_F(TelemetryTest, InstantEventsHaveZeroDuration) {
  st::instant("test.tick", {"fragment", 3.0});
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto ticks = spans_named(spans, "test.tick");
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_TRUE(ticks[0].instant);
  EXPECT_EQ(ticks[0].dur_ns, 0u);
  ASSERT_EQ(ticks[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(ticks[0].args[0].second, 3.0);
}

TEST_F(TelemetryTest, WorkerThreadsDrainIntoTheGlobalRing) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SPACEFTS_TSPAN("test.worker", {"lane", static_cast<double>(t)});
      }
    });
  }
  for (auto& w : workers) w.join();
  // Joined threads have unregistered, which drains their buffers; collect()
  // flushes any still-registered thread (this one) as well.
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto worker_spans = spans_named(spans, "test.worker");
  EXPECT_EQ(worker_spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Each worker got its own registration-order tid.
  std::vector<std::uint32_t> tids;
  for (const auto& s : worker_spans) tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TelemetryTest, RingDropsOldestWhenOverCapacity) {
  if (!st::kCompiledIn) return;
  st::set_ring_capacity(8);
  for (int i = 0; i < 32; ++i) {
    SPACEFTS_TSPAN("test.flood");
  }
  const auto spans = st::collect();
  EXPECT_LE(spans.size(), 8u);
  st::set_ring_capacity(1 << 18);
}

TEST_F(TelemetryTest, DisabledRecordingIsInvisible) {
  st::set_enabled(false);
  {
    SPACEFTS_TSPAN("test.dark", {"lambda", 80.0});
    st::instant("test.dark_tick");
    st::counter("test.dark_counter").add(5);
    st::gauge("test.dark_gauge").set(1.0);
    st::histogram("test.dark_histogram").record(2.0);
  }
  EXPECT_TRUE(st::collect().empty());
  EXPECT_EQ(st::counter("test.dark_counter").value(), 0u);
  EXPECT_EQ(st::histogram("test.dark_histogram").count(), 0u);
}

// ----------------------------------------------------------------- registry

TEST_F(TelemetryTest, CounterAccumulatesAndRegistryIsStable) {
  auto& c = st::counter("test.counter");
  c.add();
  c.add(9);
  if (!st::kCompiledIn) {
    EXPECT_EQ(c.value(), 0u);
    return;
  }
  EXPECT_EQ(c.value(), 10u);
  // Same name, same object.
  EXPECT_EQ(&st::counter("test.counter"), &c);
}

TEST_F(TelemetryTest, RegisteredLookupsAllocateNothing) {
  // Names longer than the small-string buffer, as the hot-path names are:
  // a std::string key built per lookup would be a heap request each time.
  const char* const counter_name = "ngst.pixels_corrected";
  const char* const gauge_name = "serve.queue_depth";
  const char* const histogram_name = "serve.e2e_latency_s";
  g_allocs = 0;
  auto& c = st::counter(counter_name);
  auto& g = st::gauge(gauge_name);
  auto& h = st::histogram(histogram_name);
  const std::size_t registering = g_allocs.load();
  g_allocs = 0;
  bool same = true;
  for (int i = 0; i < 100; ++i) {
    same = same && &st::counter(counter_name) == &c &&
           &st::gauge(gauge_name) == &g &&
           &st::histogram(histogram_name) == &h;
  }
  const std::size_t looking_up = g_allocs.load();
  EXPECT_TRUE(same);
  EXPECT_EQ(looking_up, 0u);
  // The hook sees the registrations themselves (key and node per map).
  if (st::kCompiledIn) {
    EXPECT_GT(registering, 0u);
  }
}

TEST_F(TelemetryTest, GaugeKeepsLastValue) {
  auto& g = st::gauge("test.gauge");
  g.set(2.5);
  g.set(-1.25);
  if (!st::kCompiledIn) {
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    return;
  }
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

// ---------------------------------------------------------------- histogram

TEST_F(TelemetryTest, HistogramBucketsByPowerOfTwo) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.buckets");
  h.record(1.5);  // [1, 2)  -> exponent 1
  h.record(1.5);
  h.record(3.0);  // [2, 4)  -> exponent 2
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  // The two values land in adjacent buckets.
  const std::size_t b15 =
      static_cast<std::size_t>(1 - st::Histogram::kMinExp);
  EXPECT_EQ(h.bucket(b15), 2u);
  EXPECT_EQ(h.bucket(b15 + 1), 1u);
}

TEST_F(TelemetryTest, HistogramUnderflowAndNonFiniteGoToBucketZero) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.underflow");
  h.record(0.0);
  h.record(-5.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 3u);
}

TEST_F(TelemetryTest, HistogramMinMaxAndSingleValueQuantiles) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.single");
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 0.0);
  h.record(0.125);
  // A single-valued histogram reports that value for every quantile
  // (the estimate clamps to [min, max]).
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(100.0), 0.125);
}

TEST_F(TelemetryTest, HistogramQuantilesAreOrderedAndBounded) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.quantiles");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-3);
  const double p50 = h.quantile(50.0);
  const double p95 = h.quantile(95.0);
  EXPECT_LE(p50, p95);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p95, h.max());
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  st::counter("test.reset_counter").add(3);
  st::histogram("test.reset_histogram").record(1.0);
  { SPACEFTS_TSPAN("test.reset_span"); }
  st::reset();
  EXPECT_EQ(st::counter("test.reset_counter").value(), 0u);
  EXPECT_EQ(st::histogram("test.reset_histogram").count(), 0u);
  EXPECT_TRUE(st::collect().empty());
}

// ------------------------------------------------------------------ exports

TEST_F(TelemetryTest, TraceJsonHasChromeTraceShape) {
  { SPACEFTS_TSPAN("test.export", {"lambda", 80.0}); }
  const std::string json = st::trace_json();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(json.empty());
    return;
  }
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"lambda\": 80"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonlListsRegisteredInstruments) {
  st::counter("test.jsonl_counter").add(7);
  st::gauge("test.jsonl_gauge").set(0.5);
  st::histogram("test.jsonl_histogram").record(2.0);
  const std::string jsonl = st::metrics_jsonl();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(jsonl.empty());
    return;
  }
  EXPECT_NE(jsonl.find("\"test.jsonl_counter\", \"value\": 7"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"test.jsonl_gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"test.jsonl_histogram\""), std::string::npos);
  // Every line is tagged with the shared bench key.
  EXPECT_NE(jsonl.find("\"bench\": \"telemetry\""), std::string::npos);
}

// -------------------------------------------------------------------- jsonl

TEST(JsonlEscape, PassesPlainTextThrough) {
  EXPECT_EQ(st::jsonl::escape("ngst.tile"), "ngst.tile");
}

TEST(JsonlEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(st::jsonl::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(st::jsonl::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(st::jsonl::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(st::jsonl::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonlAppendFmt, UsesTheGivenFormat) {
  std::string out = "x=";
  st::jsonl::append_fmt(out, "%.3f", 1.5);
  EXPECT_EQ(out, "x=1.500");
}

TEST(JsonlJsonField, ReadsBothRowStyles) {
  const std::string_view line =
      R"({"bench": "stack", "cpu":"a, b","n":12,"x": 1.5})";
  EXPECT_EQ(st::jsonl::json_field(line, "bench"), "stack");
  EXPECT_EQ(st::jsonl::json_field(line, "cpu"), "a, b");
  EXPECT_EQ(st::jsonl::json_field(line, "n"), "12");
  EXPECT_EQ(st::jsonl::json_field(line, "x"), "1.5");
  EXPECT_EQ(st::jsonl::json_field(line, "absent"), "");
  EXPECT_EQ(st::jsonl::json_field(R"({"s":"open)", "s"), "");
  EXPECT_EQ(*st::jsonl::find_value(line, "cpu"), R"("a, b")");
  EXPECT_FALSE(st::jsonl::find_value(line, "absent").has_value());
}

// A row type with one field of every kind a field list can hold.
namespace jsonl_row {

enum class Shade : std::uint8_t { kDark, kLight };
const char* const kShadeNames[] = {"dark", "light"};
const char* to_string(Shade shade) {
  return kShadeNames[static_cast<std::size_t>(shade)];
}
bool from_string(std::string_view name, Shade& out) {
  return st::jsonl::from_names(kShadeNames, name, out);
}

struct Row {
  std::uint64_t id = 0;
  int offset = 0;
  double level = 0.0;
  bool on = false;
  Shade shade = Shade::kDark;
  std::size_t width = 1;
  double ratio = 0.0;
  std::uint64_t extra = 7;
};

template <st::jsonl::RowOf<Row> R, typename Visit>
void fields(R& row, Visit&& visit) {
  visit("id", row.id);
  visit("offset", row.offset);
  visit("level", row.level);
  visit("on", row.on);
  visit("shade", row.shade);
  visit("width", row.width, st::jsonl::kNonZero);
  visit("ratio", row.ratio, st::jsonl::kSixDigits);
  visit("extra", row.extra, st::jsonl::kOptional);
}

/// The error parse_lines reports for \p text, or "accepted".
std::string parse_error(std::string_view text) {
  try {
    (void)st::jsonl::parse_lines<Row>(text, "rows");
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "accepted";
}

}  // namespace jsonl_row

TEST(JsonlFields, WriterAndReaderShareOneList) {
  using jsonl_row::Row;
  const Row row{~std::uint64_t{0}, -3,  0.1,     true,
                jsonl_row::Shade::kLight, 16, 1.0 / 3, 9};
  const std::string text = st::jsonl::to_lines(std::vector<Row>{row});
  EXPECT_EQ(text,
            "{\"id\":18446744073709551615,\"offset\":-3,\"level\":0.1,"
            "\"on\":true,\"shade\":\"light\",\"width\":16,"
            "\"ratio\":0.333333,\"extra\":9}\n");
  // Blank lines are skipped but counted; the re-render is a fixed point.
  const auto parsed = st::jsonl::parse_lines<Row>(" \n" + text, "rows");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].id, row.id);
  EXPECT_EQ(parsed[0].offset, row.offset);
  EXPECT_EQ(parsed[0].shade, row.shade);
  EXPECT_EQ(st::jsonl::to_lines(parsed), text);
  // An absent optional field keeps the row's default.
  const auto defaulted = st::jsonl::parse_lines<Row>(
      R"({"id":1,"offset":0,"level":1,"on":false,"shade":"dark","width":2,)"
      R"("ratio":0})",
      "rows");
  ASSERT_EQ(defaulted.size(), 1u);
  EXPECT_EQ(defaulted[0].extra, 7u);
}

TEST(JsonlFields, ReaderNamesTheLineAndKeyOfEveryBadValue) {
  const std::string good =
      R"({"id":1,"offset":0,"level":1,"on":false,"shade":"dark","width":2,)"
      R"("ratio":0})";
  EXPECT_EQ(jsonl_row::parse_error(good), "accepted");
  EXPECT_EQ(jsonl_row::parse_error(good + "\n\n{\"id\":1}"),
            "rows line 3: missing offset");
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    return jsonl_row::parse_error("\n" + line);
  };
  for (const auto& [from, to, key] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"\"id\":1", "\"id\":-1", "id"},
           {"\"id\":1", "\"id\":18446744073709551616", "id"},
           {"\"id\":1", "\"id\":1.5", "id"},
           {"\"id\":1", "\"id\":\"1\"", "id"},
           {"\"offset\":0", "\"offset\":2147483648", "offset"},
           {"\"offset\":0", "\"offset\":+1", "offset"},
           {"\"level\":1", "\"level\":nan", "level"},
           {"\"level\":1", "\"level\":-inf", "level"},
           {"\"level\":1", "\"level\":1e999", "level"},
           {"\"level\":1", "\"level\":", "level"},
           {"\"on\":false", "\"on\":1", "on"},
           {"\"shade\":\"dark\"", "\"shade\":\"dim\"", "shade"},
           {"\"shade\":\"dark\"", "\"shade\":dark", "shade"},
           {"\"width\":2", "\"width\":0", "width"},
           {"\"ratio\":0", "\"ratio\":0x1p3", "ratio"},
       }) {
    EXPECT_EQ(with(from, to), "rows line 2: bad " + key) << to;
  }
  // One run of spaces after the colon is the other row style's; accepted.
  EXPECT_EQ(with("\"id\":1", "\"id\": 1"), "accepted");
}
