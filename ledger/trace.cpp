#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

namespace ledger {
namespace {

/// The span open on this thread, -1 when none.
thread_local std::int32_t t_current = -1;

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer(std::size_t reserve) : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(reserve);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.parent = t_current;
  span.tid = thread_id();
  span.op = op;
  std::int32_t index = 0;
  {
    std::lock_guard lock(mutex_);
    index = static_cast<std::int32_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  t_current = index;
  return index;
}

void Tracer::end(std::int32_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  t_current = span.parent;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fputs("\n]}\n", out.get());
  return std::ferror(out.get()) == 0;
}

}  // namespace ledger
