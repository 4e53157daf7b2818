/// \file trace.hpp
/// The benchmark's own span recorder.  Spans wrap the public calls it
/// makes into each layer (and the backend decorators it installs); nothing
/// inside the library is instrumented, and library telemetry stays off.
///
/// Spans live in one preallocated vector behind a mutex, so decorators on
/// serve worker threads can record too.  Each span knows the span that was
/// open on its thread when it began (its parent), which is what self time
/// is computed from.  The whole trace is written as Chrome trace JSON at
/// exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::int64_t start_ns = 0;   ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;    ///< enclosing span on the same thread
    std::uint32_t tid = 0;
    std::uint64_t op = 0;        ///< flight or request id
  };

  explicit Tracer(std::size_t reserve);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its index.
  std::int32_t begin(const char* name, std::uint64_t op);
  /// Closes the span \p index opened on the calling thread.
  void end(std::int32_t index);

  /// The recorded spans.  Quiescent point only (no thread recording).
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Per span: its duration minus the time its direct children cover.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Writes every span as a Chrome trace_event document.  False when the
  /// file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span.  A null tracer records nothing, which is how untraced calls
/// share the traced code path.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, op) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace ledger
