/// \file queue.hpp
/// Bounded multi-producer/multi-consumer request queue with admission
/// control, deadline/priority ordering, and dynamic batch extraction.
///
/// Design constraints, in order:
///
///  1. **Producers never block indefinitely.**  push() either admits the
///     entry, sheds it immediately (timeout 0, the overload-control mode),
///     or waits a *bounded* time for room; a closed queue wakes every
///     waiting producer with kShutdown.
///  2. **Deterministic ordering.**  Consumers always see the entry with the
///     highest priority first; ties break on the earlier deadline, then on
///     admission order (a sequence number assigned under the queue lock).
///     Two runs that admit the same entries in the same order therefore
///     dequeue them in the same order, no matter how many consumers race.
///  3. **Greedy batching.**  collect_batch() extracts the queued entries
///     with the same shape key as an already-popped head, up to
///     `max_extra` of them.  It never waits for late arrivals: a lone
///     request runs at once instead of idling for followers.
///
/// The queue stores entries by value and is oblivious to their payload; the
/// server keeps the heavy request state behind a shared_ptr.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "spacefts/serve/request.hpp"

namespace spacefts::serve {

class RequestState;  // defined by the server; opaque to the queue

/// Batch compatibility key: only requests that agree on all four fields can
/// share a batch.
struct ShapeKey {
  JobKind kind = JobKind::kNgst;
  std::size_t side = 0;
  std::size_t frames = 0;
  double lambda = 0.0;

  friend bool operator==(const ShapeKey&, const ShapeKey&) = default;
};

/// One queued request.  `seq` is assigned by the queue at admission.
struct QueueEntry {
  std::uint64_t seq = 0;
  int priority = 0;
  /// Absolute deadline in milliseconds since the server epoch;
  /// +infinity = none.
  double deadline_abs_ms = 0.0;
  ShapeKey shape;
  std::shared_ptr<RequestState> state;
};

/// The bounded MPMC queue.  All methods are thread-safe.
class BoundedQueue {
 public:
  /// \throws std::invalid_argument if capacity == 0.
  explicit BoundedQueue(std::size_t capacity);

  /// Admission: kOk on success (entry.seq assigned), kShed when the queue
  /// stayed full for `timeout_ms` (0 = reject-on-full, the shedding mode),
  /// kShutdown when the queue is or becomes closed.
  [[nodiscard]] ServeStatus push(QueueEntry entry, double timeout_ms = 0.0);

  /// Removes and returns the best entry (priority desc, deadline asc, seq
  /// asc), blocking while the queue is empty and open.  Returns nullopt
  /// once the queue is closed *and* empty — the consumer shutdown signal.
  [[nodiscard]] std::optional<QueueEntry> pop_best();

  /// Non-blocking pop_best(): nullopt whenever the queue is momentarily
  /// empty, open or not.
  [[nodiscard]] std::optional<QueueEntry> try_pop_best();

  /// Removes and returns up to `max_extra` entries matching `shape` (in
  /// queue order) that are queued at the time of the call.  Never blocks
  /// beyond the queue lock.
  [[nodiscard]] std::vector<QueueEntry> collect_batch(const ShapeKey& shape,
                                                      std::size_t max_extra);

  /// Closes admission and wakes every waiting producer and consumer.
  /// Idempotent.
  void close();

  /// Removes and returns everything still queued (any state).  Intended
  /// for the drain path after close(), but safe at any time.
  [[nodiscard]] std::vector<QueueEntry> drain();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool closed() const;

 private:
  /// True when a should be dequeued before b.
  [[nodiscard]] static bool before(const QueueEntry& a, const QueueEntry& b);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable room_cv_;     ///< producers waiting for space
  std::condition_variable entries_cv_;  ///< consumers waiting for entries
  std::vector<QueueEntry> entries_;     ///< kept sorted, best entry first
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace spacefts::serve
