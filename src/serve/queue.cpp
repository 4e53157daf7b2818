#include "spacefts/serve/queue.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace spacefts::serve {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point after_ms(double ms) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

BoundedQueue::BoundedQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("serve: queue capacity must be > 0");
  }
  entries_.reserve(capacity);
}

bool BoundedQueue::before(const QueueEntry& a, const QueueEntry& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline_abs_ms != b.deadline_abs_ms) {
    return a.deadline_abs_ms < b.deadline_abs_ms;
  }
  return a.seq < b.seq;
}

ServeStatus BoundedQueue::push(QueueEntry entry, double timeout_ms) {
  std::unique_lock lock(mutex_);
  if (closed_) return ServeStatus::kShutdown;
  if (entries_.size() >= capacity_) {
    if (timeout_ms <= 0.0) return ServeStatus::kShed;
    const auto deadline = after_ms(timeout_ms);
    // Bounded wait for room; a close() wakes us to report kShutdown.
    room_cv_.wait_until(lock, deadline, [&] {
      return closed_ || entries_.size() < capacity_;
    });
    if (closed_) return ServeStatus::kShutdown;
    if (entries_.size() >= capacity_) return ServeStatus::kShed;
  }
  entry.seq = next_seq_++;
  const auto pos =
      std::upper_bound(entries_.begin(), entries_.end(), entry, before);
  entries_.insert(pos, std::move(entry));
  entries_cv_.notify_all();
  return ServeStatus::kOk;
}

std::optional<QueueEntry> BoundedQueue::pop_best() {
  std::unique_lock lock(mutex_);
  entries_cv_.wait(lock, [&] { return closed_ || !entries_.empty(); });
  if (entries_.empty()) return std::nullopt;  // closed and drained
  QueueEntry entry = std::move(entries_.front());
  entries_.erase(entries_.begin());
  room_cv_.notify_one();
  return entry;
}

std::optional<QueueEntry> BoundedQueue::try_pop_best() {
  std::lock_guard lock(mutex_);
  if (entries_.empty()) return std::nullopt;
  QueueEntry entry = std::move(entries_.front());
  entries_.erase(entries_.begin());
  room_cv_.notify_one();
  return entry;
}

std::vector<QueueEntry> BoundedQueue::collect_batch(const ShapeKey& shape,
                                                    std::size_t max_extra) {
  std::vector<QueueEntry> batch;
  if (max_extra == 0) return batch;
  std::lock_guard lock(mutex_);
  for (auto it = entries_.begin();
       it != entries_.end() && batch.size() < max_extra;) {
    if (it->shape == shape) {
      batch.push_back(std::move(*it));
      it = entries_.erase(it);
      room_cv_.notify_one();
    } else {
      ++it;
    }
  }
  return batch;
}

void BoundedQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  room_cv_.notify_all();
  entries_cv_.notify_all();
}

std::vector<QueueEntry> BoundedQueue::drain() {
  std::lock_guard lock(mutex_);
  std::vector<QueueEntry> out = std::move(entries_);
  entries_.clear();
  room_cv_.notify_all();
  return out;
}

std::size_t BoundedQueue::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

bool BoundedQueue::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

}  // namespace spacefts::serve
