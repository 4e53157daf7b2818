/// \file bank.hpp
/// The serving-side home of the per-stream controllers: admission gating,
/// out-of-order observation reordering, and the deterministic decision log.
///
/// The bank lives *outside* the server/router it steers — it is keyed by
/// stream id, not by shard — so controller state survives shard ejection,
/// reboot, and request replay: a replayed request re-resolves through the
/// tuner hook to the point already scheduled for its stream-seq, and the
/// router's exactly-once registry guarantees each request folds exactly one
/// observation no matter how many times a dying shard touched it.
///
/// Threading: admit() runs on the submitting thread, observe() on worker /
/// router threads, the tuner hook on whichever worker executes the batch.
/// One mutex serialises them; the per-request critical sections are a few
/// map operations, invisible next to the preprocessing compute.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "spacefts/control/controller.hpp"
#include "spacefts/serve/request.hpp"

namespace spacefts::control {

class ControllerBank {
 public:
  /// \throws std::invalid_argument via validate_config.
  explicit ControllerBank(ControlConfig cfg);

  /// Registers \p request with its stream's controller, assigns the next
  /// stream-seq, and blocks until the operating point for that seq is
  /// scheduled — which bounds the stream's in-flight depth at cfg.lag and
  /// is exactly what makes the point available (and fixed) before the
  /// request can reach any worker on any shard.  Call in submission order
  /// per stream.  Requests with stream == 0 share one controller.
  core::OperatingPoint admit(const serve::Request& request);

  /// The operating point of an admitted request — the ExecContext tuner
  /// target.  \throws std::out_of_range for an id never admitted.
  [[nodiscard]] core::OperatingPoint point(std::uint64_t id) const;

  /// Folds one terminal result (exactly one per admitted request; any
  /// thread, any completion order — a reorder buffer restores stream-seq
  /// order).  Duplicate or unknown ids are ignored so a defensive caller
  /// can wire it to at-least-once paths.
  void observe(const serve::RequestResult& result);

  /// All epoch decisions across streams (unsorted; feed decisions_to_jsonl).
  [[nodiscard]] std::vector<Decision> decisions() const;

  [[nodiscard]] const ControlConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t stream_count() const;

 private:
  struct Slot {
    std::uint64_t stream = 0;
    std::uint64_t seq = 0;
    std::size_t pixels = 0;
    core::OperatingPoint point;
    bool observed = false;
  };
  struct StreamCtl {
    explicit StreamCtl(const ControlConfig& cfg, std::uint64_t stream)
        : controller(cfg, stream) {}
    SensitivityController controller;
    std::uint64_t next_seq = 0;                  ///< next admit assigns this
    std::map<std::uint64_t, Observation> pending;  ///< out-of-order arrivals
  };

  void drain_locked(StreamCtl& ctl);

  ControlConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, StreamCtl> streams_;
  std::unordered_map<std::uint64_t, Slot> slots_;
};

}  // namespace spacefts::control
