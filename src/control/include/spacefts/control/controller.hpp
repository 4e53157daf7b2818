/// \file controller.hpp
/// Closed-loop adaptive sensitivity: a deterministic per-stream controller
/// that tunes the operating point (Λ, Υ, and the implied window B) from
/// windowed observations of the stream's own corrections (DESIGN.md §13).
///
/// The paper fixes Λ per run; a serving tier faces drifting fault rates Γ₀
/// and bursty load, so a fixed point either wastes throughput or misses
/// faults.  The controller raises Λ/Υ when observed fault activity climbs,
/// and sheds *precision* — lower Λ (which narrows window B by Algorithm 1's
/// thresholding), fewer voter ways — instead of shedding requests when
/// deadline pressure mounts.  Grounding: "A Case for Application-Aware
/// Space Radiation Tolerance" (tune protection to the application's error
/// tolerance) and "Fault-Tolerant Design Approach Based on Approximate
/// Computing" (graded redundancy under pressure), both in PAPERS.md.
///
/// Determinism contract.  Every decision is a pure function of the stream's
/// observation prefix, which is itself a pure function of the workload: the
/// deterministic result fields (bits corrected, pixels vetoed) depend only
/// on each JobSpec and the point the controller chose for it, and deadline
/// pressure is computed in *virtual time* — a fixed per-pixel cost model
/// (virtual_cost_ms) rather than wall-clock measurements — so the
/// whole feedback loop replays bit-identically across thread counts, batch
/// shapes, and shard topologies (including mid-load shard kills, where the
/// replayed request re-resolves to the same point).  Observations fold in
/// stream-sequence order regardless of completion order (the bank reorders)
/// and the point for stream-seq s is fixed once observation s − lag folds,
/// so the schedule never depends on what happens to be in flight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spacefts/core/sensitivity.hpp"

namespace spacefts::control {

/// Starting Λ of every stream.  The rest of the operating-point grid and
/// the signal bands are fixed in controller.cpp (DESIGN.md §13): Λ moves on
/// an integer level grid — level L means Λ = 45 + 10·L up to 95, one
/// bounded step per decision epoch — so repeated steps reproduce exact
/// doubles on every platform and the decision goldens stay stable.  Υ
/// starts at 4 and moves between 2 and 8 voter ways.  Also fixed: an EWMA
/// half-life of 4 observations, a one-epoch dwell after a downward step,
/// raising re-enabled only below 0.80 pressure and shedding above 0.95, and
/// a virtual cost of 40 ns/pixel plus 25 ns/pixel per voter way scaled by
/// the B-window width.
inline constexpr double kLambdaInitial = 75.0;

/// Controller tuning: the knobs callers set.
struct ControlConfig {
  /// Observations folded between decisions (the decision epoch).  Hysteresis
  /// in time: the point can move at most one bounded step per epoch.
  std::size_t window = 2;
  /// Feedback lag: the point for stream-seq s is a function of observations
  /// with seq ≤ s − lag only.  This is also the per-stream in-flight bound
  /// the admission gate enforces, so the point is always scheduled before
  /// the request can execute — on any shard, at any thread count.
  std::size_t lag = 4;

  /// Per-request latency SLO, in virtual time (see virtual_cost_ms).
  double deadline_budget_ms = 1.0;
};

/// \throws std::invalid_argument naming the offending field.
void validate_config(const ControlConfig& cfg);

/// One folded observation: the deterministic outcome of one request at the
/// point the controller assigned it.  A request that never executed (shed,
/// lost, expired) folds with completed = false and advances the sequence
/// without touching the signals — statuses like that are load-dependent, so
/// letting them steer the loop would break the determinism contract; the
/// caveat is the same one serve's results JSONL already carries.
struct Observation {
  std::size_t pixels = 0;          ///< side² · frames of the job
  std::size_t bits_corrected = 0;  ///< voter repairs (NGST + OTIS bit votes)
  std::size_t pixels_corrected = 0;
  std::size_t pixels_vetoed = 0;   ///< plausibility-gate / trend-test saves
  double cost_ms = 0.0;            ///< virtual_cost_ms at the applied point
  bool completed = true;
};

/// The controller's windowed view of its stream.
struct Signals {
  double activity = 0.0;    ///< EWMA corrected pixels per Mpixel
  double veto_ratio = 0.0;  ///< EWMA vetoed / (vetoed + corrected)
  double pressure = 0.0;    ///< EWMA cost_ms / deadline_budget_ms
  /// EWMA job size in Mpixels.  Virtual cost is load · per-pixel cost, so
  /// this lets a raise be vetted feed-forward against the budget instead of
  /// waiting for the pressure EWMA to discover the overload a lag later
  /// (which would overshoot, then shed-cascade).
  double load_mpix = 0.0;
};

/// What a decision epoch did.
enum class Action : std::uint8_t {
  kHold = 0,        ///< signals inside the dead band, or dwelling
  kRaise,           ///< fault activity up: Λ (then Υ) stepped up
  kRelax,           ///< activity quiet or false alarms: stepped down
  kShedPrecision,   ///< deadline pressure: stepped down to stay timely
};

[[nodiscard]] const char* to_string(Action action) noexcept;

/// The full decision-function state.  decide() is a pure transition on this
/// struct — goldens in tests/control_test.cpp pin its trajectory.
struct ControllerState {
  Signals signals;
  int level = 0;                    ///< Λ grid level (see kLambdaInitial)
  std::size_t upsilon = 4;
  std::size_t hold_remaining = 0;   ///< epochs left in the dwell
  std::uint64_t folds = 0;          ///< observations folded so far
  std::uint64_t epochs = 0;         ///< decisions taken so far
};

/// One decision-epoch record, for the deterministic decision log.
struct Decision {
  std::uint64_t stream = 0;
  std::uint64_t epoch = 0;       ///< 0-based decision index
  std::uint64_t first_seq = 0;   ///< first stream-seq the point applies to
  Action action = Action::kHold;
  core::OperatingPoint point;    ///< the point after the transition
  Signals signals;               ///< the signals that produced it
};

/// The pure decision function: folds the epoch's signals into a bounded,
/// hysteretic step of the operating point.  Mutates level/upsilon/dwell in
/// \p state and returns what it did.  Pressure outranks activity: a loop
/// that misses deadlines protects nothing.
[[nodiscard]] Action decide(ControllerState& state, const ControlConfig& cfg);

/// The virtual-time cost model: pixels · (40 + 25·Υ·windowB(Λ)) ns.
/// Monotone in Λ and Υ, so shedding precision always relieves pressure —
/// the property the stability argument in DESIGN.md §13 rests on.
[[nodiscard]] double virtual_cost_ms(std::size_t pixels,
                                     const core::OperatingPoint& point);

/// The operating point a level/upsilon pair denotes; \p pressed picks the
/// throughput-biased batch hint (8) over the latency-biased one (4).
[[nodiscard]] core::OperatingPoint point_at(int level, std::size_t upsilon,
                                            bool pressed);

/// Open-loop application of the cost model: the strongest point whose
/// virtual cost for a \p pixels-sized job stays under
/// 0.95 · deadline_budget_ms, searched in the controller's own
/// raise order (Λ climbs at nominal Υ first; only at the Λ ceiling does
/// surplus budget buy voter ways) so it lands on the closed loop's steady
/// state.  Falls back to the floor point when even (Λ 45, Υ 2) misses
/// the budget — precision sheds, requests do not.
[[nodiscard]] core::OperatingPoint fit_budget(const ControlConfig& cfg,
                                              std::size_t pixels);

/// Per-stream controller: a fold chain over the stream's observations and
/// the derived point schedule.  Not thread-safe — the bank serialises.
class SensitivityController {
 public:
  /// \throws std::invalid_argument via validate_config.
  SensitivityController(ControlConfig cfg, std::uint64_t stream);

  /// Folds the observation for stream-seq folds() (strict order; the bank's
  /// reorder buffer guarantees it).  At epoch boundaries runs decide() and
  /// extends the point schedule.
  void fold(const Observation& obs);

  /// Points are scheduled for every seq < ready_through(): the first `lag`
  /// at construction, then one more per fold.
  [[nodiscard]] std::uint64_t ready_through() const noexcept {
    return cfg_.lag + state_.folds;
  }

  /// The operating point for stream-seq \p seq.
  /// \throws std::out_of_range if seq >= ready_through().
  [[nodiscard]] core::OperatingPoint point_for(std::uint64_t seq) const;

  [[nodiscard]] const ControllerState& state() const noexcept { return state_; }
  [[nodiscard]] const ControlConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t stream() const noexcept { return stream_; }
  [[nodiscard]] const std::vector<Decision>& decisions() const noexcept {
    return decisions_;
  }

 private:
  struct Epoch {  ///< point schedule entry: applies from first_seq on
    std::uint64_t first_seq;
    core::OperatingPoint point;
  };

  ControlConfig cfg_;
  std::uint64_t stream_;
  ControllerState state_;
  std::vector<Epoch> schedule_;
  std::vector<Decision> decisions_;
};

/// Renders decisions as deterministic JSONL (sorted by stream, epoch; fixed
/// %.6g signal formatting) — the byte-comparable artifact CI diffs across
/// thread and shard counts.
[[nodiscard]] std::string decisions_to_jsonl(
    const std::vector<Decision>& decisions);

}  // namespace spacefts::control
