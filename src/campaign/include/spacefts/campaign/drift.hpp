/// \file drift.hpp
/// The drifting-Γ₀ sweep: the controller's existence proof.
///
/// A fixed operating point is tuned for one fault climate; this harness
/// subjects the serving tier to a *schedule* of climates — phases of clean
/// memory alternating with elevated Γ₀ — and runs the identical workload
/// once under the adaptive controller and once per fixed-Λ baseline.  The
/// scoreboard is the paper's own tension made scalar:
///
///   science = corrections on faulty-phase requests
///           − corrections on clean-phase requests
///
/// Every correction made while Γ₀ = 0 is by definition a pseudo-correction
/// (the campaign module's false-alarm convention), so a hot fixed Λ pays
/// for its faulty-phase haul with clean-phase false alarms, a cold fixed Λ
/// avoids the false alarms by missing real faults, and the controller —
/// raising Λ/Υ only while observed activity is high — should dominate
/// both.  Deadline compliance is scored in the controller's virtual-time
/// cost model, so every field of the report is deterministic.
///
/// Determinism: requests carry no wall deadline and cross a perfect
/// ingress link, so every status is kOk and every result payload is a pure
/// function of the workload.  The adaptive arm's decision log is therefore
/// byte-identical across worker-thread counts and shard topologies,
/// including mid-load shard kills — the CI control-smoke job cmp(1)s it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spacefts/control/controller.hpp"

namespace spacefts::campaign {

/// One fault climate: `requests` consecutive requests at this Γ₀.
struct DriftPhase {
  double gamma0 = 0.0;
  std::size_t requests = 0;
};

struct DriftConfig {
  /// The climate schedule.  Defaults alternate calm and active phases so
  /// both transitions (raise into a burst, relax out of it) are exercised.
  std::vector<DriftPhase> phases{
      {0.0, 96}, {0.004, 96}, {0.0, 96}, {0.008, 96}, {0.0, 96}};
  /// Fixed-Λ baseline arms; the adaptive arm always runs first.
  std::vector<double> lambda_grid{55.0, 70.0, 80.0, 95.0};

  // Job shape (NGST + distributed pipeline: the one path Γ₀ reaches).
  std::size_t side = 32;
  std::size_t frames = 8;
  std::size_t fragment_side = 16;

  // Serving-tier shape.
  std::size_t streams = 2;   ///< interleaved stream ids (per-stream loops)
  std::size_t workers = 2;   ///< serve worker threads
  std::size_t max_batch = 4;
  std::size_t shards = 0;    ///< 0 = single Server; > 0 = Router fleet
  /// Mid-load deterministic kills (shard, after-results), Router mode only.
  std::vector<std::pair<std::size_t, std::uint64_t>> shard_kills;

  std::uint64_t seed = 42;   ///< dataset seed root (per-request derived)
  control::ControlConfig control;
};

/// One arm's aggregate outcome.
struct DriftArm {
  std::string name;          ///< "adaptive" or "lambda=<value>"
  bool adaptive = false;
  double fixed_lambda = 0.0; ///< 0 for the adaptive arm
  std::size_t requests = 0;
  std::size_t completed = 0;

  std::uint64_t corrected_faulty = 0;  ///< pixels corrected, Γ₀ > 0 phases
  std::uint64_t corrected_clean = 0;   ///< pseudo-corrections, Γ₀ = 0 phases
  std::uint64_t bits_corrected = 0;
  std::uint64_t vetoed = 0;            ///< plausibility-gate saves
  double science = 0.0;                ///< corrected_faulty − corrected_clean

  double virtual_cost_ms_mean = 0.0;
  std::size_t virtual_misses = 0;      ///< virtual cost > deadline budget
  double virtual_compliance = 1.0;     ///< 1 − misses / requests

  // Decision-log tallies (adaptive arm only; zero on baselines).
  std::size_t decisions = 0;
  std::size_t raises = 0;
  std::size_t relaxes = 0;
  std::size_t sheds = 0;
};

struct DriftReport {
  std::vector<DriftArm> arms;   ///< adaptive first, then lambda_grid order
  std::string decisions_jsonl;  ///< adaptive arm's full decision trajectory
};

/// Runs every arm over the identical request list.
/// \throws std::invalid_argument for an empty schedule, zero-request
/// phases, an empty Λ grid, or a job shape the serve tier would reject.
[[nodiscard]] DriftReport run_drift(const DriftConfig& config);

/// Deterministic summary: one {"bench":"control_drift",...} line per arm
/// followed by the decision trajectory.  Byte-stable across thread and
/// shard counts — the artifact CI compares, and BENCH_control.json.
[[nodiscard]] std::string to_jsonl(const DriftReport& report);

/// The acceptance gate: every request completed, and no fixed-Λ arm beats
/// the adaptive arm on science or on virtual deadline compliance.  Returns
/// the violation count (0 = pass) and appends one line per violation.
[[nodiscard]] std::size_t enforce_drift(const DriftReport& report,
                                        std::string& diagnostics);

}  // namespace spacefts::campaign
