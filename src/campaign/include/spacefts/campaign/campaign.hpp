/// \file campaign.hpp
/// Systematic fault-injection campaigns over the distributed pipeline.
///
/// Single hostile runs make anecdotes; campaigns make evidence.  The runner
/// sweeps a (Γ₀, crash-probability, link-loss, Λ) grid, executes `trials`
/// independently seeded pipeline runs per grid cell, and aggregates
/// survival / coverage / correction / false-alarm / makespan statistics
/// into one JSON-lines record per cell.  Everything is deterministic from
/// `seed`: trial RNGs are derived by index (never from thread scheduling),
/// trials are written into preassigned slots, and aggregation runs in a
/// fixed order — so the emitted JSON is bit-identical for every thread
/// count, and a CI job can diff survival against a committed baseline.
///
/// `enforce()` turns the report into an exit code: any non-surviving trial,
/// or fragment coverage below 100% on a clean-memory (Γ₀ = 0) cell, is a
/// robustness regression.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spacefts/dist/pipeline.hpp"

namespace spacefts::campaign {

/// The sweep grid and per-trial pipeline shape.
struct CampaignConfig {
  // Grid axes; the campaign runs the full cartesian product.
  std::vector<double> gamma0_grid{0.0, 0.002};     ///< memory bit-flip Γ₀
  std::vector<double> crash_grid{0.0, 0.25};       ///< worker crash prob.
  std::vector<double> link_loss_grid{0.0, 0.05};   ///< drop & corrupt prob.
  std::vector<double> lambda_grid{80.0};           ///< Algo_NGST Λ

  std::size_t trials = 3;        ///< seeded runs per cell
  std::uint64_t seed = 42;       ///< campaign master seed
  std::size_t threads = 1;       ///< trial-level parallelism (0 = all)

  // Scene + pipeline shape over a 32x32 scene (small by default: CI-speed).
  std::size_t frames = 16;
  std::size_t workers = 4;
  std::size_t fragment_side = 16;
  dist::PreprocessMode preprocess = dist::PreprocessMode::kAlgoNgst;
  std::size_t max_link_retries = 3;  ///< 0 = degraded completion on first loss
};

/// Aggregated statistics of one grid cell.
struct CellResult {
  double gamma0 = 0.0;
  double crash_prob = 0.0;
  double link_loss = 0.0;
  double lambda = 0.0;

  std::size_t trials = 0;
  std::size_t survived = 0;  ///< runs that terminated with a product
  double mean_coverage = 1.0;
  double min_coverage = 1.0;
  /// pixels_corrected / faults_injected over faulty trials (0 when no
  /// faults were injected anywhere in the cell).
  double correction_rate = 0.0;
  /// Corrections per megapixel-frame on Γ₀ = 0 trials — every correction
  /// made on clean memory is by definition a pseudo-correction.
  double false_alarm_per_mpixel = 0.0;
  double mean_makespan_s = 0.0;
  double max_makespan_s = 0.0;

  std::size_t faults_injected = 0;
  std::size_t worker_crashes = 0;
  std::size_t messages_dropped = 0;
  std::size_t messages_corrupted = 0;
  std::size_t crc_failures = 0;
  std::size_t byzantine_rejected = 0;
  std::size_t link_retries = 0;
  std::size_t degraded_fragments = 0;
};

/// One full campaign sweep.
struct CampaignReport {
  std::vector<CellResult> cells;  ///< fixed grid order (Γ₀-major)
  std::size_t trials_run = 0;
  std::size_t trials_survived = 0;
};

/// Runs the sweep.  Deterministic per config (including across `threads`).
/// \throws std::invalid_argument for an empty grid axis or zero trials.
[[nodiscard]] CampaignReport run_campaign(const CampaignConfig& config);

/// The report as JSON-lines, one record per cell (stable field order,
/// %.10g formatting — byte-stable across runs and thread counts).
[[nodiscard]] std::string to_jsonl(const CampaignReport& report);

/// The row-identity key the campaign artifact dedupes on: the bench name
/// plus every axis field present in the row (fault_campaign rows key on
/// (gamma0, crash_prob, link_loss, lambda); compute_shadow rows on
/// (fault_rate, shadow_rate); downlink_fidelity rows on (workload, gamma0,
/// link_loss, lambda); absent fields contribute "").  `spacefts_cli
/// campaign` upserts every grid family's rows into its --out under it.
[[nodiscard]] std::string campaign_row_key(std::string_view line);

/// Robustness gate: returns the number of violations (0 = pass) and
/// appends one human-readable line per violation to \p diagnostics.
/// Violations: a trial that did not survive, or min coverage < 1.0 on any
/// Γ₀ = 0 cell.
[[nodiscard]] std::size_t enforce(const CampaignReport& report,
                                  std::string& diagnostics);

}  // namespace spacefts::campaign
