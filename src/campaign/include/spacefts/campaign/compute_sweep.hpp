/// \file compute_sweep.hpp
/// Detected-vs-escaped campaign over the untrusted-compute axis.
///
/// The fault_campaign sweeps *memory and transport* faults; this sweep
/// exercises the third leg the backend subsystem added: **silent compute
/// corruption**.  For every (compute-fault rate, shadow rate) grid cell it
/// runs a seeded batch of NGST preprocessing requests three ways —
///
///   trusted   = CpuBackend                     (ground truth bytes)
///   shadowed  = ShadowBackend(UnreliableBackend(cpu), cpu)
///
/// — and classifies each request by byte comparison against the trusted
/// product: *injected* (the unreliable primary actually corrupted this
/// request's output), *detected* (the shadow guard sampled it, saw the
/// divergence, and substituted the trusted bytes), and *escaped* (the
/// served product still differs from the trusted one, i.e. a silent
/// corruption the guard's sample missed).
///
/// The whole sweep is deterministic from `seed`, so the emitted rows are
/// byte-stable and CI can both validate them structurally and assert the
/// physics: escapes are exactly the injected-minus-detected corruptions,
/// the escape rate is monotonically non-increasing in the shadow rate, and
/// a 1.0 shadow rate escapes nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spacefts::campaign {

/// The sweep grid and per-cell request batch shape.
struct ComputeSweepConfig {
  std::vector<double> fault_rate_grid{0.0, 0.1, 0.3};   ///< P(compute fault)
  std::vector<double> shadow_rate_grid{0.0, 0.5, 1.0};  ///< guard sample rate
  std::size_t requests = 48;  ///< preprocessing requests per cell
  std::size_t side = 16;      ///< square scene side
  std::size_t frames = 8;     ///< temporal readouts
  double lambda = 80.0;       ///< Algo_NGST Λ
  std::uint64_t seed = 42;    ///< master seed (datasets + faults + shadow)
};

/// Aggregated outcome of one (fault rate, shadow rate) cell.
struct ComputeCellResult {
  double fault_rate = 0.0;
  double shadow_rate = 0.0;
  std::size_t requests = 0;
  std::size_t injected = 0;   ///< outputs the unreliable primary corrupted
  std::size_t detected = 0;   ///< divergences the shadow guard caught
  std::size_t escaped = 0;    ///< served products differing from trusted
  std::size_t stalls = 0;     ///< loud (late-but-correct) fault plans
  bool quarantined = false;   ///< canonical verdict after the batch
};

/// The sweep result, cells in fault-rate-major grid order.
struct ComputeSweepReport {
  std::vector<ComputeCellResult> cells;
};

/// Runs the sweep.  Deterministic per config.
/// \throws std::invalid_argument for an empty axis, a rate outside [0, 1],
/// or a zero request count.
[[nodiscard]] ComputeSweepReport run_compute_sweep(
    const ComputeSweepConfig& config);

/// The report as JSON-lines, one record per cell (stable field order,
/// "bench":"compute_shadow"); upserts into BENCH_campaign.json alongside
/// the fault_campaign rows via the shared campaign_row_key.
[[nodiscard]] std::string to_jsonl(const ComputeSweepReport& report);

/// Robustness gate: returns the number of violations (0 = pass), appending
/// one human-readable line per violation to \p diagnostics.  Violations:
/// escaped != injected - detected on any cell, an escape at shadow rate
/// 1.0, or an escape count that *rises* with the shadow rate at a fixed
/// fault rate.  Each cell is flagged at most once per kind.
[[nodiscard]] std::size_t enforce(const ComputeSweepReport& report,
                                  std::string& diagnostics);

}  // namespace spacefts::campaign
