/// \file backend.hpp
/// Pluggable compute backends: the seam between "what the voter computes"
/// and "what executes it".
///
/// ROADMAP item 4, grounded in PAPERS.md "Combining Fault Tolerance
/// Techniques and COTS SoC Accelerators for Payload Processing in Space":
/// the paper's thesis is that input pre-processing lets science payloads
/// run on unreliable COTS compute, so the compute substrate itself must be
/// swappable — and untrusted.  A `Backend` owns both instrument compute
/// paths (NGST temporal stacks, OTIS radiance cubes) behind one interface:
///
///   * `CpuBackend` — the trusted reference; wraps the existing
///     core::Kernel scalar/SWAR/AVX2/AVX-512 dispatch unchanged.
///   * `UnreliableBackend` — decorates any inner backend with a seeded
///     fault::ComputeFaultModel that corrupts the *output* (bit flips,
///     stuck tiles, silent truncation, stalls) per (request, epoch) draw.
///     The model draws nothing when fault-free, so a zero-rate config is
///     byte-identical (and draw-identical) to the inner backend.
///   * `ShadowBackend` — the production guard (application-aware selective
///     checking, per PAPERS.md "A Case for Application-Aware Space
///     Radiation Tolerance in Orbital Computing"): runs a trusted guard
///     backend on a deterministic sample of requests, byte-diffs the two
///     outputs via the src/check divergence comparator, and on mismatch
///     adopts the guard's output — transparently re-executed on trusted
///     compute — while health counters feed the serve tier's ejection
///     logic.
///
/// # Determinism contract
///
/// Every backend's output is a pure function of (input, config, meta).
/// The shadow sample and every fault plan derive from
/// common::derive_stream_seed(seed, request, epoch), never from call
/// order: results are byte-identical across thread counts, shard counts,
/// and replays, faults included.  The shadow decision *log* is therefore a
/// set of per-request facts; exported sorted by (request, epoch) it is
/// byte-identical across topologies, and the quarantine verdict is defined
/// as a fold over that sorted log (see quarantine_after) — not over the
/// scheduling-dependent arrival order.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/fault/compute_faults.hpp"

namespace spacefts::backend {

/// Identity of one execution: which request, and which derived compute
/// stream within it (serve main compute uses epoch 0; the dist pipeline
/// gives each fragment its own epoch so tiles fault independently).
struct ComputeMeta {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
};

/// What actually happened during one execution — filled by the backend so
/// the serving layer can report it without widening every return type.
struct ComputeOutcome {
  fault::ComputeFaultKind fault = fault::ComputeFaultKind::kNone;
  bool shadow_sampled = false;   ///< the guard re-executed this request
  bool shadow_mismatch = false;  ///< outputs diverged; guard's result used
  double stall_ms = 0.0;         ///< injected compute latency
};

/// The compute interface.  Implementations must be safe to call from many
/// worker threads at once (the serve tier shares one instance across every
/// shard).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable lowercase name ("cpu", "unreliable", "shadowed") used in
  /// results JSONL metadata and CLI flags.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// NGST: preprocess the temporal stack in place.
  /// \p outcome may be null; when set it receives what happened.
  virtual core::AlgoNgstReport preprocess(
      common::TemporalStack<std::uint16_t>& stack,
      const core::AlgoNgstConfig& config, const ComputeMeta& meta,
      ComputeOutcome* outcome) = 0;

  /// OTIS: preprocess the radiance cube in place.
  virtual core::AlgoOtisReport preprocess(
      common::Cube<float>& radiance, std::span<const double> wavelengths_um,
      const core::AlgoOtisConfig& config, const ComputeMeta& meta,
      ComputeOutcome* outcome) = 0;
};

/// The trusted reference: the existing AlgoNgst/AlgoOtis kernel dispatch.
class CpuBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "cpu"; }

  core::AlgoNgstReport preprocess(common::TemporalStack<std::uint16_t>& stack,
                                  const core::AlgoNgstConfig& config,
                                  const ComputeMeta& meta,
                                  ComputeOutcome* outcome) override;

  core::AlgoOtisReport preprocess(common::Cube<float>& radiance,
                                  std::span<const double> wavelengths_um,
                                  const core::AlgoOtisConfig& config,
                                  const ComputeMeta& meta,
                                  ComputeOutcome* outcome) override;
};

/// Decorates an inner backend with seeded output corruption — the
/// "unreliable accelerator".  The inner compute runs faithfully; the fault
/// model then corrupts the produced buffer, so the report counters still
/// describe a healthy run (that is what makes the corruption *silent*).
class UnreliableBackend final : public Backend {
 public:
  /// \throws std::invalid_argument via ComputeFaultModel validation.
  UnreliableBackend(std::shared_ptr<Backend> inner,
                    const fault::ComputeFaultConfig& faults);

  [[nodiscard]] const char* name() const noexcept override {
    return "unreliable";
  }

  [[nodiscard]] const fault::ComputeFaultModel& model() const noexcept {
    return model_;
  }

  core::AlgoNgstReport preprocess(common::TemporalStack<std::uint16_t>& stack,
                                  const core::AlgoNgstConfig& config,
                                  const ComputeMeta& meta,
                                  ComputeOutcome* outcome) override;

  core::AlgoOtisReport preprocess(common::Cube<float>& radiance,
                                  std::span<const double> wavelengths_um,
                                  const core::AlgoOtisConfig& config,
                                  const ComputeMeta& meta,
                                  ComputeOutcome* outcome) override;

 private:
  std::shared_ptr<Backend> inner_;
  fault::ComputeFaultModel model_;
};

/// Mismatches (in sorted-log order) at which the primary backend is
/// declared quarantined.
inline constexpr std::uint64_t kQuarantineThreshold = 3;
static_assert(kQuarantineThreshold > 0);

/// Shadow sampling knobs.
struct ShadowConfig {
  /// Fraction of executions the guard re-runs; 1.0 checks everything
  /// (blanket TMR-style), 0.0 checks nothing.  The sample is a pure
  /// function of (seed, request, epoch) — never of load or arrival order.
  double shadow_rate = 0.05;
  std::uint64_t seed = 0x5ade5ULL;
};

/// One per-execution fact recorded by the shadow guard.  Pure in
/// (request, epoch): replays produce identical entries, so the log sorted
/// by (request, epoch) is byte-identical across threads and shards.
struct ShadowDecision {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  bool sampled = false;
  bool mismatch = false;
  bool from_guard = false;  ///< the guard's output was adopted
};

/// Monotonic health counters of a shadow guard (order-independent totals).
struct BackendHealth {
  std::uint64_t executed = 0;
  std::uint64_t sampled = 0;
  std::uint64_t mismatches = 0;
  bool quarantined = false;  ///< canonical verdict (sorted-log fold)
};

/// Runs a guard backend on a deterministic sample of requests and adopts
/// its output on divergence.
class ShadowBackend final : public Backend {
 public:
  /// \throws std::invalid_argument for a rate outside [0, 1] or null
  /// backends.
  ShadowBackend(std::shared_ptr<Backend> primary,
                std::shared_ptr<Backend> guard, const ShadowConfig& config);

  [[nodiscard]] const char* name() const noexcept override {
    return "shadowed";
  }

  [[nodiscard]] const ShadowConfig& config() const noexcept { return config_; }

  /// Whether the deterministic sample includes (request, epoch).
  [[nodiscard]] bool sampled(std::uint64_t request,
                             std::uint64_t epoch) const noexcept;

  core::AlgoNgstReport preprocess(common::TemporalStack<std::uint16_t>& stack,
                                  const core::AlgoNgstConfig& config,
                                  const ComputeMeta& meta,
                                  ComputeOutcome* outcome) override;

  core::AlgoOtisReport preprocess(common::Cube<float>& radiance,
                                  std::span<const double> wavelengths_um,
                                  const core::AlgoOtisConfig& config,
                                  const ComputeMeta& meta,
                                  ComputeOutcome* outcome) override;

  /// The decision log, canonically ordered: sorted by (request, epoch),
  /// duplicates from replays collapsed (entries are pure per key, so
  /// duplicates are identical).
  [[nodiscard]] std::vector<ShadowDecision> decisions() const;

  /// Health snapshot; quarantined is computed from the canonical log.
  [[nodiscard]] BackendHealth health() const;

 private:
  ShadowConfig config_;
  std::shared_ptr<Backend> primary_;
  std::shared_ptr<Backend> guard_;
  mutable std::mutex mutex_;
  std::vector<ShadowDecision> log_;

  void record(const ShadowDecision& decision);
};

/// Canonical quarantine fold: walks \p decisions (which must already be in
/// canonical order) and returns the number of mismatches seen; the backend
/// is quarantined once that count reaches kQuarantineThreshold.  Exposed
/// so a decision log written to disk can replay the exact quarantine
/// verdict.
[[nodiscard]] std::uint64_t count_mismatches(
    std::span<const ShadowDecision> decisions) noexcept;

/// The (request, epoch) key at which kQuarantineThreshold was reached,
/// walking the canonical log; nullopt-like sentinel {UINT64_MAX, UINT64_MAX}
/// when it never was.
[[nodiscard]] ShadowDecision quarantine_after(
    std::span<const ShadowDecision> decisions) noexcept;

/// Renders the canonical decision log as JSONL (stable field order), the
/// serve `--backend-log` artifact: byte-identical across thread and shard
/// counts for a fixed workload + seed.
[[nodiscard]] std::string decisions_to_jsonl(
    std::span<const ShadowDecision> decisions);

}  // namespace spacefts::backend
