/// \file pipeline.hpp
/// The onboard NGST CR-rejection pipeline (Fig. 1 of the paper), simulated
/// end to end:
///
///   master fragments the baseline's readout stack into square tiles
///   -> scatters them to the worker nodes over the link model
///   -> each worker holds its tile in (fault-prone) data memory, runs the
///      configured preprocessing, then CR-rejection integration
///   -> integrated tiles gather at the master, are re-assembled and
///      Rice-compressed for downlink.
///
/// Bit flips strike each tile while it sits in worker memory, which is
/// exactly the paper's fault model: corruption between acquisition and
/// processing.  Comparing runs that differ only in `preprocess` reproduces
/// the end-to-end claim — input preprocessing protects the *output* product
/// and the downlink compression ratio.
///
/// On top of the memory leg, the link itself is fault-prone
/// (LinkModel::faults): scatter and gather messages can be dropped,
/// corrupted, duplicated, or delayed.  Every tile message is CRC-32 framed
/// (spacefts::edac), so corruption surfaces as a NACK; the master retries a
/// failed fragment with exponential backoff + seeded jitter under a bounded
/// budget, screens gathered tiles against physical flux bounds (byzantine
/// rejection), and — when a fragment exhausts its budget — completes the
/// product with a *flagged* fallback tile (the raw corrupted payload when
/// one arrived, else a median fill from healthy neighbour tiles) and
/// reports coverage < 100% instead of hanging or crashing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/dist/sim.hpp"

namespace spacefts::dist {

/// Which preprocessing runs on the workers.
enum class PreprocessMode {
  kNone,       ///< raw corrupted tiles straight into CR rejection
  kAlgoNgst,   ///< the paper's dynamic algorithm
  kMedian3,    ///< Algorithm 2 baseline
  kBitVote3,   ///< Algorithm 3 baseline
};

[[nodiscard]] const char* to_string(PreprocessMode mode) noexcept;

/// Pipeline configuration.  Defaults model the STScI estimate: 16 COTS
/// processors (1 master + 15 workers) on a Myrinet-class network, 128x128
/// fragments of the 1024x1024 detector (§2.1).
struct PipelineConfig {
  std::size_t workers = 15;
  std::size_t fragment_side = 128;
  LinkModel link{};
  /// Per-bit flip probability applied to tiles in worker memory.
  double gamma0 = 0.0;
  /// Probability that a worker crashes while processing a fragment (the
  /// basic ALFT process-fault model [5]).  The master detects the silence
  /// by timeout and reassigns the fragment to the next worker; crashed
  /// workers reboot and keep serving later fragments.
  double worker_crash_prob = 0.0;
  /// ---- Link-level fault tolerance ----------------------------------
  /// Extra dispatch attempts the master may spend per fragment recovering
  /// from link faults (timeout, CRC failure, byzantine result); 0 sends a
  /// first failure straight to degraded completion.  Crash reassignment
  /// keeps its own bound and does not consume this budget.
  std::size_t max_link_retries = 3;
  /// Master-side plausibility screen on gathered tiles: a tile with any
  /// non-finite pixel, or any pixel outside [result_flux_lo,
  /// result_flux_hi], is rejected as byzantine and the fragment retried.
  /// The default bounds are the physical envelope of 16-bit ramp slopes
  /// with a wide guard band, so legitimately fault-corrupted (but sane)
  /// data is never rejected — only computational garbage is.
  float result_flux_lo = -1.0e6f;
  float result_flux_hi = 1.0e6f;
  PreprocessMode preprocess = PreprocessMode::kAlgoNgst;
  /// The worker stage's voter.  algo.threads are the lanes each (simulated)
  /// node uses for its own tiles; tile output is bit-identical for every
  /// value.
  core::AlgoNgstConfig algo{};
  /// Optional compute executor for the kAlgoNgst worker stage.  When set,
  /// each worker routes its tile preprocessing through it instead of
  /// running AlgoNgst inline — the serve tier uses this to execute
  /// fragments on a pluggable backend.  \p fragment is the row-major tile
  /// index, so an executor can derive a distinct fault/shadow stream per
  /// fragment.  Must be semantically equivalent to
  /// AlgoNgst(config).preprocess(tile); the memory-fault leg has already
  /// run when it is called.
  std::function<core::AlgoNgstReport(common::TemporalStack<std::uint16_t>&,
                                     const core::AlgoNgstConfig&,
                                     std::size_t fragment)>
      ngst_executor;
};

/// How one fragment's science product was obtained.
enum class FragmentOutcome : std::uint8_t {
  kHealthy = 0,          ///< delivered through the full protected path
  kDegradedCorrupt = 1,  ///< budget exhausted; raw corrupted payload kept
  kDegradedFilled = 2,   ///< budget exhausted; median neighbour fill
};

[[nodiscard]] const char* to_string(FragmentOutcome outcome) noexcept;

/// End-to-end result of one baseline.
struct PipelineResult {
  common::Image<float> flux;        ///< re-assembled integrated image
  double makespan_s = 0.0;          ///< simulated end-to-end latency
  double compression_ratio = 0.0;   ///< Rice ratio of the quantised product
  std::size_t fragments = 0;
  std::size_t faults_injected = 0;  ///< total bits flipped in worker memory
  std::size_t pixels_corrected = 0; ///< by the preprocessing stage
  std::size_t worker_crashes = 0;   ///< crash events during the baseline
  std::size_t reassignments = 0;    ///< fragments re-dispatched after timeout
  // ---- Link accounting ------------------------------------------------
  std::size_t messages_dropped = 0;    ///< lost in transit
  std::size_t messages_corrupted = 0;  ///< payload bit flips in transit
  std::size_t crc_failures = 0;        ///< corruptions caught by the framing
  std::size_t byzantine_rejected = 0;  ///< gathered tiles failing bounds
  std::size_t link_retries = 0;        ///< fragment retries spent on the link
  std::size_t degraded_fragments = 0;  ///< fragments completed via fallback
  /// One FragmentOutcome per fragment, row-major tile order.
  std::vector<FragmentOutcome> fragment_outcomes;
  /// Healthy fragments / fragments: 1.0 means a fully protected product.
  double coverage = 1.0;
  std::vector<double> worker_busy_s;
};

/// Runs one baseline through the simulated system.  Always terminates:
/// every fragment either completes healthy or is finished with a flagged
/// fallback tile once its retry budget is exhausted.
/// \throws std::invalid_argument if the stack is not tileable by
/// fragment_side, workers == 0, any probability (gamma0,
/// worker_crash_prob, link fault rates) is outside [0, 1], or the result
/// flux bounds are empty.
[[nodiscard]] PipelineResult run_pipeline(
    const common::TemporalStack<std::uint16_t>& readouts,
    const PipelineConfig& config, common::Rng& rng);

}  // namespace spacefts::dist
