/// \file compute_faults.hpp
/// Seeded fault injection for an untrusted compute substrate.
///
/// Where models.hpp corrupts *memory* and shard_faults.hpp fells whole
/// *processes*, this model corrupts the **output of a computation**: the
/// silent failure modes of a COTS accelerator running the voter.  A faulty
/// execution can flip output bits (SEU in an output buffer or datapath),
/// stick a whole tile at one value (a dead compute unit writing its last
/// latch), silently truncate low-order bits (a narrowed datapath that
/// still "works"), or stall (a hung kernel that eventually returns the
/// correct result late).  The first three are *silent data corruptions* —
/// the report counters still describe a healthy run — which is exactly
/// what the shadow-compare guard in src/backend exists to catch.
///
/// Like every fault model in this repo, a fault plan is a pure function of
/// a seed: `plan(request, epoch)` draws from a stream derived via
/// common::derive_stream_seed(seed, request, epoch), so the same request
/// suffers the same corruption on any thread count, shard count, or replay
/// — and a perfect() config performs **zero RNG draws**.  The draw order
/// per plan is fixed and documented: one uniform for "does a fault fire",
/// one uniform for the kind, then one raw draw for the payload stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace spacefts::fault {

/// What a faulty execution does to its output.
enum class ComputeFaultKind : std::uint8_t {
  kNone = 0,      ///< the computation is faithful
  kBitFlips = 1,  ///< a handful of output bits flip (silent)
  kStuckTile = 2, ///< one output tile reads back a stuck constant (silent)
  kTruncate = 3,  ///< low-order output bits are zeroed everywhere (silent)
  kStall = 4,     ///< correct result, delivered late (loud, not silent)
};

[[nodiscard]] const char* to_string(ComputeFaultKind kind) noexcept;

/// Per-(request, epoch) fault probability and the stall it adds.  Once a
/// fault fires, the silent kinds weigh 4 (bit flips, 1..8 bits) : 2 (stuck
/// 8×8 tile) : 2 (low 3 bits truncated) against `stall_weight`.  The
/// default is a faithful substrate.
struct ComputeFaultConfig {
  double fault_rate = 0.0;  ///< P(any fault per (request, epoch) execution)
  double stall_weight = 1.0;  ///< relative weight of kStall in the mix
  double stall_ms = 25.0;     ///< kStall: added latency
  std::uint64_t seed = 0xacce1ULL;  ///< base of the per-request streams

  /// True when no fault can ever fire (and plan() must draw nothing).
  [[nodiscard]] bool perfect() const noexcept { return fault_rate == 0.0; }
};

/// One execution's fate, fully resolved.
struct ComputeFaultPlan {
  ComputeFaultKind kind = ComputeFaultKind::kNone;
  /// Seed of the corruption-payload stream (flip positions, tile origin).
  std::uint64_t payload_seed = 0;
  double stall_ms = 0.0;  ///< kStall only

  /// True when the plan corrupts output bytes without any failure signal.
  [[nodiscard]] bool silent() const noexcept {
    return kind == ComputeFaultKind::kBitFlips ||
           kind == ComputeFaultKind::kStuckTile ||
           kind == ComputeFaultKind::kTruncate;
  }
};

/// Draws deterministic per-(request, epoch) compute-fault plans and applies
/// their corruptions to output buffers.
class ComputeFaultModel {
 public:
  /// \throws std::invalid_argument if fault_rate is outside [0, 1], or
  /// stall_weight or stall_ms is negative.
  explicit ComputeFaultModel(const ComputeFaultConfig& config);

  [[nodiscard]] const ComputeFaultConfig& config() const noexcept {
    return config_;
  }

  /// The fate of one execution of \p request under incarnation \p epoch.
  /// Pure function of (config.seed, request, epoch); zero draws when
  /// perfect().
  [[nodiscard]] ComputeFaultPlan plan(std::uint64_t request,
                                      std::uint64_t epoch) const;

  /// Applies \p plan's corruption to a 16-bit output buffer laid out as
  /// rows of \p row_width words.  Returns the number of words changed.
  /// kNone/kStall change nothing.  Pure function of (plan, buffer size).
  std::size_t corrupt(std::span<std::uint16_t> words, std::size_t row_width,
                      const ComputeFaultPlan& plan) const;

  /// Same, for a float output buffer (corruption acts on the IEEE-754 bit
  /// patterns; kTruncate zeroes low mantissa bits).
  std::size_t corrupt(std::span<float> values, std::size_t row_width,
                      const ComputeFaultPlan& plan) const;

 private:
  ComputeFaultConfig config_;
};

}  // namespace spacefts::fault
