/// \file properties.hpp
/// Reusable round-trip and metamorphic properties.
///
/// Each function checks one contract the rest of the repo relies on and
/// returns a PropertyResult: ok, or a failure with a human-readable detail
/// naming the first violated instance.  The differential harness drives
/// them from seeded fuzz cases; the unit tests drive them directly.
///
/// The properties:
///  * rice: compress/decompress identity (escape blocks and block-boundary
///    lengths included), writer reuse across finish(), and the
///    corrupt-stream contract (decode either returns `count` samples or
///    throws BitstreamError — never hangs, never reads out of bounds), and
///    agreement with the bit-serial oracle decoder on damaged streams;
///  * CRC-32: agreement with the bit-serial oracle, frame/deframe
///    round-trip and single-bit-damage detection;
///  * Hamming(72,64): encode → 1 flip → corrects to the original word;
///    encode → 2 flips → detects without miscorrecting;
///  * Λ-monotonicity: raising Λ never shrinks any way's surviving voter
///    set (Λ₁ < Λ₂ ⇒ survivors(Λ₁) ⊆ survivors(Λ₂));
///  * window-C invariance: preprocessing never touches bits below the
///    window-C delimiter it reports;
///  * correction idempotence at the fixed point: iterating preprocess
///    converges within a few passes, after which preprocess∘preprocess =
///    preprocess.  (Strict single-pass idempotence is deliberately NOT
///    claimed: the thresholds are dynamic, so a pass that repairs faults
///    tightens the next pass's thresholds and can unlock one more
///    correction — fuzzing found exactly that on the first run.)
#pragma once

#include <cstdint>
#include <string>

#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"

namespace spacefts::check {

/// Outcome of one property check.
struct PropertyResult {
  bool ok = true;
  std::string detail;  ///< empty when ok; first violation otherwise
};

/// Convenience constructor for a failure.
[[nodiscard]] PropertyResult property_failed(std::string detail);

// ---- rice -----------------------------------------------------------------

/// Round-trip identity over a mix of compressible (random-walk), verbatim
/// (full-entropy), and block-boundary-length payloads drawn from \p rng;
/// each stream must also equal the bit-serial oracle_rice_encode's.
[[nodiscard]] PropertyResult check_rice_roundtrip(common::Rng& rng);

/// A single BitWriter reused across finish() must produce the same stream a
/// fresh writer produces (regression for the stale-state reuse bug).
[[nodiscard]] PropertyResult check_rice_writer_reuse(common::Rng& rng);

/// Corrupt streams (bit flips, truncation, trailing garbage) must decode to
/// exactly `count` samples or throw rice::BitstreamError.
[[nodiscard]] PropertyResult check_rice_corrupt_contract(common::Rng& rng);

/// rice::decompress16 agrees with the bit-serial oracle_rice_decode on
/// every payload shape's stream, intact and damaged (bit flips, cuts
/// anywhere and inside the last 8 bytes, tails of 0xFF longer than 64
/// bits) and under hostile counts: the same samples, or a BitstreamError
/// with the same message.
[[nodiscard]] PropertyResult check_rice_decode_oracle(common::Rng& rng);

// ---- edac -----------------------------------------------------------------

/// crc32 agrees with the bit-serial oracle_crc32 on a payload of
/// log-uniform length below 4 KiB, fresh and continuing a stream; plus the
/// frame round-trip and detection of sampled single-bit flips.
[[nodiscard]] PropertyResult check_crc_frame(common::Rng& rng);

/// Hamming(72,64) SEC-DED contract on sampled words: every single flip
/// (data and parity) corrects cleanly; sampled double flips are detected
/// without miscorrection.
[[nodiscard]] PropertyResult check_hamming_contract(common::Rng& rng);

// ---- voter metamorphics ---------------------------------------------------

/// Λ-monotonicity of the voter matrix on \p series: for lambda_lo <
/// lambda_hi, every way's threshold can only drop and every surviving voter
/// survives again.
[[nodiscard]] PropertyResult check_lambda_monotonicity(
    std::span<const std::uint16_t> series, std::size_t upsilon,
    double lambda_lo, double lambda_hi);

/// Window-C invariance: preprocess a copy of \p series and verify no bit
/// below the reported window-C delimiter changed.
[[nodiscard]] PropertyResult check_window_c_invariance(
    std::span<const std::uint16_t> series, const core::AlgoNgstConfig& config);

/// Correction idempotence at the fixed point: iterating preprocess on
/// \p series converges within a bounded number of passes; at the fixed
/// point a further pass changes nothing.
[[nodiscard]] PropertyResult check_ngst_idempotence(
    std::span<const std::uint16_t> series, const core::AlgoNgstConfig& config);

/// Kernel-choice invariance: preprocessing \p stack with every voter
/// kernel the host can execute (SWAR, and AVX2 and AVX-512 where compiled
/// in) yields data and report counters bit-identical to
/// oracle_ngst_stack.  The kernel field of \p config is ignored.
[[nodiscard]] PropertyResult check_kernel_invariance(
    const common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config);

// ---- serve ----------------------------------------------------------------

/// Workload JSONL round-trip: generate → serialise → parse → serialise is a
/// fixed point, and regeneration from the same spec is bit-identical.
[[nodiscard]] PropertyResult check_serve_workload_roundtrip(common::Rng& rng);

/// Server determinism: the same workload served with different batch sizes
/// (manual step mode) yields byte-identical deterministic result JSONL.
[[nodiscard]] PropertyResult check_serve_determinism(common::Rng& rng);

// ---- downlink -------------------------------------------------------------

/// Compressed-HDU and downlink-frame round-trip: random images (1-row
/// telemetry shapes included) survive make_compressed_hdu → serialize →
/// protect_frame → recover_frame → parse → read_compressed_hdu bit-exactly;
/// a 0×0 image is rejected up front; any single bit flip in the data or
/// parity region is repaired to the exact original payload.
[[nodiscard]] PropertyResult check_downlink_roundtrip(common::Rng& rng);

/// The structure-aware corrupt contract: mangled frames (header-field
/// edits such as a wild ZNAXIS, stream truncation/garbage, random flips,
/// MessageFaultModel damage) either recover the exact payload, throw
/// fits::FitsError on decode, or come back nullopt — never a wrong image,
/// a crash, or an unbounded allocation.
[[nodiscard]] PropertyResult check_downlink_corrupt_contract(common::Rng& rng);

}  // namespace spacefts::check
