/// \file corpus.hpp
/// The failure-corpus interchange format of the differential harness.
///
/// A corpus is JSONL: one fully specified check case per line — the family
/// name plus every generation parameter (seed, geometry, Λ, Υ, Γ).  The
/// data itself is never stored; each case regenerates its inputs
/// deterministically from the seed, so a line found by one fuzz run replays
/// bit-identically forever (and across thread counts).  Fuzz-found failures
/// are shrunk by halving the geometry while the failure persists, then
/// appended to the corpus; `workloads/check_corpus.jsonl` commits the
/// regression set CI replays.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spacefts::check {

/// Check-case families (one fuzz driver each; see differential.hpp).
enum class CaseFamily : std::uint8_t {
  kNgstDiff = 0,   ///< Algo_NGST stack: core vs oracle at every thread count
  kOtisDiff,       ///< Algo_OTIS cube: core vs oracle at every thread count
  kRiceRoundtrip,  ///< rice codec round-trip + corrupt-stream contract
  kCrcFrame,       ///< CRC-32 frame/deframe round-trip + damage detection
  kHamming,        ///< Hamming(72,64) 1-flip-corrects / 2-flip-detects
  kProperties,     ///< Λ-monotonicity, window-C invariance, idempotence
  kServeWorkload,  ///< workload JSONL round-trip + serve determinism
  kDownlink,       ///< compressed-HDU/frame round-trip + corrupt contract
};

inline constexpr std::size_t kCaseFamilyCount = 8;

/// Stable lowercase name used in the corpus JSONL ("ngst_diff", ...).
[[nodiscard]] const char* to_string(CaseFamily family) noexcept;

/// Inverse of to_string(CaseFamily); false for an unknown name.
[[nodiscard]] bool from_string(std::string_view name,
                               CaseFamily& out) noexcept;

/// One fully specified check case.  Every field is meaningful to at least
/// one family; unused fields are carried verbatim so a spec round-trips.
struct CaseSpec {
  CaseFamily family = CaseFamily::kNgstDiff;
  std::uint64_t seed = 1;
  std::size_t width = 16;    ///< stack/plane width (ngst/otis)
  std::size_t height = 16;   ///< stack/plane height (ngst/otis)
  std::size_t frames = 32;   ///< temporal readouts (ngst) / bands (otis)
  double lambda = 80.0;      ///< sensitivity Λ
  std::size_t upsilon = 4;   ///< consulted neighbours Υ
  double gamma = 0.002;      ///< correlated fault model Γ_ini
  std::size_t scene = 0;     ///< OTIS morphology index (blob/stripe/spots)

  friend bool operator==(const CaseSpec&, const CaseSpec&) = default;
};

/// One JSON line, stable field order, no trailing newline.
[[nodiscard]] std::string to_json(const CaseSpec& spec);

/// Serialises a corpus: one line per case, each newline-terminated.
[[nodiscard]] std::string corpus_to_jsonl(const std::vector<CaseSpec>& specs);

/// Parses corpus_to_jsonl() output (blank lines ignored).
/// \throws std::runtime_error naming the line and key of the first
/// missing or malformed field.
[[nodiscard]] std::vector<CaseSpec> parse_corpus_jsonl(std::string_view text);

/// Shrinks a failing case by halving width, height, and frames (in turn,
/// repeatedly) as long as \p still_fails accepts the smaller spec; returns
/// the smallest failing spec found.  \p still_fails must be a pure
/// predicate of the spec (true = the failure reproduces).
template <typename Predicate>
[[nodiscard]] CaseSpec shrink_case(CaseSpec spec, Predicate&& still_fails) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t* dim : {&spec.width, &spec.height, &spec.frames}) {
      if (*dim < 2) continue;
      const std::size_t saved = *dim;
      *dim = saved / 2;
      if (still_fails(static_cast<const CaseSpec&>(spec))) {
        progressed = true;
      } else {
        *dim = saved;
      }
    }
  }
  return spec;
}

}  // namespace spacefts::check
