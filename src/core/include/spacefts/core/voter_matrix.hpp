/// \file voter_matrix.hpp
/// The Υ-way voter matrix of Algorithm 1, factored out so the NGST
/// (temporal) and OTIS (spatial) algorithms share one implementation and so
/// its invariants can be tested in isolation.
///
/// For a sequence P(0..N-1) and Υ consulted neighbours, pixel i is paired
/// with i±d for d = 1..Υ/2 [R1]; each pairing distance contributes one
/// "way" holding the XOR bit-incongruences of all its pairs.  Each way is
/// thresholded at the Λ-derived rank (sensitivity.hpp): the lowest power of
/// two >= the Φ-th smallest XOR value becomes the way's V_val; entries
/// <= V_val are *pruned* — they represent natural variation and vote
/// against any correction.
///
/// The per-way V_vals also delimit the bit windows [R3]:
///   LSB-MASK = keep bits at/above the *minimum* V_val's bit  (below: window C)
///   MSB-MASK = keep bits at/above the *maximum* V_val's bit  (window A)
/// Bits between the two masks form window B.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace spacefts::core {

/// One pairing distance's XOR results plus its pruning threshold.
template <typename Word>
struct VoterWay {
  std::size_t distance = 0;       ///< pairing distance d
  std::vector<Word> xors;         ///< xors[i] = P(i) XOR P(i+d), size N-d
  Word v_val = 0;                 ///< pruning threshold (power of two)
};

/// The assembled matrix for one sequence.
template <typename Word>
struct VoterMatrix {
  std::vector<VoterWay<Word>> ways;  ///< one way per distance 1..Υ/2
  Word lsb_mask = 0;                 ///< window C delimiter
  Word msb_mask = 0;                 ///< window A delimiter
  bool prune_enabled = true;         ///< false only for ablation A1

  /// The surviving (post-pruning) voter value for the pair (i, i+d); zero
  /// when the pair was pruned as natural variation.  With pruning disabled
  /// (ablation) the raw XOR is returned; the masks still apply, since they
  /// derive from the thresholds rather than the pruning decision.
  [[nodiscard]] Word voter(std::size_t way_index, std::size_t i) const {
    const auto& w = ways[way_index];
    const Word x = w.xors[i];
    if (!prune_enabled) return x;
    return x > w.v_val ? x : Word{0};
  }
};

/// Builds the voter matrix for one sequence.
/// \param series    the N values (bit patterns for floats)
/// \param upsilon   number of consulted neighbours Υ (even, >= 2)
/// \param lambda    sensitivity Λ in (0, 100]
/// \param prune     disable to keep every voter (ablation A1); the masks are
///                  still derived from the thresholds.
/// Distances that do not fit the sequence (d >= N) are skipped, so short
/// sequences degrade gracefully.
/// \throws std::invalid_argument for odd/zero Υ or Λ outside the range.
template <typename Word>
[[nodiscard]] VoterMatrix<Word> build_voter_matrix(std::span<const Word> series,
                                                   std::size_t upsilon,
                                                   double lambda,
                                                   bool prune = true);

/// Scratch-reuse form of build_voter_matrix: rebuilds \p m in place,
/// recycling the per-way XOR buffers and \p sort_scratch across calls so the
/// steady-state stack path performs no per-pixel heap allocation.  Produces
/// a matrix bit-identical to build_voter_matrix on the same inputs.
template <typename Word>
void rebuild_voter_matrix(std::span<const Word> series, std::size_t upsilon,
                          double lambda, bool prune, VoterMatrix<Word>& m,
                          std::vector<Word>& sort_scratch);

/// Collects pixel \p i's surviving voters into \p out (cleared first, the
/// capacity is reused).  Out-of-range pairings contribute nothing; pruned
/// pairings contribute a zero, which actively votes against every bit flip.
template <typename Word>
void gather_voters(const VoterMatrix<Word>& m, std::size_t i, std::size_t n,
                   std::vector<Word>& out) {
  out.clear();
  for (std::size_t w = 0; w < m.ways.size(); ++w) {
    const std::size_t d = m.ways[w].distance;
    if (i + d < n) out.push_back(m.voter(w, i));      // forward partner i+d
    if (i >= d) out.push_back(m.voter(w, i - d));     // backward partner i-d
  }
}

/// The correction vector for pixel \p i given its surviving voters [R4]:
///   Corr_Vect = AND of all voters            (unanimous)
///   Corr_Aux  = GRT = OR of leave-one-out ANDs (>= n-1 agree)
///   Corr      = (Corr_Vect | (Corr_Aux & msb_mask)) & lsb_mask
/// Fewer than two voters yield no correction.
template <typename Word>
[[nodiscard]] Word correction_vector(std::span<const Word> voters,
                                     Word lsb_mask, Word msb_mask);

extern template VoterMatrix<std::uint16_t> build_voter_matrix<std::uint16_t>(
    std::span<const std::uint16_t>, std::size_t, double, bool);
extern template void rebuild_voter_matrix<std::uint16_t>(
    std::span<const std::uint16_t>, std::size_t, double, bool,
    VoterMatrix<std::uint16_t>&, std::vector<std::uint16_t>&);
extern template void rebuild_voter_matrix<std::uint32_t>(
    std::span<const std::uint32_t>, std::size_t, double, bool,
    VoterMatrix<std::uint32_t>&, std::vector<std::uint32_t>&);
extern template std::uint16_t correction_vector<std::uint16_t>(
    std::span<const std::uint16_t>, std::uint16_t, std::uint16_t);
extern template std::uint32_t correction_vector<std::uint32_t>(
    std::span<const std::uint32_t>, std::uint32_t, std::uint32_t);

}  // namespace spacefts::core
