#include "spacefts/core/voter_matrix.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "spacefts/common/bitops.hpp"
#include "spacefts/core/sensitivity.hpp"

namespace spacefts::core {

template <typename Word>
VoterMatrix<Word> build_voter_matrix(std::span<const Word> series,
                                     std::size_t upsilon, double lambda,
                                     bool prune) {
  VoterMatrix<Word> m;
  std::vector<Word> sort_scratch;
  rebuild_voter_matrix(series, upsilon, lambda, prune, m, sort_scratch);
  return m;
}

template <typename Word>
void rebuild_voter_matrix(std::span<const Word> series, std::size_t upsilon,
                          double lambda, bool prune, VoterMatrix<Word>& m,
                          std::vector<Word>& sort_scratch) {
  if (upsilon == 0 || upsilon % 2 != 0) {
    throw std::invalid_argument("build_voter_matrix: upsilon must be even > 0");
  }
  if (!is_valid_sensitivity(lambda)) {
    throw std::invalid_argument("build_voter_matrix: lambda outside [0, 100]");
  }
  const std::size_t n = series.size();
  const std::size_t way_count =
      n == 0 ? 0 : std::min(upsilon / 2, n - 1);
  m.ways.resize(way_count);
  for (std::size_t d = 1; d <= way_count; ++d) {
    VoterWay<Word>& way = m.ways[d - 1];
    way.distance = d;
    way.xors.resize(n - d);
    for (std::size_t i = 0; i + d < n; ++i) {
      way.xors[i] = static_cast<Word>(series[i] ^ series[i + d]);
    }
    // Threshold: lowest power of two >= the Φ-th smallest XOR value [R2].
    sort_scratch.assign(way.xors.begin(), way.xors.end());
    const std::size_t rank = prune_rank(sort_scratch.size(), lambda);
    std::nth_element(sort_scratch.begin(),
                     sort_scratch.begin() + static_cast<std::ptrdiff_t>(rank),
                     sort_scratch.end());
    const Word quantile = sort_scratch[rank];
    way.v_val = quantile == 0 ? Word{0} : common::ceil_pow2(quantile);
  }
  m.prune_enabled = prune;
  if (m.ways.empty()) {
    m.lsb_mask = 0;
    m.msb_mask = 0;
    return;
  }
  Word min_vval = std::numeric_limits<Word>::max();
  Word max_vval = 0;
  for (const auto& way : m.ways) {
    min_vval = std::min(min_vval, way.v_val);
    max_vval = std::max(max_vval, way.v_val);
  }
  // [R3] The window boundary sits one bit *above* the threshold bit: every
  // natural XOR in the top surviving octave [V_val, 2·V_val) necessarily has
  // the threshold bit itself set, so leaving that bit votable would make
  // coincidental unanimity at it the dominant false-alarm mode.  A V_val of
  // 0 delimits at bit 0 (no natural variation at all -> every bit eligible).
  const auto mask_from = [](Word v) -> Word {
    if (v == 0) return static_cast<Word>(~Word{0});
    constexpr Word kHighBit = static_cast<Word>(Word{1} << (sizeof(Word) * 8 - 1));
    if (v >= kHighBit) return kHighBit;  // only the top bit stays votable
    const Word doubled = static_cast<Word>(v << 1);
    return static_cast<Word>(~static_cast<Word>(doubled - 1));
  };
  m.lsb_mask = mask_from(min_vval);
  m.msb_mask = mask_from(max_vval);
}

template <typename Word>
Word correction_vector(std::span<const Word> voters, Word lsb_mask,
                       Word msb_mask) {
  if (voters.size() < 2) return Word{0};
  Word corr_vect = static_cast<Word>(~Word{0});
  for (Word v : voters) corr_vect = static_cast<Word>(corr_vect & v);
  // The (Υ-1)-of-Υ window-A vote needs at least three voters: with two, GRT
  // degenerates to the *union*, letting a single corrupted neighbour flip a
  // high-weight bit of a clean end pixel.
  const Word corr_aux =
      voters.size() >= 3 ? common::grt(voters) : Word{0};
  return static_cast<Word>(
      (corr_vect | static_cast<Word>(corr_aux & msb_mask)) & lsb_mask);
}

template VoterMatrix<std::uint16_t> build_voter_matrix<std::uint16_t>(
    std::span<const std::uint16_t>, std::size_t, double, bool);
template void rebuild_voter_matrix<std::uint16_t>(
    std::span<const std::uint16_t>, std::size_t, double, bool,
    VoterMatrix<std::uint16_t>&, std::vector<std::uint16_t>&);
template void rebuild_voter_matrix<std::uint32_t>(
    std::span<const std::uint32_t>, std::size_t, double, bool,
    VoterMatrix<std::uint32_t>&, std::vector<std::uint32_t>&);
template std::uint16_t correction_vector<std::uint16_t>(
    std::span<const std::uint16_t>, std::uint16_t, std::uint16_t);
template std::uint32_t correction_vector<std::uint32_t>(
    std::span<const std::uint32_t>, std::uint32_t, std::uint32_t);

}  // namespace spacefts::core
