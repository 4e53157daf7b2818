#include "spacefts/fault/models.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spacefts::fault {

// ---------------------------------------------------------------- uncorrelated

UncorrelatedFaultModel::UncorrelatedFaultModel(double gamma0) : gamma0_(gamma0) {
  if (gamma0 < 0.0 || gamma0 > 1.0) {
    throw std::invalid_argument("UncorrelatedFaultModel: gamma0 outside [0, 1]");
  }
}

template <std::unsigned_integral T>
std::vector<T> UncorrelatedFaultModel::mask(std::size_t words,
                                            common::Rng& rng) const {
  std::vector<T> out(words, T{0});
  if (gamma0_ <= 0.0) return out;
  for (auto& word : out) {
    T m = 0;
    for (std::size_t b = 0; b < kBitsPerWord<T>; ++b) {
      if (rng.bernoulli(gamma0_)) m = static_cast<T>(m | (T{1} << b));
    }
    word = m;
  }
  return out;
}

std::vector<std::uint16_t> UncorrelatedFaultModel::mask16(
    std::size_t words, common::Rng& rng) const {
  return mask<std::uint16_t>(words, rng);
}

std::vector<std::uint32_t> UncorrelatedFaultModel::mask32(
    std::size_t words, common::Rng& rng) const {
  return mask<std::uint32_t>(words, rng);
}

// ------------------------------------------------------------------ correlated

CorrelatedFaultModel::CorrelatedFaultModel(double gamma_ini)
    : gamma_ini_(gamma_ini) {
  if (gamma_ini < 0.0 || gamma_ini >= 1.0) {
    throw std::invalid_argument(
        "CorrelatedFaultModel: gamma_ini outside [0, 1)");
  }
}

double CorrelatedFaultModel::flip_probability(std::size_t run) const noexcept {
  // Eq. (2): a fresh run (run == 0) starts with the base probability; a bit
  // preceded by R flipped bits flips with the partial geometric sum
  // Γ_ini + Γ_ini² + … + Γ_ini^R, which converges to Γ_ini/(1-Γ_ini).
  if (run == 0) return gamma_ini_;
  // Closed form of the partial sum avoids an O(R) loop on long runs.
  const double g = gamma_ini_;
  if (g == 0.0) return 0.0;
  const double partial =
      g * (1.0 - std::pow(g, static_cast<double>(run))) / (1.0 - g);
  return std::min(partial, 1.0);
}

template <std::unsigned_integral T>
std::vector<T> CorrelatedFaultModel::mask(std::size_t words_per_row,
                                          std::size_t rows,
                                          common::Rng& rng) const {
  if (words_per_row == 0 || rows == 0) {
    throw std::invalid_argument("CorrelatedFaultModel: empty grid");
  }
  const std::size_t bit_cols = words_per_row * kBitsPerWord<T>;
  std::vector<T> out(words_per_row * rows, T{0});
  if (gamma_ini_ <= 0.0) return out;

  // vertical_run[c] = length of the run of flipped bits directly above the
  // current row in bit column c; horizontal_run tracks the run to the left
  // within the current row.
  std::vector<std::size_t> vertical_run(bit_cols, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t horizontal_run = 0;
    for (std::size_t c = 0; c < bit_cols; ++c) {
      // §2.2.3: the probability is computed in both directions and the
      // higher of the two — i.e. the longer run — is taken.
      const std::size_t run = std::max(horizontal_run, vertical_run[c]);
      const bool flipped = rng.bernoulli(flip_probability(run));
      if (flipped) {
        const std::size_t word = r * words_per_row + c / kBitsPerWord<T>;
        const std::size_t bit = c % kBitsPerWord<T>;
        out[word] = static_cast<T>(out[word] | (T{1} << bit));
        ++horizontal_run;
        ++vertical_run[c];
      } else {
        horizontal_run = 0;
        vertical_run[c] = 0;
      }
    }
  }
  return out;
}

std::vector<std::uint16_t> CorrelatedFaultModel::mask16(
    std::size_t words_per_row, std::size_t rows, common::Rng& rng) const {
  return mask<std::uint16_t>(words_per_row, rows, rng);
}

std::vector<std::uint32_t> CorrelatedFaultModel::mask32(
    std::size_t words_per_row, std::size_t rows, common::Rng& rng) const {
  return mask<std::uint32_t>(words_per_row, rows, rng);
}

// ----------------------------------------------------------------- block model

BlockFaultModel::BlockFaultModel(std::size_t events, std::size_t width_bits,
                                 std::size_t height_rows, double density)
    : events_(events),
      width_bits_(width_bits),
      height_rows_(height_rows),
      density_(density) {
  if (width_bits_ == 0 || height_rows_ == 0) {
    throw std::invalid_argument("BlockFaultModel: zero block extent");
  }
  if (density_ < 0.0 || density_ > 1.0) {
    throw std::invalid_argument("BlockFaultModel: density outside [0, 1]");
  }
}

std::vector<std::uint16_t> BlockFaultModel::mask16(std::size_t words_per_row,
                                                   std::size_t rows,
                                                   common::Rng& rng) const {
  if (words_per_row == 0 || rows == 0) {
    throw std::invalid_argument("BlockFaultModel: empty grid");
  }
  const std::size_t bit_cols = words_per_row * 16;
  std::vector<std::uint16_t> out(words_per_row * rows, 0);
  for (std::size_t e = 0; e < events_; ++e) {
    const std::size_t c0 = rng.below(bit_cols);
    const std::size_t r0 = rng.below(rows);
    for (std::size_t dr = 0; dr < height_rows_; ++dr) {
      const std::size_t r = r0 + dr;
      if (r >= rows) break;
      for (std::size_t dc = 0; dc < width_bits_; ++dc) {
        const std::size_t c = c0 + dc;
        if (c >= bit_cols) break;
        if (!rng.bernoulli(density_)) continue;
        const std::size_t word = r * words_per_row + c / 16;
        out[word] = static_cast<std::uint16_t>(out[word] | (1u << (c % 16)));
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------- injection

template <std::unsigned_integral T>
void apply_mask(std::span<T> data, std::span<const T> mask) {
  if (data.size() != mask.size()) {
    throw std::invalid_argument("apply_mask: length mismatch");
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<T>(data[i] ^ mask[i]);
  }
}

template void apply_mask<std::uint16_t>(std::span<std::uint16_t>,
                                        std::span<const std::uint16_t>);

void apply_mask_float(std::span<float> data,
                      std::span<const std::uint32_t> mask) {
  if (data.size() != mask.size()) {
    throw std::invalid_argument("apply_mask_float: length mismatch");
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = common::bits_to_float(common::float_to_bits(data[i]) ^ mask[i]);
  }
}

template <std::unsigned_integral T>
std::size_t count_faults(std::span<const T> mask) noexcept {
  std::size_t bits = 0;
  for (T m : mask) bits += static_cast<std::size_t>(std::popcount(m));
  return bits;
}

template std::size_t count_faults<std::uint16_t>(
    std::span<const std::uint16_t>) noexcept;
template std::size_t count_faults<std::uint32_t>(
    std::span<const std::uint32_t>) noexcept;

// ----------------------------------------------------------------- permutation

std::vector<std::size_t> interleave_permutation(std::size_t n,
                                                std::size_t ways) {
  if (ways == 0) throw std::invalid_argument("interleave_permutation: ways == 0");
  std::vector<std::size_t> perm(n);
  // Logical index i goes to physical slot (i % ways)-th bank, offset i/ways.
  // Banks are laid out back to back; trailing partial banks are packed.
  const std::size_t full = n / ways;
  const std::size_t rem = n % ways;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bank = i % ways;
    const std::size_t offset = i / ways;
    // Banks [0, rem) hold full+1 entries, the rest hold full entries.
    const std::size_t base = bank < rem
                                 ? bank * (full + 1)
                                 : rem * (full + 1) + (bank - rem) * full;
    perm[i] = base + offset;
  }
  return perm;
}

namespace {
void validate_perm(std::size_t n, std::span<const std::size_t> perm) {
  if (perm.size() != n) {
    throw std::invalid_argument("permute: length mismatch");
  }
  std::vector<bool> seen(n, false);
  for (std::size_t p : perm) {
    if (p >= n || seen[p]) {
      throw std::invalid_argument("permute: not a permutation");
    }
    seen[p] = true;
  }
}
}  // namespace

template <typename T>
std::vector<T> permute(std::span<const T> data,
                       std::span<const std::size_t> perm) {
  validate_perm(data.size(), perm);
  std::vector<T> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[perm[i]] = data[i];
  return out;
}

template <typename T>
std::vector<T> unpermute(std::span<const T> data,
                         std::span<const std::size_t> perm) {
  validate_perm(data.size(), perm);
  std::vector<T> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = data[perm[i]];
  return out;
}

template std::vector<std::uint16_t> permute<std::uint16_t>(
    std::span<const std::uint16_t>, std::span<const std::size_t>);
template std::vector<std::uint16_t> unpermute<std::uint16_t>(
    std::span<const std::uint16_t>, std::span<const std::size_t>);

}  // namespace spacefts::fault
