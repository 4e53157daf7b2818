/// \file cpu.hpp
/// The one CPU-feature probe, and the row type of the dispatch table each
/// accelerated entry point picks its implementation from.
///
/// An entry point (the voter kernels, the CRC-32 fold, the Rice encoder,
/// the Rice decoder, the Hamming parity of a run of words) keeps one
/// constexpr array of Row{name, needs, impl}, ordered widest first and
/// ending in a portable row that needs nothing.
/// pick() returns the first row whose features the host has; tests run
/// every row the host can execute through the same array (DESIGN.md §6.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace spacefts::common::cpu {

/// One bit per ISA a row can require.  A bit stands for every feature the
/// code behind it is compiled with.
enum Feature : std::uint32_t {
  kAvx2 = 1u << 0,
  kAvx512 = 1u << 1,  ///< AVX-512F and AVX-512BW
  kBmi2 = 1u << 2,
  kLzcnt = 1u << 3,
  kPclmul = 1u << 4,  ///< PCLMULQDQ and SSE4.1
  kGfni = 1u << 5,    ///< GFNI and AVX-512 VBMI
};
using Features = std::uint32_t;

/// This host's features, probed once through CPUID, which also reports
/// whether the OS enables the vector state.  0 in a build that compiles no
/// x86 ISA code (SPACEFTS_SIMD=OFF or another architecture), so only
/// portable rows are ever picked there.
[[nodiscard]] Features host() noexcept;

/// The names of \p features in bit order, '+'-joined
/// ("avx2+avx512+bmi2+lzcnt+pclmul+gfni"); empty for none.
[[nodiscard]] std::string names(Features features);

/// One implementation of an accelerated entry point.
template <typename Impl>
struct Row {
  const char* name;  ///< stable lowercase name
  Features needs;    ///< every feature impl runs; 0 for a portable row
  Impl impl;
};

/// True when a host with \p have can run \p row.
template <typename Impl>
[[nodiscard]] bool runs(const Row<Impl>& row, Features have = host()) noexcept {
  return (row.needs & ~have) == 0;
}

/// The first row of \p rows this host can run.
/// \pre the last row needs nothing.
template <typename Impl>
[[nodiscard]] const Row<Impl>& pick(std::span<const Row<Impl>> rows) noexcept {
  for (const Row<Impl>& row : rows.first(rows.size() - 1)) {
    if (runs(row)) return row;
  }
  return rows.back();
}

}  // namespace spacefts::common::cpu
