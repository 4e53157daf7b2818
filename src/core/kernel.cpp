#include "spacefts/core/kernel.hpp"

#include <iterator>

#include "kernel_detail.hpp"

namespace spacefts::core {
namespace {

namespace cpu = common::cpu;
using detail::Voter;

/// A vector kernel's entry points where the build compiled its TU.
/// Elsewhere they are null and the row keeps only its name (so `--kernel
/// avx2` still parses, and falls back to swar): the probe reports no
/// feature there, so no host runs the row.
#if defined(SPACEFTS_X86_SIMD)
#define SPACEFTS_ISA_ENTRIES(entries) &detail::entries
#else
#define SPACEFTS_ISA_ENTRIES(entries) nullptr
#endif

constexpr cpu::Row<Voter> kVoters[] = {
    {"avx512", cpu::kAvx512,
     {Kernel::kAvx512, "ngst.kernel.avx512", "otis.kernel.avx512",
      SPACEFTS_ISA_ENTRIES(kAvx512Entries)}},
    {"avx2", cpu::kAvx2,
     {Kernel::kAvx2, "ngst.kernel.avx2", "otis.kernel.avx2",
      SPACEFTS_ISA_ENTRIES(kAvx2Entries)}},
    {"swar", 0,
     {Kernel::kSwar, "ngst.kernel.swar", "otis.kernel.swar",
      &detail::kSwarEntries}},
};
#undef SPACEFTS_ISA_ENTRIES

/// The row of a concrete kernel; nullptr for kAuto.
[[nodiscard]] const cpu::Row<Voter>* row_of(Kernel kernel) noexcept {
  for (const cpu::Row<Voter>& row : kVoters) {
    if (row.impl.kernel == kernel) return &row;
  }
  return nullptr;
}

}  // namespace

const char* kernel_name(Kernel kernel) noexcept {
  const cpu::Row<Voter>* row = row_of(kernel);
  return row != nullptr ? row->name : "auto";
}

bool parse_kernel(std::string_view text, Kernel& out) noexcept {
  if (text == "auto") {
    out = Kernel::kAuto;
    return true;
  }
  for (const cpu::Row<Voter>& row : kVoters) {
    if (text == row.name) {
      out = row.impl.kernel;
      return true;
    }
  }
  return false;
}

bool kernel_available(Kernel kernel) noexcept {
  return kernel == Kernel::kAuto || resolve_kernel(kernel) == kernel;
}

Kernel resolve_kernel(Kernel requested) noexcept {
  return detail::voter(requested).kernel;
}

std::vector<Kernel> available_kernels() {
  std::vector<Kernel> kernels;
  for (auto row = std::rbegin(kVoters); row != std::rend(kVoters); ++row) {
    if (cpu::runs(*row)) kernels.push_back(row->impl.kernel);
  }
  return kernels;
}

namespace detail {

std::span<const cpu::Row<Voter>> voter_rows() noexcept { return kVoters; }

const Voter& voter(Kernel requested) noexcept {
  if (requested == Kernel::kAuto) return cpu::pick(voter_rows()).impl;
  const cpu::Row<Voter>* row = row_of(requested);
  return row != nullptr && cpu::runs(*row) ? row->impl
                                           : voter_rows().back().impl;
}

}  // namespace detail
}  // namespace spacefts::core
