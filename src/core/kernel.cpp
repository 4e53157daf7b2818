#include "spacefts/core/kernel.hpp"

#include <cstddef>
#include <iterator>

#include "kernel_detail.hpp"

namespace spacefts::core {
namespace {

/// One row per Kernel value, in enum order: the --kernel spelling and the
/// telemetry counters that name the kernel that ran.
struct KernelNames {
  const char* name;
  const char* ngst_counter;
  const char* otis_counter;
};

constexpr KernelNames kNames[] = {
    {"auto", "ngst.kernel.auto", "otis.kernel.auto"},
    {"swar", "ngst.kernel.swar", "otis.kernel.swar"},
    {"avx2", "ngst.kernel.avx2", "otis.kernel.avx2"},
    {"avx512", "ngst.kernel.avx512", "otis.kernel.avx512"},
};

[[nodiscard]] const KernelNames& names_of(Kernel kernel) noexcept {
  const auto i = static_cast<std::size_t>(kernel);
  return i < std::size(kNames) ? kNames[i] : kNames[0];
}

[[nodiscard]] bool host_has_avx2() noexcept {
#if defined(SPACEFTS_HAVE_AVX2) && defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

/// Every feature kernel_avx512.cpp is compiled with.  The runtime check
/// also covers the OS side: it reports AVX-512 only when XCR0 enables the
/// opmask and ZMM state.
[[nodiscard]] bool host_has_avx512() noexcept {
#if defined(SPACEFTS_HAVE_AVX512) && defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx512f") != 0 &&
                          __builtin_cpu_supports("avx512bw") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace

const char* kernel_name(Kernel kernel) noexcept {
  return names_of(kernel).name;
}

bool parse_kernel(std::string_view text, Kernel& out) noexcept {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (text == kNames[i].name) {
      out = static_cast<Kernel>(i);
      return true;
    }
  }
  return false;
}

bool kernel_available(Kernel kernel) noexcept {
  switch (kernel) {
    case Kernel::kAuto:
    case Kernel::kSwar:
      return true;
    case Kernel::kAvx2:
      return host_has_avx2();
    case Kernel::kAvx512:
      return host_has_avx512();
  }
  return false;
}

Kernel resolve_kernel(Kernel requested) noexcept {
  if (requested == Kernel::kAuto) {
    if (host_has_avx512()) return Kernel::kAvx512;
    return host_has_avx2() ? Kernel::kAvx2 : Kernel::kSwar;
  }
  if (!kernel_available(requested)) return Kernel::kSwar;
  return requested;
}

std::vector<Kernel> available_kernels() {
  std::vector<Kernel> kernels{Kernel::kSwar};
  if (host_has_avx2()) kernels.push_back(Kernel::kAvx2);
  if (host_has_avx512()) kernels.push_back(Kernel::kAvx512);
  return kernels;
}

namespace detail {

const char* ngst_kernel_counter(Kernel kernel) noexcept {
  return names_of(kernel).ngst_counter;
}

const char* otis_kernel_counter(Kernel kernel) noexcept {
  return names_of(kernel).otis_counter;
}

}  // namespace detail
}  // namespace spacefts::core
