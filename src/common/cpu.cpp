#include "spacefts/common/cpu.hpp"

#include <iterator>

namespace spacefts::common::cpu {
namespace {

constexpr const char* kNames[] = {"avx2", "avx512", "bmi2", "lzcnt", "pclmul",
                                   "gfni"};

/// Each bit needs every feature its code is compiled with.
[[nodiscard]] Features probe() noexcept {
#if defined(SPACEFTS_X86_SIMD)
  const auto bit = [](bool has, Feature f) { return has ? f : 0u; };
  return bit(__builtin_cpu_supports("avx2"), kAvx2) |
         bit(__builtin_cpu_supports("avx512f") &&
                 __builtin_cpu_supports("avx512bw"),
             kAvx512) |
         bit(__builtin_cpu_supports("bmi2"), kBmi2) |
         bit(__builtin_cpu_supports("lzcnt"), kLzcnt) |
         bit(__builtin_cpu_supports("pclmul") &&
                 __builtin_cpu_supports("sse4.1"),
             kPclmul) |
         bit(__builtin_cpu_supports("gfni") &&
                 __builtin_cpu_supports("avx512vbmi"),
             kGfni);
#else
  return 0;
#endif
}

}  // namespace

Features host() noexcept {
  static const Features features = probe();
  return features;
}

std::string names(Features features) {
  std::string out;
  for (std::size_t bit = 0; bit < std::size(kNames); ++bit) {
    if ((features >> bit & 1u) == 0) continue;
    if (!out.empty()) out += '+';
    out += kNames[bit];
  }
  return out;
}

}  // namespace spacefts::common::cpu
