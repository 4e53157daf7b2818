/// \file crc32_pclmul.hpp
/// Internal interface between crc32.cpp and the carry-less-multiply CRC-32
/// kernel (crc32_pclmul.cpp).  Not installed; the public surface is
/// spacefts/edac/crc32.hpp.
///
/// The kernel exists only when the build compiled its TU
/// (SPACEFTS_HAVE_PCLMUL); crc32() reaches it only after CPUID confirms
/// PCLMULQDQ and SSE4.1.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spacefts::edac::detail {

/// Inputs shorter than this stay on the table path: the kernel's first
/// step loads four 16-byte lanes.
inline constexpr std::size_t kFoldMinBytes = 64;

#if defined(SPACEFTS_HAVE_PCLMUL)
/// Advances the raw (uninverted) CRC-32 register \p state over the \p n
/// bytes at \p p and returns the new register.
/// \pre n >= kFoldMinBytes and n % 16 == 0.
[[nodiscard]] std::uint32_t crc32_fold_pclmul(const std::uint8_t* p,
                                              std::size_t n,
                                              std::uint32_t state) noexcept;
#endif

}  // namespace spacefts::edac::detail
