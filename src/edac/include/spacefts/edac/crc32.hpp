/// \file crc32.hpp
/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) message framing.
///
/// The distributed pipeline of §2.1 moves every fragment over a
/// Myrinet-class network; the paper's fault model covers flips "at the
/// source, in transit, or in memory" but the seed system only injected the
/// memory leg.  Framing each scatter/gather message with a CRC-32 closes
/// the transit leg: any corruption the link fault model injects is detected
/// at the receiver, which turns silent data corruption into an explicit
/// NACK the master's retry machinery can act on.  CRC-32 detects all
/// single- and double-bit errors, all burst errors up to 32 bits, and
/// random multi-bit corruption with failure probability 2^-32 — far below
/// anything a bounded campaign can observe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spacefts/common/cpu.hpp"

namespace spacefts::edac {

/// CRC-32 of \p bytes, optionally continuing from a previous partial
/// checksum (pass the previous return value as \p crc to stream).
/// The first row of detail::crc32_rows() the host can run computes it.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t crc = 0) noexcept;

namespace detail {

/// One implementation of crc32(), with its signature.
using Crc32Fn = std::uint32_t (*)(std::span<const std::uint8_t>,
                                  std::uint32_t) noexcept;

/// crc32()'s dispatch table, widest first: a carry-less-multiply fold of
/// inputs of 64 bytes or more (x86 SIMD builds; PCLMULQDQ and SSE4.1),
/// then the portable slice-by-8 table, which needs nothing.  Every row
/// returns the same value.
[[nodiscard]] std::span<const common::cpu::Row<Crc32Fn>> crc32_rows() noexcept;

}  // namespace detail

/// Appends the CRC-32 of \p payload to it, little-endian, in place.
/// The result is a self-checking frame for frame_verify().
void frame_append_crc(std::vector<std::uint8_t>& payload);

/// True when \p frame (payload + trailing little-endian CRC-32) is intact.
/// Frames shorter than the 4-byte trailer are never valid.
[[nodiscard]] bool frame_verify(std::span<const std::uint8_t> frame) noexcept;

/// Payload view of a verified frame (everything before the CRC trailer).
/// \pre frame_verify(frame) — callers must check first.
[[nodiscard]] std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> frame) noexcept;

}  // namespace spacefts::edac
