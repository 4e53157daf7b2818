/// \file kernel.hpp
/// The compute-kernel dispatch seam for the voter hot paths.
///
/// The XOR/threshold/vote/mask stages of Algo_NGST and the Algo_OTIS
/// spatial voting pass are pure bitwise arithmetic over 16- and 32-bit
/// words, and Algo_OTIS's 3x3 medians are min/max networks over 32-bit
/// floats, so they admit data-parallel implementations of graded width:
///
///   kSwar    portable SIMD-within-a-register over std::uint64_t (4 x u16
///            or 2 x u32 lanes per word), no ISA requirements — the
///            floor every host runs;
///   kAvx2    256-bit AVX2 intrinsics (16 x u16 or 8 x u32 lanes);
///   kAvx512  512-bit AVX-512F/BW intrinsics (32 x u16 or 16 x u32 lanes),
///            the same engine with threshold counting in mask registers.
///            NGST tiles are padded to its 32-lane group; every other
///            kernel pads to 16.
///
/// Each kernel is one row of the voter's dispatch table (kernel.cpp, a
/// common::cpu::Row per kernel, widest first).  The vector rows run only
/// in SPACEFTS_SIMD builds for x86-64, where the CPU probe reports their
/// features.
///
/// Every kernel is specified to produce *bit-identical* output to the naive
/// serial references in src/check (check::oracle_ngst_stack,
/// check::oracle_otis_plane) — data, report counters, and window masks
/// alike, at every thread count.  The differential harness (src/check) and
/// tests/kernel_test.cpp byte-compare every available kernel against them.
///
/// Selection: configs default to kAuto, which resolves to the first row the
/// host can run (kAvx512, else kAvx2, else kSwar).  `--kernel` on the CLI
/// and the `kernel` fields of AlgoNgstConfig/AlgoOtisConfig force a
/// variant.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace spacefts::core {

/// A voter-kernel variant.  Everything outside the process (the --kernel
/// flag, serve results, telemetry counters) carries its name.
enum class Kernel : std::uint8_t {
  kAuto,    ///< resolve to the widest available kernel at runtime
  kSwar,    ///< portable 64-bit SIMD-within-a-register
  kAvx2,    ///< AVX2 intrinsics (requires CPU + build support)
  kAvx512,  ///< AVX-512F/BW intrinsics (requires CPU + build support)
};

/// Stable lowercase name ("auto", "swar", "avx2", "avx512").  The
/// returned pointer is a string literal (safe to hand to the telemetry
/// registry).
[[nodiscard]] const char* kernel_name(Kernel kernel) noexcept;

/// Parses a --kernel value; returns false on an unknown name.
[[nodiscard]] bool parse_kernel(std::string_view text, Kernel& out) noexcept;

/// True when \p kernel can execute on this host with this build: its row
/// exists and the CPU reports every feature the row needs.  kSwar and
/// kAuto (it resolves) are always available.
[[nodiscard]] bool kernel_available(Kernel kernel) noexcept;

/// Maps a requested kernel to the one that will actually run: kAuto picks
/// the widest available variant; an explicit unavailable request falls
/// back to kSwar (the widest portable kernel) so a config serialized on an
/// AVX2 or AVX-512 host still runs everywhere.  Never returns kAuto.
[[nodiscard]] Kernel resolve_kernel(Kernel requested) noexcept;

/// Every concrete kernel available on this host, widest last
/// ({kSwar[, kAvx2][, kAvx512]}).  The cross-kernel differential
/// harness and the bench sweeps iterate this.
[[nodiscard]] std::vector<Kernel> available_kernels();

}  // namespace spacefts::core
