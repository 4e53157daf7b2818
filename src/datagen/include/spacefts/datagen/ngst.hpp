/// \file ngst.hpp
/// Synthetic NGST datasets (the NGST Mission Simulator substitute).
///
/// The paper's numerical experiments use its own statistical model, Eq. (1):
///     Π(i+1) = Π(i) + Θ_i,   Θ_i ~ N(0, σ),
/// i.e. each detector coordinate's N temporal readouts form a Gaussian
/// random walk with σ "representative of the simulated datasets from the
/// NGST Mission Simulator".  §6 pins the reference start value Π(1) = 27000
/// and sweeps σ from 0 ("constant") to 8000 ("extremely turbulent",
/// overflows truncated to the maximum value).  The NMS-representative σ is
/// not printed in the paper; the improvement factors it reports (Ψ down
/// 50–1000x) are only reachable when the frame-to-frame variation is at
/// detector read-noise scale, a few tens of counts against Π(1) = 27000 —
/// hence the default σ = 30.  The larger σ values (250, 8000) appear in the
/// paper only as the quasi-NGST stress cases of Fig. 6, and are exercised
/// by that experiment's bench.
///
/// For whole-frame experiments, a base scene (background level + point
/// sources) seeds Π(1) per coordinate and each coordinate then walks
/// independently.
#pragma once

#include <cstdint>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::datagen {

/// Paper defaults (§2.2.1, §6).
inline constexpr std::size_t kDefaultFrames = 64;    ///< N readouts/baseline
inline constexpr double kDefaultStart = 27000.0;     ///< Π(1)
inline constexpr double kDefaultSigma = 30.0;        ///< NMS-representative σ
inline constexpr std::uint16_t kPixelMax = 0xFFFF;   ///< 16-bit saturation

/// Parameters of the synthetic star-field base scene used by the
/// whole-frame pipeline experiments.  The detector background sits at
/// 1200 counts with a spatial σ of 40 counts; star peaks (over background)
/// span 2000–45000 counts and PSF widths 0.8–2.5 pixels.
struct SceneParams {
  std::size_t width = 128;
  std::size_t height = 128;
  std::size_t stars = 24;          ///< number of point sources
};

/// Generator for NGST-like temporal datasets.  Deterministic per seed.
class NgstSimulator {
 public:
  explicit NgstSimulator(std::uint64_t seed) : rng_(seed) {}

  /// One coordinate's N pristine temporal variants per Eq. (1), clamped to
  /// [0, 65535] (§6: "overflows are truncated to the maximum value").
  /// \throws std::invalid_argument if frames == 0.
  [[nodiscard]] std::vector<std::uint16_t> sequence(
      std::size_t frames = kDefaultFrames, double start = kDefaultStart,
      double sigma = kDefaultSigma);

  /// A star-field base frame: background + Gaussian point-spread sources.
  [[nodiscard]] common::Image<std::uint16_t> base_scene(
      const SceneParams& params = {});

  /// Full temporal stack: every coordinate starts at the base scene's value
  /// and performs an independent Eq.-(1) walk.
  /// \throws std::invalid_argument if frames == 0.
  [[nodiscard]] common::TemporalStack<std::uint16_t> stack(
      std::size_t frames = kDefaultFrames, const SceneParams& params = {},
      double sigma = kDefaultSigma);

  /// Access to the underlying stream, e.g. to split off fault-injection
  /// streams that stay decoupled from data generation.
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }

 private:
  common::Rng rng_;
};

/// Clamps a double to the representable 16-bit pixel range.
[[nodiscard]] std::uint16_t clamp_pixel(double value) noexcept;

}  // namespace spacefts::datagen
