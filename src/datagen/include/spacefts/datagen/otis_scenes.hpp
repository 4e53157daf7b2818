/// \file otis_scenes.hpp
/// Synthetic OTIS scenes reproducing the three dataset morphologies the
/// paper selected "due to their physical characteristics that exemplify
/// nearly the entire gamut of variations likely to be encountered on site"
/// (§7.3):
///
/// * Blob   — broad areas of unchanging temperature with a few dark spots
///            scattered in the plot (the representative majority case);
/// * Stripe — a prominent vertical region of turbulent data through the
///            centre, calm surroundings;
/// * Spots  — a plethora of conspicuous spots, large and small, spread over
///            the entire region.
///
/// A scene is a ground-truth temperature field + emissivity field, forward
/// modelled through the Planck grey-body law into the (x, y, band) radiance
/// cube OTIS actually ingests (32-bit floats, §7.1).
#pragma once

#include <cstdint>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/common/random.hpp"

namespace spacefts::datagen {

/// The three paper morphologies.
enum class OtisSceneKind { kBlob, kStripe, kSpots };

/// Printable name ("Blob" / "Stripe" / "Spots").
[[nodiscard]] const char* to_string(OtisSceneKind kind) noexcept;

/// A fully specified synthetic OTIS capture.
struct OtisScene {
  OtisSceneKind kind = OtisSceneKind::kBlob;
  common::Image<double> temperature_k;     ///< ground-truth surface T
  common::Image<double> emissivity;       ///< ground-truth broadband ε
  std::vector<double> wavelengths_um;     ///< band centres
  common::Cube<float> radiance;           ///< pristine at-sensor radiance
};

/// Generation knobs; defaults match the experiment harnesses.  Every scene
/// perturbs a 290 K surface.
struct OtisSceneParams {
  std::size_t width = 64;
  std::size_t height = 64;
  std::size_t bands = 8;            ///< 8–12 µm grid (otis::standard_band_grid)
};

/// Deterministic generator for the three morphologies.
class OtisSceneGenerator {
 public:
  explicit OtisSceneGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Builds one scene.  \throws std::invalid_argument for a zero dimension
  /// or bands == 0.
  [[nodiscard]] OtisScene generate(OtisSceneKind kind,
                                   const OtisSceneParams& params = {});

 private:
  common::Rng rng_;
};

}  // namespace spacefts::datagen
