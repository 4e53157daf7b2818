/// \file algo_otis.hpp
/// Algo_OTIS: the preprocessing algorithm fine-tuned for the OTIS
/// spectrometer (§7).
///
/// OTIS has no temporal redundancy — each capture is a single (x, y, band)
/// radiance cube of 32-bit floats — so the locality model is *spatial*
/// (§7.1: spatial correlation "yields better expediency … than the
/// [spectral]").  On top of the voter-matrix machinery shared with
/// Algo_NGST, §7.2's two hypotheses are applied to preempt false alarms:
///
///  (1) valid exceptions occur as natural *trends* — an outlier whose
///      neighbours deviate the same way (a geyser, an eruption front) is
///      protected from correction; an isolated single-pixel deviation is a
///      fault candidate;
///  (2) any theoretically out-of-bounds value is a fault — each band's
///      radiance must lie within the grey-body envelope of the global
///      physical temperature limits (otis::PhysicalBounds::global()).
///
/// Fault candidates are repaired at bit level by a 4-neighbour spatial vote
/// over the binary32 patterns (retaining the information in the pixel's
/// uncorrupted bits); candidates whose repaired value still violates the
/// bounds or the local coherence fall back to the neighbourhood median.
#pragma once

#include <cstddef>
#include <span>

#include "spacefts/common/image.hpp"
#include "spacefts/core/kernel.hpp"

namespace spacefts::core {

/// Outlier threshold = factor(Λ) · σ̂ of the local residuals (σ̂ from the
/// contamination-robust 30th percentile of |residual|), where
/// factor(Λ) = kOutlierBaseFactor · (1 + (100 − Λ)/50).
inline constexpr double kOutlierBaseFactor = 3.0;
/// An outlier with at least this many allies — neighbours deviating in the
/// same direction by a comparable amount — is a natural trend and is
/// protected.  3 is the count a plateau-shaped anomaly's corner pixel sees,
/// the weakest genuinely natural configuration.
inline constexpr std::size_t kTrendNeighbors = 3;

/// Tuning parameters for Algo_OTIS.
struct AlgoOtisConfig {
  /// Spatial neighbours consulted per pixel: 2 = E/W, 4 = E/W/N/S,
  /// 8 adds the distance-2 cross.  Must be even and > 0.
  std::size_t upsilon = 4;
  /// Sensitivity Λ in [0, 100]; 0 = sanity-only (no data changes).
  double lambda = 80.0;
  /// Ablation switches.
  bool enable_bounds = true;
  bool enable_trend_test = true;
  /// Worker lanes for the row-parallel plane passes; 1 = serial, 0 = one
  /// lane per hardware thread.  Output is bit-identical for every value:
  /// the voting phase reads from an immutable snapshot of the plane
  /// (Jacobi-style update), so no pixel's repair depends on sweep order.
  /// The differential harness (src/check) enforces this against a naive
  /// serial oracle.
  std::size_t threads = 1;
  /// Compute kernel for the plane passes — the classification's 3x3
  /// medians and the vote (kernel.hpp): kAuto resolves to the widest
  /// kernel this host supports.  Output is bit-identical to
  /// check::oracle_otis_plane for every choice.  The spectral (per-pixel
  /// wavelength-axis) pass does not dispatch.
  Kernel kernel = Kernel::kAuto;
};

/// Diagnostics from one cube pass.
struct AlgoOtisReport {
  std::size_t pixels_examined = 0;
  std::size_t out_of_bounds = 0;       ///< hypothesis-(2) detections
  std::size_t outliers = 0;            ///< residual-test detections
  std::size_t trend_protected = 0;     ///< natural exceptions left alone
  std::size_t bit_corrected = 0;       ///< repaired by the spatial bit vote
  std::size_t median_replaced = 0;     ///< fell back to the local median
};

/// The OTIS preprocessing algorithm.  Stateless and const.
class AlgoOtis {
 public:
  /// \throws std::invalid_argument for odd/zero Υ or Λ outside [0, 100].
  explicit AlgoOtis(AlgoOtisConfig config = {});

  [[nodiscard]] const AlgoOtisConfig& config() const noexcept { return config_; }

  /// Preprocesses one band plane in place.  \p wavelength_um selects the
  /// bounds envelope for hypothesis (2).
  [[nodiscard]] AlgoOtisReport preprocess_plane(common::Image<float>& plane,
                                                double wavelength_um) const;

  /// Preprocesses a whole radiance cube, band by band (the spatial
  /// locality model — §7.1 found it superior, and it is the default).
  /// \throws std::invalid_argument if wavelengths_um.size() != cube.depth().
  [[nodiscard]] AlgoOtisReport preprocess(
      common::Cube<float>& cube, std::span<const double> wavelengths_um) const;

  /// The *spectral* locality model of §7.1: each ground pixel's per-band
  /// series is voted along the wavelength axis instead of across space.
  /// Implemented to reproduce the paper's comparison — "spectral
  /// correlation falls drastically on either side of a band of
  /// wavelengths", so this variant sets wider dynamic thresholds and
  /// corrects less than the spatial model (see bench/ablation_locality).
  /// Bounds screening (hypothesis 2) still applies per band; out-of-bounds
  /// pixels that the bit vote cannot rehabilitate fall back to the
  /// interpolation of their band neighbours.
  /// \throws std::invalid_argument if wavelengths_um.size() != cube.depth().
  [[nodiscard]] AlgoOtisReport preprocess_spectral(
      common::Cube<float>& cube, std::span<const double> wavelengths_um) const;

 private:
  AlgoOtisConfig config_;
};

}  // namespace spacefts::core
