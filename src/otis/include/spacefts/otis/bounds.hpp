/// \file bounds.hpp
/// Absolute physical bounds for OTIS data (paper §7.2, hypothesis (2)):
/// "There are theoretical absolute limits for the naturally occurring data
/// sensed by OTIS, set by the laws of thermo-physics … In addition to the
/// global absolute theoretical limits, there can also be logical cut-off
/// bounds, depending on the localized geographical characteristics of the
/// target area."  Only the global limits are flown here
/// (PhysicalBounds::global()).
///
/// A PhysicalBounds instance converts a temperature interval (plus an
/// emissivity floor) into per-wavelength radiance intervals; any pixel
/// outside its band's interval can be declared faulty outright.
#pragma once

namespace spacefts::otis {

/// Inclusive radiance interval for one band.
struct RadianceInterval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] bool contains(double radiance) const noexcept {
    return radiance >= lo && radiance <= hi;
  }
};

/// Temperature/emissivity envelope of a target area.
class PhysicalBounds {
 public:
  /// \param min_temperature_k / max_temperature_k surface-temperature
  ///   envelope; \param min_emissivity lowest emissivity considered natural.
  /// \throws std::invalid_argument if the interval is empty, temperatures
  ///   are non-positive, or the emissivity is outside (0, 1].
  PhysicalBounds(double min_temperature_k, double max_temperature_k,
                 double min_emissivity = 0.6);

  [[nodiscard]] double min_temperature() const noexcept { return min_t_; }
  [[nodiscard]] double max_temperature() const noexcept { return max_t_; }
  [[nodiscard]] double min_emissivity() const noexcept { return min_eps_; }

  /// Radiance interval a natural pixel must fall in at this wavelength:
  /// [ε_min·B(λ, T_min), B(λ, T_max)].
  [[nodiscard]] RadianceInterval radiance_interval(double wavelength_um) const;

  /// Global envelope of naturally occurring Earth-surface thermal emission:
  /// 150 K (polar inversion layers) to 1500 K (fresh lava — the hyperthermal
  /// phenomena §7.2 insists must be *retained*).
  [[nodiscard]] static PhysicalBounds global();

 private:
  double min_t_;
  double max_t_;
  double min_eps_;
};

}  // namespace spacefts::otis
