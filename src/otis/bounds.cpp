#include "spacefts/otis/bounds.hpp"

#include <stdexcept>

#include "spacefts/otis/planck.hpp"

namespace spacefts::otis {

PhysicalBounds::PhysicalBounds(double min_temperature_k,
                               double max_temperature_k, double min_emissivity)
    : min_t_(min_temperature_k),
      max_t_(max_temperature_k),
      min_eps_(min_emissivity) {
  if (min_t_ <= 0.0 || max_t_ <= min_t_) {
    throw std::invalid_argument("PhysicalBounds: bad temperature interval");
  }
  if (min_eps_ <= 0.0 || min_eps_ > 1.0) {
    throw std::invalid_argument("PhysicalBounds: emissivity outside (0, 1]");
  }
}

RadianceInterval PhysicalBounds::radiance_interval(double wavelength_um) const {
  return RadianceInterval{
      min_eps_ * planck_radiance(wavelength_um, min_t_),
      planck_radiance(wavelength_um, max_t_),
  };
}

PhysicalBounds PhysicalBounds::global() { return {150.0, 1500.0, 0.6}; }

}  // namespace spacefts::otis
