// The metrics module is header-heavy (templates over the pixel type); this
// translation unit pins the vtable-free library together and instantiates
// the common specializations once so every client does not have to.
#include "spacefts/metrics/error.hpp"

#include <cstdint>

namespace spacefts::metrics {

template double average_relative_error<std::uint16_t>(
    std::span<const std::uint16_t>, std::span<const std::uint16_t>);
template double average_relative_error<float>(std::span<const float>,
                                              std::span<const float>);
template double rms_error<float>(std::span<const float>,
                                 std::span<const float>);
template CorrectionStats correction_stats<std::uint16_t>(
    std::span<const std::uint16_t>, std::span<const std::uint16_t>,
    std::span<const std::uint16_t>);

}  // namespace spacefts::metrics
