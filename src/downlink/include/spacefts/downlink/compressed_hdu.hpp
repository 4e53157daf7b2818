/// \file compressed_hdu.hpp
/// Rice-compressed FITS image HDUs — the downlink format of the NGST
/// pipeline (§2: the integrated baseline image is compressed "using [the]
/// Rice Algorithm" before transmission to the base station).
///
/// The convention follows the FITS tiled-image compression design
/// (ZIMAGE / ZCMPTYPE / ZNAXISn keywords) in single-tile form: the entire
/// image is one Rice-coded stream stored as the HDU's 8-bit data array.
/// The original geometry lives in the Z-keywords so the stream can be
/// decompressed to exactly the stored image.
#pragma once

#include <cstdint>

#include "spacefts/common/image.hpp"
#include "spacefts/fits/fits.hpp"

namespace spacefts::downlink {

/// Builds a Rice-compressed HDU from a 16-bit image.
/// Keywords written: ZIMAGE=T, ZCMPTYPE='RICE_1', ZBITPIX=16,
/// ZNAXIS=2, ZNAXIS1/ZNAXIS2, plus the real BITPIX=8/NAXIS1=stream length.
/// \throws fits::FitsError for an empty (0-area) image — the reader would
/// reject the resulting ZNAXIS1=0 geometry, so it is refused at write time.
[[nodiscard]] fits::Hdu make_compressed_hdu(
    const common::Image<std::uint16_t>& image, bool primary = true);

/// True if the HDU carries a compressed image in this convention.
[[nodiscard]] bool is_compressed_hdu(const fits::Hdu& hdu);

/// Decompresses a compressed HDU back to the original image.
/// \throws fits::FitsError if the HDU is not a RICE_1 compressed image, the
/// claimed geometry exceeds what the stored stream could possibly decode to
/// (≥ 1 bit/sample — guards corrupted ZNAXISn against exabyte allocations),
/// or the stream is damaged beyond decoding.
[[nodiscard]] common::Image<std::uint16_t> read_compressed_hdu(
    const fits::Hdu& hdu);

}  // namespace spacefts::downlink
