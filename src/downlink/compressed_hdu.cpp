#include "spacefts/downlink/compressed_hdu.hpp"

#include <vector>

#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::downlink {

fits::Hdu make_compressed_hdu(const common::Image<std::uint16_t>& image,
                              bool primary) {
  if (image.width() == 0 || image.height() == 0) {
    // An empty image would serialize to ZNAXIS1=0, which the reader rejects
    // as damaged geometry; refuse at write time so every HDU we emit is one
    // we can read back.
    throw fits::FitsError("make_compressed_hdu: empty image");
  }
  SPACEFTS_TSPAN("downlink.compress",
                 {"pixels", static_cast<double>(image.size())});
  auto stream = rice::compress16(image.pixels());

  fits::Hdu hdu;
  auto& h = hdu.header;
  if (primary) {
    h.set_logical("SIMPLE", true, "conforms to FITS standard");
  } else {
    h.set_string("XTENSION", "IMAGE", "image extension");
  }
  h.set_int("BITPIX", 8, "stored as a byte stream");
  h.set_int("NAXIS", 1, "one axis: the compressed stream");
  h.set_int("NAXIS1", static_cast<std::int64_t>(stream.size()),
            "compressed stream length");
  if (!primary) {
    h.set_int("PCOUNT", 0, "no varying arrays");
    h.set_int("GCOUNT", 1, "one group");
  }
  h.set_logical("ZIMAGE", true, "this HDU holds a compressed image");
  h.set_string("ZCMPTYPE", "RICE_1", "Rice compression");
  h.set_int("ZBITPIX", 16, "original bits per pixel");
  h.set_int("ZNAXIS", 2, "original axis count");
  h.set_int("ZNAXIS1", static_cast<std::int64_t>(image.width()),
            "original axis 1");
  h.set_int("ZNAXIS2", static_cast<std::int64_t>(image.height()),
            "original axis 2");
  hdu.data = fits::Payload(std::move(stream));
  return hdu;
}

bool is_compressed_hdu(const fits::Hdu& hdu) {
  return hdu.header.get_logical("ZIMAGE").value_or(false) &&
         hdu.header.get_string("ZCMPTYPE").value_or("") == "RICE_1";
}

common::Image<std::uint16_t> read_compressed_hdu(const fits::Hdu& hdu) {
  SPACEFTS_TSPAN("downlink.decompress",
                 {"bytes", static_cast<double>(hdu.data.size())});
  if (!is_compressed_hdu(hdu)) {
    throw fits::FitsError("read_compressed_hdu: not a RICE_1 compressed HDU");
  }
  const auto zbitpix = hdu.header.get_int("ZBITPIX");
  const auto w = hdu.header.get_int("ZNAXIS1");
  const auto h = hdu.header.get_int("ZNAXIS2");
  if (!zbitpix || *zbitpix != 16 || !w || !h || *w <= 0 || *h <= 0) {
    throw fits::FitsError("read_compressed_hdu: damaged Z-geometry");
  }
  const auto width = static_cast<std::size_t>(*w);
  const auto height = static_cast<std::size_t>(*h);
  // A corrupted header must not drive the allocation: the rice coder spends
  // at least one bit per sample (k=0 unary, before block headers), so a
  // stream of N bytes can never decode to more than 8N samples.  Anything
  // larger is damaged geometry, not a bigger image.
  const std::size_t max_pixels = hdu.data.size() * 8;
  if (width > max_pixels / height) {
    throw fits::FitsError(
        "read_compressed_hdu: Z-geometry exceeds what the stream could hold");
  }
  std::vector<std::uint16_t> samples;
  try {
    samples = rice::decompress16(hdu.data, width * height);
  } catch (const rice::BitstreamError& e) {
    throw fits::FitsError(std::string("read_compressed_hdu: ") + e.what());
  }
  return common::Image<std::uint16_t>(width, height, std::move(samples));
}

}  // namespace spacefts::downlink
