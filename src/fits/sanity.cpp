#include "spacefts/fits/sanity.hpp"

namespace spacefts::fits {

bool is_legal_bitpix(std::int64_t bitpix) noexcept {
  return bitpix == 8 || bitpix == 16 || bitpix == 32 || bitpix == 64 ||
         bitpix == -32 || bitpix == -64;
}

namespace {

void report(SanityReport& r, std::string keyword, std::string description,
            bool repaired) {
  r.issues.push_back(
      SanityIssue{std::move(keyword), std::move(description), repaired});
}

/// |bitpix|, without negating INT64_MIN.
[[nodiscard]] std::size_t bits_per_pixel(std::int64_t bitpix) noexcept {
  return bitpix < 0 ? 0 - static_cast<std::size_t>(bitpix)
                    : static_cast<std::size_t>(bitpix);
}

/// NAXIS1 * NAXIS2 * |bitpix| / 8, or nullopt when an axis is missing or
/// non-positive or the product wraps.
[[nodiscard]] std::optional<std::size_t> image_bytes(
    std::int64_t bitpix, const std::optional<std::int64_t>& naxis1,
    const std::optional<std::int64_t>& naxis2) noexcept {
  if (!naxis1 || !naxis2 || *naxis1 <= 0 || *naxis2 <= 0) return std::nullopt;
  const auto pixels = checked_mul(static_cast<std::size_t>(*naxis1),
                                  static_cast<std::size_t>(*naxis2));
  const auto bits =
      pixels ? checked_mul(*pixels, bits_per_pixel(bitpix)) : std::nullopt;
  if (!bits) return std::nullopt;
  return *bits / 8;
}

}  // namespace

SanityReport check_and_repair(Hdu& hdu, const ImageExpectation& expected) {
  SanityReport r;
  Header& h = hdu.header;
  const std::size_t actual_bytes = hdu.data.size();

  // --- SIMPLE / XTENSION ----------------------------------------------------
  const auto simple = h.get_logical("SIMPLE");
  const auto xtension = h.get_string("XTENSION");
  if (!simple && !xtension) {
    // Neither marker decodes: a primary HDU is the only safe assumption.
    h.set_logical("SIMPLE", true, "repaired by sanity pass");
    report(r, "SIMPLE", "neither SIMPLE nor XTENSION decodable; assumed primary",
           true);
  } else if (simple && !*simple) {
    // SIMPLE=F declares non-standard FITS, which nothing onboard produces.
    h.set_logical("SIMPLE", true, "repaired by sanity pass");
    report(r, "SIMPLE", "SIMPLE=F is not produced by any onboard writer", true);
  }

  // --- NAXIS ------------------------------------------------------------------
  auto naxis = h.get_int("NAXIS");
  if (!naxis || *naxis < 0 || *naxis > 999) {
    h.set_int("NAXIS", 2, "repaired by sanity pass");
    report(r, "NAXIS",
           naxis ? "NAXIS outside the legal range [0, 999]" : "NAXIS missing",
           true);
    naxis = 2;
  }

  // --- BITPIX -----------------------------------------------------------------
  auto bitpix = h.get_int("BITPIX");
  const bool bitpix_bad = !bitpix || !is_legal_bitpix(*bitpix);
  const bool bitpix_unexpected =
      bitpix && expected.bitpix && *bitpix != *expected.bitpix;
  if (bitpix_bad || bitpix_unexpected) {
    if (expected.bitpix) {
      h.set_int("BITPIX", *expected.bitpix, "repaired by sanity pass");
      report(r, "BITPIX",
             bitpix_bad ? "illegal BITPIX value" : "BITPIX contradicts expectation",
             true);
      bitpix = expected.bitpix;
    } else if (bitpix_bad) {
      // Try to infer from the payload size and plausible axis values.
      const auto naxis1 = h.get_int("NAXIS1");
      const auto naxis2 = h.get_int("NAXIS2");
      bool inferred = false;
      for (std::int64_t candidate : {8, 16, 32, 64}) {
        if (image_bytes(candidate, naxis1, naxis2) == actual_bytes) {
          // Sign is ambiguous between e.g. 32 and -32; prefer the integer
          // reading for 8/16/64 and the float reading for 32 (the two
          // element types this library writes).
          const std::int64_t repairedv = candidate == 32 ? -32 : candidate;
          h.set_int("BITPIX", repairedv, "repaired by sanity pass");
          report(r, "BITPIX", "illegal BITPIX inferred from payload size",
                 true);
          bitpix = repairedv;
          inferred = true;
          break;
        }
      }
      if (!inferred) {
        report(r, "BITPIX", "illegal BITPIX and no redundancy to repair it",
               false);
      }
    }
  }

  // --- NAXIS1 / NAXIS2 ---------------------------------------------------------
  // Each check returns the axis as the header now holds it.
  const auto check_axis = [&](const char* keyword,
                              const std::optional<std::int64_t>& expectation) {
    const auto axis = h.get_int(keyword);
    const bool bad = !axis || *axis <= 0;
    const bool unexpected = axis && expectation && *axis != *expectation;
    if (!bad && !unexpected) return axis;
    if (expectation) {
      h.set_int(keyword, *expectation, "repaired by sanity pass");
      report(r, keyword,
             bad ? "axis length missing or non-positive"
                 : "axis length contradicts expectation",
             true);
      return expectation;
    }
    report(r, keyword, "axis length missing or non-positive", !bad);
    return axis;
  };
  auto naxis1 = *naxis >= 1 ? check_axis("NAXIS1", expected.width)
                            : h.get_int("NAXIS1");
  auto naxis2 = *naxis >= 2 ? check_axis("NAXIS2", expected.height)
                            : h.get_int("NAXIS2");

  // --- cross-check against the payload ----------------------------------------
  // bitpix, naxis1 and naxis2 hold the header's values from here on.
  const auto implied_bytes = [&] {
    return bitpix ? image_bytes(*bitpix, naxis1, naxis2) : std::nullopt;
  };
  // If the HDU was *parsed* under a damaged header, the captured payload can
  // include up to a block of padding beyond the true data; once the
  // geometry is trusted (or repaired from expectations), trim it.
  if (const auto implied = implied_bytes();
      implied && is_legal_bitpix(*bitpix) && *implied < hdu.data.size() &&
      hdu.data.size() - *implied < kBlockSize &&
      (expected.width || expected.height || expected.bitpix)) {
    hdu.data.shrink(*implied);
    report(r, "NAXIS", "data unit trimmed of parse-era padding", true);
  }

  if (implied_bytes() != hdu.data.size()) {
    // One more chance: if exactly one axis is damaged and the other two
    // quantities are trusted, the payload size pins it down.  An axis the
    // application pinned via expectation is authoritative and never
    // overridden from the payload.
    const std::size_t payload = hdu.data.size();
    if (bitpix && is_legal_bitpix(*bitpix)) {
      const std::size_t bytes_per_px = bits_per_pixel(*bitpix) / 8;
      // One image row in bytes; a row that wraps cannot tile the payload.
      const auto row = [&](const std::optional<std::int64_t>& axis) {
        return axis && *axis > 0
                   ? checked_mul(static_cast<std::size_t>(*axis), bytes_per_px)
                   : std::nullopt;
      };
      if (const auto row1 = row(naxis1);
          !expected.height && row1 && payload % *row1 == 0) {
        const auto implied_n2 = static_cast<std::int64_t>(payload / *row1);
        if (!naxis2 || *naxis2 != implied_n2) {
          h.set_int("NAXIS2", implied_n2, "repaired by sanity pass");
          report(r, "NAXIS2", "axis repaired from payload size", true);
          naxis2 = implied_n2;
        }
      } else if (const auto row2 = row(naxis2);
                 !expected.width && row2 && payload % *row2 == 0) {
        const auto implied_n1 = static_cast<std::int64_t>(payload / *row2);
        h.set_int("NAXIS1", implied_n1, "repaired by sanity pass");
        report(r, "NAXIS1", "axis repaired from payload size", true);
        naxis1 = implied_n1;
      }
    }
    if (implied_bytes() != hdu.data.size()) {
      report(r, "NAXIS", "header geometry inconsistent with payload size",
             false);
    }
  }

  // --- BZERO (for 16-bit images) ----------------------------------------------
  if (bitpix && *bitpix == 16) {
    const auto bzero = h.get_double("BZERO");
    if (bzero ? *bzero != 0.0 && *bzero != 32768.0 : h.contains("BZERO")) {
      h.set_double("BZERO", 32768.0, "repaired by sanity pass");
      report(r, "BZERO", "BZERO must be 0 or 32768 for 16-bit images", true);
    }
  }

  return r;
}

}  // namespace spacefts::fits
