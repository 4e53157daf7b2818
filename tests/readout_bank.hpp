// A telemetry bank as the wire carries it -- 1,024 readouts of 256x1, each
// one header block and one data block -- with one readout changed mid-run
// in each of the ways a readout header is damaged, and an oracle that reads
// every readout as its own one-HDU file.  FitsFile::parse and
// IngestGuard::ingest reuse the verdict on a run of equal headers; the
// oracle never can, so the two must agree on every case.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "spacefts/fits/fits.hpp"
#include "spacefts/fits/sanity.hpp"

namespace readout_bank {

namespace ff = spacefts::fits;

inline constexpr std::size_t kWidth = 256;
inline constexpr std::size_t kReadouts = 1024;
/// Bytes per readout on the wire: one header block, one data block.
inline constexpr std::size_t kStride = 2 * ff::kBlockSize;
/// The readout each case changes (with its successor, for runs of two).
inline constexpr std::size_t kChanged = 500;

/// One line per issue: keyword, description and whether it was repaired.
inline std::string describe(const ff::SanityReport& report) {
  std::string out;
  for (const auto& issue : report.issues) {
    out += issue.keyword + ": " + issue.description +
           (issue.repaired ? " (repaired)\n" : " (open)\n");
  }
  return out;
}

/// What the node knows of every readout: BITPIX 16, 256x1.
inline ff::ImageExpectation expectation() {
  ff::ImageExpectation expected;
  expected.bitpix = 16;
  expected.width = static_cast<std::int64_t>(kWidth);
  expected.height = 1;
  return expected;
}

/// The clean bank: readout 0 the primary HDU, the rest IMAGE extensions,
/// with pixels that span the 16-bit range.
inline std::vector<std::uint8_t> clean_bank() {
  ff::FitsFile file;
  for (std::size_t t = 0; t < kReadouts; ++t) {
    spacefts::common::Image<std::uint16_t> img(kWidth, 1);
    for (std::size_t x = 0; x < kWidth; ++x) {
      img(x, 0) = static_cast<std::uint16_t>(t * 7919 + x * 257);
    }
    file.hdus().push_back(ff::make_image_hdu(img, /*primary=*/t == 0));
  }
  return file.serialize();
}

/// Replaces readout \p t of \p bank by \p change applied to it.
template <typename F>
void rewrite(std::vector<std::uint8_t>& bank, std::size_t t, F&& change) {
  const auto at = static_cast<std::ptrdiff_t>(t * kStride);
  const auto file = ff::FitsFile::parse(
      std::span<const std::uint8_t>(bank).subspan(t * kStride, kStride));
  ff::Hdu hdu = file.hdus().front();
  change(hdu);
  ff::FitsFile one;
  one.hdus().push_back(hdu);
  const auto bytes = one.serialize();
  if (bytes.size() != kStride) throw std::logic_error("readout resized");
  std::copy(bytes.begin(), bytes.end(), bank.begin() + at);
}

/// A named way of changing the clean bank.
struct Case {
  const char* name;
  void (*change)(std::vector<std::uint8_t>&);
};

/// NAXIS1 256 -> 288 in two readouts running: parse sizes each data unit
/// at 576 bytes of its block, sanity repairs the axis and trims the view.
inline void flipped_naxis1(std::vector<std::uint8_t>& bank) {
  for (std::size_t t : {kChanged, kChanged + 1}) {
    rewrite(bank, t, [](ff::Hdu& h) {
      h.header.set_int("NAXIS1", static_cast<std::int64_t>(kWidth ^ 0x20));
    });
  }
}

/// BITPIX 17 cannot size a data unit: the container does not parse.
inline void illegal_bitpix(std::vector<std::uint8_t>& bank) {
  rewrite(bank, kChanged, [](ff::Hdu& h) { h.header.set_int("BITPIX", 17); });
}

/// BZERO 0 is legal: two readouts decode to other values than their
/// neighbours with the same geometry.
inline void bzero_zero(std::vector<std::uint8_t>& bank) {
  for (std::size_t t : {kChanged, kChanged + 1}) {
    rewrite(bank, t, [](ff::Hdu& h) { h.header.set_double("BZERO", 0.0); });
  }
}

/// Bytes after the END card, in the last card of the header block: the
/// header is still its neighbour's.
inline void after_end(std::vector<std::uint8_t>& bank) {
  const std::size_t at = kChanged * kStride + ff::kBlockSize - ff::kCardSize;
  std::memcpy(bank.data() + at, "JUNK    = 1", 11);
}

/// One card more, where its neighbours have their END card.
inline void extra_card(std::vector<std::uint8_t>& bank) {
  rewrite(bank, kChanged, [](ff::Hdu& h) { h.header.set_int("EXTRA", 1); });
}

/// A damaged readout, then one whose header is the damaged one's after
/// repair: equal to it only after repair, so its own check is clean.
inline void equal_after_repair(std::vector<std::uint8_t>& bank) {
  flipped_naxis1(bank);
  rewrite(bank, kChanged + 1, [](ff::Hdu& h) {
    if (!ff::check_and_repair(h, expectation()).fully_repaired()) {
      throw std::logic_error("repair failed");
    }
  });
}

/// The final data unit cut to 100 of its 512 bytes.
inline void truncated_data(std::vector<std::uint8_t>& bank) {
  bank.resize(bank.size() - ff::kBlockSize + 100);
}

/// The final header cut before its END card.
inline void truncated_header(std::vector<std::uint8_t>& bank) {
  bank.resize(bank.size() - kStride + 500);
}

inline const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"clean", [](std::vector<std::uint8_t>&) {}},
      {"flipped_naxis1", flipped_naxis1},
      {"illegal_bitpix", illegal_bitpix},
      {"bzero_zero", bzero_zero},
      {"after_end", after_end},
      {"extra_card", extra_card},
      {"equal_after_repair", equal_after_repair},
      {"truncated_data", truncated_data},
      {"truncated_header", truncated_header},
  };
  return all;
}

inline std::vector<std::uint8_t> bank_for(const Case& c) {
  auto bank = clean_bank();
  c.change(bank);
  return bank;
}

/// One readout read as its own file.
struct Readout {
  ff::Header parsed;       ///< the header as parsed
  std::string sanity;      ///< describe() of its check_and_repair report
  bool repaired = false;   ///< that report is fully_repaired()
  ff::Header checked;      ///< the header after check_and_repair
  std::size_t data_size = 0;  ///< payload bytes after check_and_repair
  std::optional<spacefts::common::Image<std::uint16_t>> image;
  std::string decode_error;  ///< read_image_u16's message, if it threw
};

/// Every readout of \p bank parsed alone, checked against expectation()
/// and decoded, up to the first that does not parse.
struct Oracle {
  std::vector<Readout> readouts;
  std::string parse_error;  ///< that readout's FitsError message, or ""
};

inline Oracle oracle(const std::vector<std::uint8_t>& bank) {
  Oracle out;
  for (std::size_t at = 0; at < bank.size(); at += kStride) {
    const auto bytes = std::span<const std::uint8_t>(bank).subspan(
        at, std::min(kStride, bank.size() - at));
    ff::FitsFile file;
    try {
      file = ff::FitsFile::parse(bytes);
    } catch (const ff::FitsError& e) {
      out.parse_error = e.what();
      return out;
    }
    if (file.hdus().size() != 1) throw std::logic_error("not one HDU");
    ff::Hdu& hdu = file.hdus().front();
    Readout r;
    r.parsed = hdu.header;
    const auto report = ff::check_and_repair(hdu, expectation());
    r.sanity = describe(report);
    r.repaired = report.fully_repaired();
    r.checked = hdu.header;
    r.data_size = hdu.data.size();
    try {
      r.image = ff::read_image_u16(hdu);
    } catch (const ff::FitsError& e) {
      r.decode_error = e.what();
    }
    out.readouts.push_back(std::move(r));
  }
  return out;
}

}  // namespace readout_bank
