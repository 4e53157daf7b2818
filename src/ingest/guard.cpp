#include "spacefts/ingest/guard.hpp"

#include <stdexcept>
#include <utility>

#include "spacefts/fits/fits.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::ingest {
namespace {

/// Baselines with fewer readouts are refused: temporal voting needs
/// neighbours to consult.
constexpr std::size_t kMinReadouts = 3;

}  // namespace

IngestGuard::IngestGuard(IngestConfig config) : config_(std::move(config)) {
  // Constructing the algorithm validates upsilon/lambda once, up front.
  (void)core::AlgoNgst(config_.algo);
}

std::vector<std::uint8_t> IngestGuard::pack(
    const common::TemporalStack<std::uint16_t>& stack) {
  std::vector<std::uint8_t> out;
  const std::size_t frames = stack.frames();
  if (frames == 0) return out;
  // Readout 0 is the primary HDU, the rest IMAGE extensions; every readout
  // of one geometry carries the same header, so each is encoded once.
  const auto primary =
      fits::image_u16_header(stack.width(), stack.height(), true).serialize();
  const auto extension =
      fits::image_u16_header(stack.width(), stack.height(), false).serialize();
  const std::size_t data_bytes =
      fits::block_padded(stack.width() * stack.height() * 2);
  out.reserve(primary.size() + (frames - 1) * extension.size() +
              frames * data_bytes);
  for (std::size_t t = 0; t < frames; ++t) {
    const auto& header = t == 0 ? primary : extension;
    out.insert(out.end(), header.begin(), header.end());
    const std::size_t at = out.size();
    out.resize(at + data_bytes);  // zero fill pads the data unit
    fits::write_image_u16(stack.cube().plane(t), out.data() + at);
  }
  return out;
}

IngestResult IngestGuard::ingest(std::span<const std::uint8_t> bytes) const {
  SPACEFTS_TSPAN("ingest.guard",
                 {"bytes", static_cast<double>(bytes.size())});
  IngestResult result;

  // 1. Container parse.  A destroyed container is beyond repair here —
  //    sanity checking needs HDU boundaries, which need sized headers.
  fits::FitsFile file;
  {
    SPACEFTS_TSPAN("ingest.parse");
    try {
      file = fits::FitsFile::parse(bytes);
    } catch (const fits::FitsError& e) {
      result.error = std::string("container parse failed: ") + e.what();
      telemetry::counter("ingest.rejected").add();
      return result;
    }
  }
  if (file.hdus().size() < kMinReadouts) {
    result.error = "too few readouts for temporal preprocessing";
    telemetry::counter("ingest.rejected").add();
    return result;
  }

  // 2. The Λ=0 sanity layer over every HDU.  check_and_repair reads
  //    nothing but the header, the data length and the expectation, so a
  //    readout whose parsed header and data length equal the previous
  //    readout's, as parsed, takes that readout's report, repaired header
  //    and trimmed length: a run of equal readouts is checked once, and
  //    every HDU is left as check_and_repair would leave it.
  auto& hdus = file.hdus();
  std::vector<bool> repeats(hdus.size());
  bool geometry_ok = true;
  {
    SPACEFTS_TSPAN("ingest.sanity",
                   {"hdus", static_cast<double>(hdus.size())});
    result.sanity.reserve(hdus.size());
    fits::Header parsed;  // the last checked readout's header as parsed
    std::size_t parsed_size = 0;
    for (std::size_t t = 0; t < hdus.size(); ++t) {
      auto& hdu = hdus[t];
      if (t > 0 && hdu.data.size() == parsed_size && hdu.header == parsed) {
        repeats[t] = true;
        result.sanity.push_back(result.sanity.back());
        hdu.header = hdus[t - 1].header;
        hdu.data.shrink(hdus[t - 1].data.size());
      } else {
        parsed = hdu.header;
        parsed_size = hdu.data.size();
        result.sanity.push_back(
            fits::check_and_repair(hdu, config_.expectation));
      }
      if (!result.sanity.back().fully_repaired()) geometry_ok = false;
    }
  }
  std::size_t sanity_issues = 0;
  std::size_t sanity_repaired = 0;
  for (const auto& s : result.sanity) {
    sanity_issues += s.issues.size();
    for (const auto& issue : s.issues) sanity_repaired += issue.repaired;
  }
  telemetry::counter("ingest.sanity_issues").add(sanity_issues);
  telemetry::counter("ingest.sanity_repaired").add(sanity_repaired);
  if (!geometry_ok) {
    result.error = "unrepairable header damage";
    telemetry::counter("ingest.rejected").add();
    return result;
  }

  // 3. Decode into a stack, insisting on uniform geometry.  The headers are
  //    compared before the stack is sized: sanity has tied every payload to
  //    its header, so once all readouts claim readout 0's geometry the
  //    stack is in proportion to the input.  Every readout decodes straight
  //    from the wire bytes into its plane.  A readout that fails to decode
  //    reports that before any geometry mismatch of its own, so on a
  //    mismatch at readout k, readouts 0..k are still checked for decoding.
  //    A repeat has the previous readout's header and data length, hence
  //    its geometry and layout, so neither is read from its cards again.
  const auto axes = [&hdus](std::size_t t) {
    return std::pair{hdus[t].header.get_int("NAXIS1"),
                     hdus[t].header.get_int("NAXIS2")};
  };
  const auto first_axes = axes(0);
  std::size_t mismatch = 1;
  while (mismatch < hdus.size() &&
         (repeats[mismatch] || axes(mismatch) == first_axes)) {
    ++mismatch;
  }
  const bool uniform = mismatch == hdus.size();
  common::TemporalStack<std::uint16_t> stack;
  {
    SPACEFTS_TSPAN("ingest.decode");
    try {
      auto layout = fits::image_u16_layout(hdus.front());
      if (uniform) {
        stack = common::TemporalStack<std::uint16_t>(layout.width,
                                                     layout.height, hdus.size());
        for (std::size_t t = 0; t < hdus.size(); ++t) {
          if (t > 0 && !repeats[t]) layout = fits::image_u16_layout(hdus[t]);
          fits::read_image_u16(hdus[t], layout, stack.cube().plane(t));
        }
      } else {
        for (std::size_t t = 1; t <= mismatch; ++t) {
          if (!repeats[t]) (void)fits::image_u16_layout(hdus[t]);
        }
      }
    } catch (const fits::FitsError& e) {
      result.error = std::string("readout decode failed: ") + e.what();
      telemetry::counter("ingest.rejected").add();
      return result;
    }
    if (!uniform) {
      result.error = "readout geometry differs across the baseline";
      telemetry::counter("ingest.rejected").add();
      return result;
    }
  }

  // 4. Preprocess (a no-op at Λ = 0 by construction).
  {
    SPACEFTS_TSPAN("ingest.preprocess", {"lambda", config_.algo.lambda});
    if (config_.executor) {
      result.preprocess = config_.executor(stack, config_.algo);
    } else {
      const core::AlgoNgst algo(config_.algo);
      result.preprocess = algo.preprocess(stack);
    }
  }
  telemetry::counter("ingest.pixels_corrected")
      .add(result.preprocess.pixels_corrected);
  telemetry::counter("ingest.bits_corrected")
      .add(result.preprocess.bits_corrected);

  result.stack = std::move(stack);
  result.ok = true;
  telemetry::counter("ingest.accepted").add();
  return result;
}

}  // namespace spacefts::ingest
