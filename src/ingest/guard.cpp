#include "spacefts/ingest/guard.hpp"

#include <stdexcept>
#include <utility>

#include "spacefts/fits/fits.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::ingest {

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
  if (file.hdus().size() < config_.min_readouts) {
    result.error = "too few readouts for temporal preprocessing";
    telemetry::counter("ingest.rejected").add();
    return result;
  }

  // 2. The Λ=0 sanity layer over every HDU.
  bool geometry_ok = true;
  {
    SPACEFTS_TSPAN("ingest.sanity",
                   {"hdus", static_cast<double>(file.hdus().size())});
    for (auto& hdu : file.hdus()) {
      result.sanity.push_back(fits::check_and_repair(hdu, config_.expectation));
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
  const auto& hdus = file.hdus();
  const auto axes = [&hdus](std::size_t t) {
    return std::pair{hdus[t].header.get_int("NAXIS1"),
                     hdus[t].header.get_int("NAXIS2")};
  };
  const auto first_axes = axes(0);
  std::size_t mismatch = 1;
  while (mismatch < hdus.size() && axes(mismatch) == first_axes) ++mismatch;
  const bool uniform = mismatch == hdus.size();
  common::TemporalStack<std::uint16_t> stack;
  {
    SPACEFTS_TSPAN("ingest.decode");
    try {
      const auto [width, height] = fits::image_u16_shape(hdus.front());
      if (uniform) {
        stack =
            common::TemporalStack<std::uint16_t>(width, height, hdus.size());
        for (std::size_t t = 0; t < hdus.size(); ++t) {
          fits::read_image_u16(hdus[t], stack.cube().plane(t));
        }
      } else {
        for (std::size_t t = 1; t <= mismatch; ++t) {
          (void)fits::image_u16_shape(hdus[t]);
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
