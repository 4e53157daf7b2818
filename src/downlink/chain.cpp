#include "spacefts/downlink/chain.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/edac/hamming.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::downlink {
namespace {

/// Sub-stream indices under the chain's master seed.  Fixed so products
/// stay byte-stable across refactors, and so the preprocessing-on and -off
/// arms of a sweep see the same scene, the same memory flips, and the same
/// per-tile link fates at equal budgets.
enum ChainStream : std::uint64_t {
  kStreamScene = 0,   ///< dataset synthesis
  kStreamMemory = 1,  ///< on-board Γ₀ bit flips
  kStreamLink = 2,    ///< per-tile transmission fates
};

void validate(const ChainConfig& config) {
  if (config.side == 0 || config.tile_rows == 0) {
    throw std::invalid_argument("downlink chain: side/tile_rows must be > 0");
  }
  if (config.frames < 3) {
    throw std::invalid_argument(
        "downlink chain: need >= 3 frames (temporal voting)");
  }
  if (!(config.lambda >= 0.0 && config.lambda <= 100.0)) {
    throw std::invalid_argument("downlink chain: lambda outside [0, 100]");
  }
  if (!(config.gamma0 >= 0.0 && config.gamma0 <= 1.0)) {
    throw std::invalid_argument("downlink chain: gamma0 outside [0, 1]");
  }
}

common::TemporalStack<std::uint16_t> make_stack(const ChainConfig& config) {
  const std::uint64_t seed =
      common::derive_stream_seed(config.seed, kStreamScene, 0);
  if (config.workload == ChainWorkload::kTelemetry) {
    datagen::TelemetrySimulator sim(seed);
    datagen::TelemetryParams params;
    params.channels = config.side;
    params.samples = config.frames;
    return sim.stack(params);
  }
  datagen::NgstSimulator sim(seed);
  datagen::SceneParams scene;
  scene.width = config.side;
  scene.height = config.side;
  return sim.stack(config.frames, scene);
}

/// The science product of a (possibly repaired) stack.  NGST: the
/// integrated baseline image (§2's per-pixel temporal mean).  Telemetry:
/// the full channel×sample matrix — every sample is science.
common::Image<std::uint16_t> product_image(
    const common::TemporalStack<std::uint16_t>& stack,
    ChainWorkload workload) {
  if (workload == ChainWorkload::kTelemetry) {
    common::Image<std::uint16_t> image(stack.width(), stack.frames());
    for (std::size_t t = 0; t < stack.frames(); ++t) {
      for (std::size_t x = 0; x < stack.width(); ++x) {
        image(x, t) = stack(x, 0, t);
      }
    }
    return image;
  }
  // Whole planes accumulate into u64 sums; sums of u16 readouts are exact
  // there and in the double they convert to, so the mean is unchanged.
  std::vector<std::uint64_t> sum(stack.width() * stack.height(), 0);
  for (std::size_t t = 0; t < stack.frames(); ++t) {
    const std::span<const std::uint16_t> plane = stack.cube().plane(t);
    for (std::size_t p = 0; p < sum.size(); ++p) sum[p] += plane[p];
  }
  common::Image<std::uint16_t> image(stack.width(), stack.height());
  const std::span<std::uint16_t> out = image.pixels();
  for (std::size_t p = 0; p < sum.size(); ++p) {
    out[p] = datagen::clamp_pixel(
        static_cast<double>(sum[p]) / static_cast<double>(stack.frames()));
  }
  return image;
}

core::AlgoNgstConfig algo_config(const ChainConfig& config) {
  core::AlgoNgstConfig algo;
  algo.lambda = config.lambda;
  algo.upsilon = config.upsilon;
  algo.threads = config.threads;
  algo.kernel = config.kernel;
  return algo;
}

std::uint64_t load_word(const std::uint8_t* bytes) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}

std::uint32_t load_le32(const std::uint8_t* bytes) noexcept {
  return static_cast<std::uint32_t>(bytes[0]) |
         static_cast<std::uint32_t>(bytes[1]) << 8 |
         static_cast<std::uint32_t>(bytes[2]) << 16 |
         static_cast<std::uint32_t>(bytes[3]) << 24;
}

/// The payload of a frame's verified data words: a little-endian length
/// word, then that many bytes.  A length past the data words is corruption.
std::optional<std::vector<std::uint8_t>> take_payload(
    std::span<const std::uint8_t> data, std::size_t repairs,
    std::size_t* words_corrected) {
  const std::uint32_t length = load_le32(data.data());
  if (length > data.size() - 4) return std::nullopt;
  if (words_corrected != nullptr) *words_corrected = repairs;
  const auto payload = data.subspan(4, length);
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

}  // namespace

const char* to_string(ChainWorkload workload) noexcept {
  return workload == ChainWorkload::kTelemetry ? "telemetry" : "ngst";
}

std::vector<std::uint8_t> protect_frame(std::span<const std::uint8_t> payload) {
  SPACEFTS_TSPAN("downlink.frame",
                 {"bytes", static_cast<double>(payload.size())});
  // Sized once: the length word, the payload and its zero pad to whole
  // 8-byte words, and one parity byte per word are written in place; the
  // CRC trailer lands in the reserved tail.
  const std::size_t padded = (4 + payload.size() + 7) / 8 * 8;
  const std::size_t words = padded / 8;
  std::vector<std::uint8_t> frame;
  frame.reserve(padded + words + 4);
  frame.resize(padded + words);
  std::uint8_t* const out = frame.data();
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (std::size_t b = 0; b < 4; ++b) {
    out[b] = static_cast<std::uint8_t>(length >> (8 * b));
  }
  if (!payload.empty()) std::memcpy(out + 4, payload.data(), payload.size());
  edac::encode_parities(out, words, out + padded);
  edac::frame_append_crc(frame);
  return frame;
}

std::optional<std::vector<std::uint8_t>> recover_frame(
    std::span<const std::uint8_t> frame, std::size_t* words_corrected) {
  SPACEFTS_TSPAN("downlink.deframe",
                 {"bytes", static_cast<double>(frame.size())});
  if (words_corrected != nullptr) *words_corrected = 0;
  // Layout: 8k data bytes + k parity bytes + 4 CRC bytes.  Anything that
  // does not factor as 9k + 4 lost or gained bytes in transit.
  if (frame.size() < 13 || (frame.size() - 4) % 9 != 0) return std::nullopt;
  const std::size_t words = (frame.size() - 4) / 9;
  const std::size_t data_bytes = words * 8;

  // Fast path: an undamaged frame needs no correction, so the payload comes
  // straight out of it.
  if (edac::frame_verify(frame)) {
    return take_payload(frame.first(data_bytes), 0, words_corrected);
  }

  // SEC-DED pass: correct a single flipped bit per 72-bit word, wherever it
  // landed (data or parity byte), then re-derive the parity bytes so the CRC
  // recheck sees a self-consistent frame.  The copy's parity bytes start as
  // those its data words imply; only a word whose stored byte differs can
  // decode to anything but kClean, so only those words are decoded.
  std::vector<std::uint8_t> corrected(frame.begin(), frame.end());
  edac::encode_parities(frame.data(), words, corrected.data() + data_bytes);
  const std::uint8_t* const stored = frame.data() + data_bytes;
  std::size_t repairs = 0;
  for (std::size_t w = 0; w < words; ++w) {
    if (corrected[data_bytes + w] == stored[w]) continue;
    const auto result =
        edac::decode(load_word(frame.data() + w * 8), stored[w]);
    if (result.status == edac::DecodeStatus::kUncorrectable) {
      return std::nullopt;
    }
    if (result.status == edac::DecodeStatus::kCorrected) ++repairs;
    std::memcpy(corrected.data() + w * 8, &result.data, 8);
    corrected[data_bytes + w] = edac::encode_parity(result.data);
  }
  // Final integrity gate: the stored trailer must match the corrected
  // content.  A mismatch means multi-bit damage aliased past SEC-DED or hit
  // the trailer itself — either way the frame is lost, not wrong.
  if (!edac::frame_verify(corrected)) return std::nullopt;
  return take_payload(std::span(corrected).first(data_bytes), repairs,
                       words_corrected);
}

ChainReport run_chain(const ChainConfig& config) {
  validate(config);
  const fault::MessageFaultModel link(config.link);  // validates the budget
  const core::AlgoNgstConfig algo = algo_config(config);

  ChainReport report;
  auto pristine = make_stack(config);

  // The clean-chain golden: trusted preprocessing of the pristine stack
  // over a perfect link.  Compression and framing are lossless there, so
  // the golden product is computable without flying the chain.
  {
    auto clean = pristine;
    (void)core::AlgoNgst(algo).preprocess(clean);
    report.golden = product_image(clean, config.workload);
  }

  // On-board leg: Γ₀ memory flips, then the (optional) voter.
  auto stack = std::move(pristine);
  if (config.gamma0 > 0.0) {
    common::Rng memory_rng(
        common::derive_stream_seed(config.seed, kStreamMemory, 0));
    const fault::UncorrelatedFaultModel memory(config.gamma0);
    const auto mask =
        memory.mask16(stack.cube().voxels().size(), memory_rng);
    report.memory_bits_flipped =
        fault::count_faults<std::uint16_t>(mask);
    fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  }
  if (config.preprocess) {
    core::AlgoNgstReport voter;
    if (config.backend) {
      voter = config.backend->preprocess(stack, algo,
                                         backend::ComputeMeta{0, 0}, nullptr);
    } else {
      voter = core::AlgoNgst(algo).preprocess(stack);
    }
    report.pixels_corrected = voter.pixels_corrected;
    report.bits_corrected = voter.bits_corrected;
    report.pixels_vetoed = voter.pixels_vetoed;
  }
  const auto sent = product_image(stack, config.workload);

  // Downlink leg: row-band tiles, one self-recovering frame each.
  common::Image<std::uint16_t> received(sent.width(), sent.height());
  const std::uint64_t link_seed =
      common::derive_stream_seed(config.seed, kStreamLink, 0);
  report.tiles = (sent.height() + config.tile_rows - 1) / config.tile_rows;
  for (std::size_t tile = 0; tile < report.tiles; ++tile) {
    const std::size_t y0 = tile * config.tile_rows;
    const std::size_t rows = std::min(config.tile_rows, sent.height() - y0);
    common::Image<std::uint16_t> band(sent.width(), rows);
    for (std::size_t y = 0; y < rows; ++y) {
      for (std::size_t x = 0; x < sent.width(); ++x) {
        band(x, y) = sent(x, y0 + y);
      }
    }
    fits::FitsFile file;
    file.hdus().push_back(make_compressed_hdu(band));
    report.compressed_bytes += file.hdus().front().data.size();
    auto frame = protect_frame(file.serialize());

    // One derived stream per tile: the fate draws come first and are
    // fixed-count, so equal-budget arms see identical drop/corrupt fates
    // tile for tile even though their payload sizes differ.
    common::Rng tile_rng(common::derive_stream_seed(link_seed, tile, 0));
    const auto fate = link.sample(tile_rng);
    report.frames_sent += 1 + fate.duplicates;
    report.wire_bytes += frame.size() * (1 + fate.duplicates);
    if (fate.dropped) {
      ++report.frames_dropped;
      ++report.tiles_degraded;
      continue;
    }
    if (fate.corrupted) {
      ++report.frames_corrupted;
      (void)link.corrupt(frame, tile_rng);
    }

    std::size_t repairs = 0;
    const auto payload = recover_frame(frame, &repairs);
    report.words_corrected += repairs;
    bool pasted = false;
    if (payload) {
      if (fate.corrupted) ++report.frames_recovered;
      try {
        const auto parsed = fits::FitsFile::parse(*payload);
        if (!parsed.hdus().empty()) {
          const auto image = read_compressed_hdu(parsed.hdus().front());
          if (image.width() == sent.width() && image.height() == rows) {
            for (std::size_t y = 0; y < rows; ++y) {
              for (std::size_t x = 0; x < sent.width(); ++x) {
                received(x, y0 + y) = image(x, y);
              }
            }
            pasted = true;
          }
        }
      } catch (const fits::FitsError&) {
        // Damage that slipped the frame check surfaces as a degraded tile.
      }
    }
    if (!pasted) ++report.tiles_degraded;
  }

  report.product = std::move(received);
  report.raw_bytes = report.product.size() * sizeof(std::uint16_t);
  report.compression_ratio =
      report.compressed_bytes > 0
          ? static_cast<double>(report.raw_bytes) /
                static_cast<double>(report.compressed_bytes)
          : 0.0;

  // Fidelity vs the clean-chain golden over the full product (degraded
  // tiles read as zeros — losing a tile is a science loss, and it counts).
  double mse = 0.0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < report.product.size(); ++i) {
    const double diff = static_cast<double>(report.product.pixels()[i]) -
                        static_cast<double>(report.golden.pixels()[i]);
    mse += diff * diff;
    matched += diff == 0.0 ? 1 : 0;
  }
  mse /= static_cast<double>(report.product.size());
  report.pixel_match =
      static_cast<double>(matched) / static_cast<double>(report.product.size());
  report.psnr_db =
      mse == 0.0
          ? kPsnrCap
          : std::min(kPsnrCap, 10.0 * std::log10(65535.0 * 65535.0 / mse));
  return report;
}

}  // namespace spacefts::downlink
