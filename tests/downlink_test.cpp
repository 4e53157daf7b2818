// Tests for the downlink module — Rice-compressed FITS HDUs and the
// end-to-end chain (preprocess → compress → frame → faulty link → product).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "spacefts/common/random.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace dl = spacefts::downlink;
using spacefts::common::Image;

namespace {

Image<std::uint16_t> smooth_image(std::uint64_t seed) {
  spacefts::datagen::NgstSimulator sim(seed);
  return sim.base_scene({});
}

}  // namespace

TEST(CompressedHdu, RoundtripRestoresImageExactly) {
  const auto img = smooth_image(1);
  const auto hdu = dl::make_compressed_hdu(img);
  EXPECT_TRUE(dl::is_compressed_hdu(hdu));
  EXPECT_EQ(dl::read_compressed_hdu(hdu), img);
}

TEST(CompressedHdu, AchievesCompressionOnSmoothData) {
  const auto img = smooth_image(2);
  const auto hdu = dl::make_compressed_hdu(img);
  // Uncompressed bytes / stored bytes.
  EXPECT_GT(static_cast<double>(img.size() * 2) /
                static_cast<double>(hdu.data.size()),
            1.3);
}

TEST(CompressedHdu, KeywordsDescribeTheStream) {
  const auto img = smooth_image(3);
  const auto hdu = dl::make_compressed_hdu(img);
  EXPECT_EQ(hdu.header.get_int("BITPIX"), 8);
  EXPECT_EQ(hdu.header.get_int("NAXIS"), 1);
  EXPECT_EQ(hdu.header.get_int("NAXIS1"),
            static_cast<std::int64_t>(hdu.data.size()));
  EXPECT_EQ(hdu.header.get_int("ZNAXIS1"),
            static_cast<std::int64_t>(img.width()));
  EXPECT_EQ(hdu.header.get_string("ZCMPTYPE"), "RICE_1");
}

TEST(CompressedHdu, SurvivesFitsFileSerialization) {
  // The compressed HDU must be a legal FITS citizen: serialize the whole
  // file, parse it back, decompress.
  const auto img = smooth_image(4);
  spacefts::fits::FitsFile file;
  file.hdus().push_back(dl::make_compressed_hdu(img));
  const auto bytes = file.serialize();
  const auto parsed = spacefts::fits::FitsFile::parse(bytes);
  ASSERT_EQ(parsed.hdus().size(), 1u);
  EXPECT_EQ(dl::read_compressed_hdu(parsed.hdus()[0]), img);
}

TEST(CompressedHdu, RejectsPlainHdus) {
  const auto plain = spacefts::fits::make_image_hdu(smooth_image(5));
  EXPECT_FALSE(dl::is_compressed_hdu(plain));
  EXPECT_THROW((void)dl::read_compressed_hdu(plain), spacefts::fits::FitsError);
}

TEST(CompressedHdu, DamagedGeometryThrows) {
  auto hdu = dl::make_compressed_hdu(smooth_image(6));
  hdu.header.set_int("ZNAXIS2", -4);
  EXPECT_THROW((void)dl::read_compressed_hdu(hdu), spacefts::fits::FitsError);
}

TEST(CompressedHdu, TruncatedStreamThrows) {
  auto hdu = dl::make_compressed_hdu(smooth_image(7));
  hdu.data.shrink(hdu.data.size() / 4);
  EXPECT_THROW((void)dl::read_compressed_hdu(hdu), spacefts::fits::FitsError);
}

TEST(CompressedHdu, ExtensionFormCarriesXtension) {
  const auto hdu = dl::make_compressed_hdu(smooth_image(8), /*primary=*/false);
  EXPECT_EQ(hdu.header.get_string("XTENSION"), "IMAGE");
  EXPECT_EQ(dl::read_compressed_hdu(hdu), smooth_image(8));
}

TEST(CompressedHdu, RejectsEmptyImage) {
  EXPECT_THROW((void)dl::make_compressed_hdu(Image<std::uint16_t>()),
               spacefts::fits::FitsError);
  EXPECT_THROW((void)dl::make_compressed_hdu(Image<std::uint16_t>(0, 5)),
               spacefts::fits::FitsError);
}

TEST(CompressedHdu, HugeZnaxisClaimThrowsInsteadOfAllocating) {
  // A corrupted header claiming an exabyte image must be refused by the
  // geometry-vs-stream bound, not handed to the allocator.
  auto hdu = dl::make_compressed_hdu(smooth_image(9));
  hdu.header.set_int("ZNAXIS1", std::int64_t{1} << 31);
  hdu.header.set_int("ZNAXIS2", std::int64_t{1} << 31);
  EXPECT_THROW((void)dl::read_compressed_hdu(hdu), spacefts::fits::FitsError);
}

// ---- downlink frames -------------------------------------------------------

TEST(DownlinkFrame, RoundtripRestoresPayload) {
  spacefts::common::Rng rng(11);
  for (const std::size_t length : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::uint8_t> payload(length);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    const auto frame = dl::protect_frame(payload);
    const auto back = dl::recover_frame(frame);
    ASSERT_TRUE(back.has_value()) << "length " << length;
    EXPECT_EQ(*back, payload);
  }
}

TEST(DownlinkFrame, EverySingleBitFlipIsRepaired) {
  // Every flip in the data and parity region corrects; the 4-byte CRC
  // trailer is the integrity gate itself, so damage there loses the frame
  // (an erasure, covered by TruncationAndGarbageReturnNullopt) rather than
  // recovering it.
  std::vector<std::uint8_t> payload(96);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const auto frame = dl::protect_frame(payload);
  for (std::size_t bit = 0; bit < (frame.size() - 4) * 8; ++bit) {
    auto damaged = frame;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    std::size_t corrected = 0;
    const auto back = dl::recover_frame(damaged, &corrected);
    ASSERT_TRUE(back.has_value()) << "flip at bit " << bit;
    EXPECT_EQ(*back, payload) << "flip at bit " << bit;
  }
}

TEST(DownlinkFrame, TruncationAndGarbageReturnNullopt) {
  const std::vector<std::uint8_t> payload(64, 0xA5);
  auto frame = dl::protect_frame(payload);
  frame.resize(frame.size() / 2);
  EXPECT_FALSE(dl::recover_frame(frame).has_value());
  EXPECT_FALSE(dl::recover_frame(std::vector<std::uint8_t>{}).has_value());
  EXPECT_FALSE(
      dl::recover_frame(std::vector<std::uint8_t>(13, 0xFF)).has_value());
}

TEST(DownlinkFrame, FrameBytesArePinned) {
  // Frame digests recorded from the byte-at-a-time CRC-32 and per-bit
  // Hamming parity before the table-driven rewrite: the wire format (length
  // word, zero padding, parity bytes, CRC trailer) must not drift.  The
  // trailer is the CRC-32 of everything before it, so pinning it (and the
  // frame length) pins every byte.  The lengths cover an empty payload,
  // payloads that end on and off a word boundary after the 4-byte length
  // word, and multi-word frames.
  struct Pin {
    std::size_t length;
    std::size_t frame_bytes;
    std::uint32_t trailer;
  };
  const Pin pins[] = {
      {0, 13, 0xe60914aeu},     {1, 13, 0x1bda4f9bu},
      {3, 13, 0x461c074au},     {4, 13, 0xf2cdaedbu},
      {5, 22, 0x9e4fab5cu},     {12, 22, 0x5855f1a9u},
      {100, 121, 0xc68e87ffu},  {1000, 1138, 0x006dbbf7u},
      {4099, 4621, 0x063638a7u}};
  spacefts::common::Rng rng(0xF4A3E);
  for (const auto& pin : pins) {
    std::vector<std::uint8_t> payload(pin.length);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    const auto frame = dl::protect_frame(payload);
    ASSERT_EQ(frame.size(), pin.frame_bytes) << "length " << pin.length;
    const auto trailer = spacefts::edac::crc32(
        std::span(frame).first(frame.size() - 4));
    EXPECT_EQ(trailer, pin.trailer)
        << "length " << pin.length << " 0x" << std::hex << trailer;
    EXPECT_TRUE(spacefts::edac::frame_verify(frame)) << "length " << pin.length;
    const auto back = dl::recover_frame(frame);
    ASSERT_TRUE(back.has_value()) << "length " << pin.length;
    EXPECT_EQ(*back, payload);
  }
}

// ---- the end-to-end chain --------------------------------------------------

namespace {

dl::ChainConfig small_chain(dl::ChainWorkload workload) {
  dl::ChainConfig config;
  config.workload = workload;
  config.side = 16;
  config.frames = 8;
  config.tile_rows = 4;
  config.seed = 99;
  return config;
}

}  // namespace

TEST(DownlinkChain, CleanChainReproducesGoldenBitExact) {
  for (const auto workload :
       {dl::ChainWorkload::kNgstImage, dl::ChainWorkload::kTelemetry}) {
    const auto report = dl::run_chain(small_chain(workload));
    EXPECT_EQ(report.product, report.golden);
    EXPECT_EQ(report.psnr_db, dl::kPsnrCap);
    EXPECT_EQ(report.pixel_match, 1.0);
    EXPECT_EQ(report.tiles_degraded, 0u);
    EXPECT_GT(report.compression_ratio, 1.0);
  }
}

TEST(DownlinkChain, CodecAndFramingRecordLibrarySpans) {
  namespace st = spacefts::telemetry;
  if (!st::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  st::reset();
  st::set_enabled(true);
  const auto report = dl::run_chain(small_chain(dl::ChainWorkload::kTelemetry));
  st::set_enabled(false);
  std::map<std::string, std::size_t> spans;
  for (const auto& span : st::collect()) ++spans[span.name];
  st::reset();
  // A clean link: every tile is compressed, framed, deframed and
  // decompressed exactly once.
  ASSERT_EQ(report.tiles_degraded, 0u);
  const std::size_t tiles = spans["downlink.compress"];
  EXPECT_GT(tiles, 1u);
  EXPECT_EQ(spans["downlink.frame"], tiles);
  EXPECT_EQ(spans["downlink.deframe"], tiles);
  EXPECT_EQ(spans["downlink.decompress"], tiles);
}

TEST(DownlinkChain, DeterministicAcrossThreadCounts) {
  auto config = small_chain(dl::ChainWorkload::kNgstImage);
  config.gamma0 = 0.002;
  config.link.drop_prob = 0.2;
  config.link.corrupt_prob = 0.2;
  config.threads = 1;
  const auto serial = dl::run_chain(config);
  config.threads = 4;
  const auto parallel = dl::run_chain(config);
  EXPECT_EQ(serial.product, parallel.product);
  EXPECT_EQ(serial.psnr_db, parallel.psnr_db);
  EXPECT_EQ(serial.frames_dropped, parallel.frames_dropped);
}

TEST(DownlinkChain, DeadLinkDegradesEveryTileWithoutCrashing) {
  auto config = small_chain(dl::ChainWorkload::kNgstImage);
  config.link.drop_prob = 1.0;
  const auto report = dl::run_chain(config);
  EXPECT_EQ(report.tiles_degraded, report.tiles);
  EXPECT_EQ(report.frames_dropped, report.tiles);
  EXPECT_LT(report.pixel_match, 1.0);
}

TEST(DownlinkChain, TelemetryProductIsChannelBySampleMatrix) {
  auto config = small_chain(dl::ChainWorkload::kTelemetry);
  config.side = 12;   // channels
  config.frames = 20;  // samples
  const auto report = dl::run_chain(config);
  EXPECT_EQ(report.product.width(), 12u);
  EXPECT_EQ(report.product.height(), 20u);
}

TEST(DownlinkChain, PreprocessingDominatesUnderMemoryFaults) {
  auto config = small_chain(dl::ChainWorkload::kNgstImage);
  config.gamma0 = 0.002;
  const auto on = dl::run_chain(config);
  config.preprocess = false;
  const auto off = dl::run_chain(config);
  EXPECT_GE(on.psnr_db, off.psnr_db);
  EXPECT_GE(on.pixel_match, off.pixel_match);
  EXPECT_GT(on.pixels_corrected, 0u);
  EXPECT_EQ(off.pixels_corrected, 0u);
  EXPECT_EQ(on.memory_bits_flipped, off.memory_bits_flipped);
}

TEST(DownlinkChain, RejectsInvalidConfigs) {
  auto config = small_chain(dl::ChainWorkload::kNgstImage);
  config.frames = 2;
  EXPECT_THROW((void)dl::run_chain(config), std::invalid_argument);
  config = small_chain(dl::ChainWorkload::kNgstImage);
  config.lambda = 101.0;
  EXPECT_THROW((void)dl::run_chain(config), std::invalid_argument);
  config = small_chain(dl::ChainWorkload::kNgstImage);
  config.gamma0 = 1.5;
  EXPECT_THROW((void)dl::run_chain(config), std::invalid_argument);
  config = small_chain(dl::ChainWorkload::kNgstImage);
  config.tile_rows = 0;
  EXPECT_THROW((void)dl::run_chain(config), std::invalid_argument);
}
