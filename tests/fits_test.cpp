// Unit tests for spacefts::fits — cards, headers, HDUs, image round-trips,
// and the Λ=0 header sanity checker.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "spacefts/fits/fits.hpp"
#include "spacefts/fits/sanity.hpp"

namespace ff = spacefts::fits;
using spacefts::common::Image;

// ----------------------------------------------------------------------- Card

TEST(Card, EncodeIs80Chars) {
  ff::Card card{"BITPIX", "16", "bits per value"};
  EXPECT_EQ(card.encode().size(), ff::kCardSize);
}

TEST(Card, EncodeDecodeRoundtripInt) {
  ff::Card card{"NAXIS1", "1024", "axis"};
  const auto decoded = ff::Card::decode(card.encode());
  EXPECT_EQ(decoded.keyword, "NAXIS1");
  EXPECT_EQ(decoded.value, "1024");
  EXPECT_EQ(decoded.comment, "axis");
}

TEST(Card, EncodeDecodeRoundtripString) {
  ff::Card card{"XTENSION", "'IMAGE   '", "type"};
  const auto decoded = ff::Card::decode(card.encode());
  EXPECT_EQ(decoded.keyword, "XTENSION");
  EXPECT_EQ(decoded.value, "'IMAGE   '");
}

TEST(Card, CommentaryCardsPreserved) {
  ff::Card card{"COMMENT", "", "anything goes here"};
  const auto decoded = ff::Card::decode(card.encode());
  EXPECT_EQ(decoded.keyword, "COMMENT");
  EXPECT_EQ(decoded.comment, "anything goes here");
}

TEST(Card, DecodeNeverThrowsOnGarbage) {
  EXPECT_NO_THROW((void)ff::Card::decode("\x01\x02garbage without structure"));
  EXPECT_NO_THROW((void)ff::Card::decode(""));
  EXPECT_NO_THROW((void)ff::Card::decode(std::string(80, '\xFF')));
}

// --------------------------------------------------------------------- Header

TEST(Header, TypedSettersAndGetters) {
  ff::Header h;
  h.set_logical("SIMPLE", true);
  h.set_int("BITPIX", 16);
  h.set_double("BZERO", 32768.0);
  h.set_string("ORIGIN", "UMASS");
  EXPECT_EQ(h.get_logical("SIMPLE"), true);
  EXPECT_EQ(h.get_int("BITPIX"), 16);
  EXPECT_EQ(h.get_double("BZERO"), 32768.0);
  EXPECT_EQ(h.get_string("ORIGIN"), "UMASS");
}

TEST(Header, GettersReturnNulloptOnMissingOrWrongType) {
  ff::Header h;
  h.set_string("NAME", "X");
  EXPECT_FALSE(h.get_int("ABSENT").has_value());
  EXPECT_FALSE(h.get_int("NAME").has_value());
  EXPECT_FALSE(h.get_logical("NAME").has_value());
}

TEST(Header, SetReplacesExistingKeyword) {
  ff::Header h;
  h.set_int("NAXIS", 2);
  h.set_int("NAXIS", 3);
  EXPECT_EQ(h.get_int("NAXIS"), 3);
  EXPECT_EQ(h.cards().size(), 1u);
}

TEST(Header, KeywordsAreCaseInsensitiveOnSet) {
  ff::Header h;
  h.set_int("bitpix", 16);
  EXPECT_EQ(h.get_int("BITPIX"), 16);
  EXPECT_TRUE(h.contains("BitPix"));
}

TEST(Header, EraseRemoves) {
  ff::Header h;
  h.set_int("NAXIS", 2);
  h.erase("NAXIS");
  EXPECT_FALSE(h.contains("NAXIS"));
}

TEST(Header, SerializeIsBlockAligned) {
  ff::Header h;
  h.set_logical("SIMPLE", true);
  const auto bytes = h.serialize();
  EXPECT_EQ(bytes.size() % ff::kBlockSize, 0u);
  EXPECT_EQ(bytes.size(), ff::kBlockSize);
}

TEST(Header, SerializeParseRoundtrip) {
  ff::Header h;
  h.set_logical("SIMPLE", true);
  h.set_int("BITPIX", 16);
  h.set_int("NAXIS", 2);
  h.set_int("NAXIS1", 128);
  h.set_int("NAXIS2", 128);
  h.set_string("TELESCOP", "NGST");
  const auto bytes = h.serialize();
  std::size_t offset = 0;
  const auto parsed = ff::Header::parse(bytes, offset);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(parsed.get_int("BITPIX"), 16);
  EXPECT_EQ(parsed.get_int("NAXIS2"), 128);
  EXPECT_EQ(parsed.get_string("TELESCOP"), "NGST");
}

TEST(Header, ParseWithoutEndThrows) {
  std::vector<std::uint8_t> junk(ff::kBlockSize, ' ');
  std::size_t offset = 0;
  EXPECT_THROW((void)ff::Header::parse(junk, offset), ff::FitsError);
}

TEST(Header, StringWithEmbeddedQuotesRoundtrips) {
  ff::Header h;
  h.set_string("OBSERVER", "O'Neill's run");
  EXPECT_EQ(h.get_string("OBSERVER"), "O'Neill's run");
  const auto bytes = h.serialize();
  std::size_t offset = 0;
  const auto parsed = ff::Header::parse(bytes, offset);
  EXPECT_EQ(parsed.get_string("OBSERVER"), "O'Neill's run");
}

TEST(Header, ScientificNotationDoubles) {
  ff::Header h;
  h.set_double("EXPTIME", 1.5e-7);
  h.set_double("BIGVAL", 2.75e18);
  EXPECT_NEAR(h.get_double("EXPTIME").value(), 1.5e-7, 1e-16);
  EXPECT_NEAR(h.get_double("BIGVAL").value(), 2.75e18, 1e9);
  const auto bytes = h.serialize();
  std::size_t offset = 0;
  const auto parsed = ff::Header::parse(bytes, offset);
  EXPECT_NEAR(parsed.get_double("EXPTIME").value(), 1.5e-7, 1e-16);
}

TEST(Header, CommentaryCardsAccumulate) {
  ff::Header h;
  h.set(ff::Card{"COMMENT", "", "first"});
  h.set(ff::Card{"COMMENT", "", "second"});
  EXPECT_EQ(h.cards().size(), 2u);  // commentary never replaces
}

TEST(Header, NegativeIntegers) {
  ff::Header h;
  h.set_int("BITPIX", -32);
  EXPECT_EQ(h.get_int("BITPIX"), -32);
  const auto bytes = h.serialize();
  std::size_t offset = 0;
  EXPECT_EQ(ff::Header::parse(bytes, offset).get_int("BITPIX"), -32);
}

// ----------------------------------------------------------------- image HDUs

TEST(ImageHdu, U16Roundtrip) {
  Image<std::uint16_t> img(8, 4);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 8; ++x) {
      img(x, y) = static_cast<std::uint16_t>(1000 * y + x);
    }
  }
  img(7, 3) = 65535;  // extremes must survive the BZERO offset encoding
  img(0, 0) = 0;
  const auto hdu = ff::make_image_hdu(img);
  const auto back = ff::read_image_u16(hdu);
  EXPECT_EQ(back, img);
}

TEST(ImageHdu, U16IsBigEndianWithOffset) {
  Image<std::uint16_t> img(1, 1);
  img(0, 0) = 32768;  // stored as 0 after BZERO
  const auto hdu = ff::make_image_hdu(img);
  ASSERT_EQ(hdu.data.size(), 2u);
  EXPECT_EQ(hdu.data[0], 0u);
  EXPECT_EQ(hdu.data[1], 0u);
}

TEST(ImageHdu, F32Roundtrip) {
  Image<float> img(3, 3);
  img(0, 0) = 1.5f;
  img(1, 1) = -2.25e-3f;
  img(2, 2) = 3.0e20f;
  const auto hdu = ff::make_float_hdu(img);
  const auto back = ff::read_image_f32(hdu);
  EXPECT_EQ(back, img);
}

TEST(ImageHdu, ReadersValidateHeader) {
  Image<std::uint16_t> img(2, 2, 7);
  auto hdu = ff::make_image_hdu(img);
  hdu.header.set_int("BITPIX", -32);
  EXPECT_THROW((void)ff::read_image_u16(hdu), ff::FitsError);
}

TEST(ImageHdu, ReadersValidatePayloadSize) {
  Image<std::uint16_t> img(4, 4, 7);
  auto hdu = ff::make_image_hdu(img);
  hdu.data.resize(10);  // truncated
  EXPECT_THROW((void)ff::read_image_u16(hdu), ff::FitsError);
  // Axes whose product wraps size_t must not pass the length check.
  hdu.header.set_int("NAXIS1", std::int64_t{1} << 32);
  hdu.header.set_int("NAXIS2", std::int64_t{1} << 31);
  EXPECT_THROW((void)ff::read_image_u16(hdu), ff::FitsError);
}

namespace {

/// The double/lround decode formula read_image_u16 used before its integer
/// loop; the differential test below holds the integer loop to it.
std::uint16_t double_formula(std::int16_t stored, double bzero) {
  const double physical = static_cast<double>(stored) + bzero;
  if (physical <= 0) return 0;
  if (physical >= 65535.0) return 65535;
  return static_cast<std::uint16_t>(std::lround(physical));
}

}  // namespace

TEST(Fits, ReadImageU16MatchesDoubleFormula) {
  // A 256x256 image whose stored words are every 16-bit pattern once.
  auto hdu = ff::make_image_hdu(Image<std::uint16_t>(256, 256));
  for (std::size_t k = 0; k < 65536; ++k) {
    hdu.data[2 * k] = static_cast<std::uint8_t>(k >> 8);
    hdu.data[2 * k + 1] = static_cast<std::uint8_t>(k & 0xFF);
  }
  for (const double bzero : {0.0, 32768.0, -7.0, 40000.0, 1e6, -1e6}) {
    hdu.header.set_double("BZERO", bzero);
    const auto image = ff::read_image_u16(hdu);
    std::vector<std::uint16_t> plane(65536);
    ff::read_image_u16(hdu, plane);
    for (std::size_t k = 0; k < 65536; ++k) {
      const auto stored = static_cast<std::int16_t>(static_cast<std::uint16_t>(k));
      ASSERT_EQ(image.pixels()[k], double_formula(stored, bzero))
          << "bzero " << bzero << " stored " << stored;
      ASSERT_EQ(plane[k], image.pixels()[k]);
    }
  }
  std::vector<std::uint16_t> wrong_size(65535);
  EXPECT_THROW(ff::read_image_u16(hdu, wrong_size), ff::FitsError);
}

TEST(Fits, ReadImageU16RejectsNonFiniteOrFractionalBzero) {
  auto hdu = ff::make_image_hdu(Image<std::uint16_t>(2, 2, 7));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bzero : {std::numeric_limits<double>::quiet_NaN(), inf,
                             -inf, 32768.5}) {
    hdu.header.set_double("BZERO", bzero);
    ASSERT_TRUE(hdu.header.get_double("BZERO").has_value());
    EXPECT_THROW((void)ff::read_image_u16(hdu), ff::FitsError) << bzero;
    std::vector<std::uint16_t> plane(4);
    EXPECT_THROW(ff::read_image_u16(hdu, plane), ff::FitsError) << bzero;
  }
}

// ------------------------------------------------------------------- FitsFile

TEST(FitsFile, MultiHduRoundtrip) {
  ff::FitsFile file;
  Image<std::uint16_t> primary(16, 16, 500);
  Image<float> ext(8, 8, 1.25f);
  file.hdus().push_back(ff::make_image_hdu(primary, /*primary=*/true));
  file.hdus().push_back(ff::make_float_hdu(ext, /*primary=*/false));
  const auto bytes = file.serialize();
  EXPECT_EQ(bytes.size() % ff::kBlockSize, 0u);

  const auto parsed = ff::FitsFile::parse(bytes);
  ASSERT_EQ(parsed.hdus().size(), 2u);
  EXPECT_EQ(ff::read_image_u16(parsed.hdus()[0]), primary);
  EXPECT_EQ(ff::read_image_f32(parsed.hdus()[1]), ext);
  EXPECT_EQ(parsed.hdus()[1].header.get_string("XTENSION"), "IMAGE");
}

TEST(FitsFile, ParseEmptyThrows) {
  EXPECT_THROW((void)ff::FitsFile::parse({}), ff::FitsError);
}

TEST(FitsFile, ParseTruncatedDataThrows) {
  ff::FitsFile file;
  file.hdus().push_back(ff::make_image_hdu(Image<std::uint16_t>(64, 64)));
  auto bytes = file.serialize();
  bytes.resize(ff::kBlockSize + 100);  // header block + partial data
  EXPECT_THROW((void)ff::FitsFile::parse(bytes), ff::FitsError);
}

// --------------------------------------------------------------------- sanity

namespace {
ff::Hdu clean_hdu() {
  Image<std::uint16_t> img(128, 128, 1000);
  return ff::make_image_hdu(img);
}
}  // namespace

TEST(Sanity, CleanHeaderPasses) {
  auto hdu = clean_hdu();
  const auto report = ff::check_and_repair(hdu);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.fully_repaired());
}

TEST(Sanity, LegalBitpixSet) {
  for (std::int64_t v : {8, 16, 32, 64, -32, -64}) {
    EXPECT_TRUE(ff::is_legal_bitpix(v));
  }
  for (std::int64_t v : {0, 1, 15, -16, 128}) {
    EXPECT_FALSE(ff::is_legal_bitpix(v));
  }
}

TEST(Sanity, RepairsIllegalBitpixFromExpectation) {
  auto hdu = clean_hdu();
  // Simulate the §2.2.1 scenario: a bit flip turned BITPIX=16 into garbage.
  hdu.header.set_int("BITPIX", 17);
  ff::ImageExpectation expected;
  expected.bitpix = 16;
  const auto report = ff::check_and_repair(hdu, expected);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(hdu.header.get_int("BITPIX"), 16);
}

TEST(Sanity, RepairsIllegalBitpixFromPayloadSize) {
  auto hdu = clean_hdu();
  hdu.header.set_int("BITPIX", 1024);  // damaged, no expectation given
  const auto report = ff::check_and_repair(hdu);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(hdu.header.get_int("BITPIX"), 16);
}

TEST(Sanity, RepairsNaxisOutOfRange) {
  auto hdu = clean_hdu();
  hdu.header.set_int("NAXIS", 20482);  // flipped high bit
  const auto report = ff::check_and_repair(hdu);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(hdu.header.get_int("NAXIS"), 2);
}

TEST(Sanity, RepairsAxisFromExpectation) {
  auto hdu = clean_hdu();
  hdu.header.set_int("NAXIS1", 128 + 4096);  // one flipped bit
  ff::ImageExpectation expected;
  expected.width = 128;
  expected.height = 128;
  const auto report = ff::check_and_repair(hdu, expected);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(hdu.header.get_int("NAXIS1"), 128);
}

TEST(Sanity, RepairsAxisFromPayloadSizeWithoutExpectation) {
  auto hdu = clean_hdu();
  hdu.header.set_int("NAXIS2", 96);  // contradicts the 128x128 payload
  const auto report = ff::check_and_repair(hdu);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(hdu.header.get_int("NAXIS2"), 128);
}

TEST(Sanity, RepairsSimpleFalse) {
  auto hdu = clean_hdu();
  hdu.header.set_logical("SIMPLE", false);
  const auto report = ff::check_and_repair(hdu);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(hdu.header.get_logical("SIMPLE"), true);
}

TEST(Sanity, RepairsBzero) {
  auto hdu = clean_hdu();
  hdu.header.set_double("BZERO", 32896.0);  // flipped bit in the offset
  const auto report = ff::check_and_repair(hdu);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(hdu.header.get_double("BZERO"), 32768.0);
}

TEST(Sanity, ReportsUnrepairableGeometry) {
  auto hdu = clean_hdu();
  // Both axes damaged with no expectation: payload can't pin both down.
  hdu.header.set_int("NAXIS1", 100);
  hdu.header.set_int("NAXIS2", 100);
  const auto report = ff::check_and_repair(hdu);
  EXPECT_FALSE(report.clean());
}

TEST(Sanity, RepairedFileParsesAgain) {
  // End-to-end: damage a serialized file's header keyword, repair, re-read.
  ff::FitsFile file;
  Image<std::uint16_t> img(32, 32, 123);
  file.hdus().push_back(ff::make_image_hdu(img));
  file.hdus()[0].header.set_int("BITPIX", 12345);
  ff::ImageExpectation expected;
  expected.bitpix = 16;
  expected.width = 32;
  expected.height = 32;
  const auto report = ff::check_and_repair(file.hdus()[0], expected);
  EXPECT_TRUE(report.fully_repaired());
  const auto parsed = ff::FitsFile::parse(file.serialize());
  EXPECT_EQ(ff::read_image_u16(parsed.hdus()[0]), img);
}
