// Unit tests for spacefts::fits — cards, headers, HDUs, image round-trips,
// and the Λ=0 header sanity checker.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "spacefts/fits/fits.hpp"
#include "spacefts/fits/io.hpp"
#include "spacefts/fits/sanity.hpp"
#include "readout_bank.hpp"

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
  EXPECT_EQ(h.size(), 1u);
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

TEST(Header, CopiesChangeApart) {
  // Copies share their card images until one of them changes.
  const ff::Header original = ff::image_u16_header(32, 32, false);
  ff::Header copy = original;
  EXPECT_EQ(copy, original);
  copy.set_int("NAXIS1", 64);
  copy.erase("BSCALE");
  EXPECT_EQ(original.get_int("NAXIS1"), 32);
  EXPECT_TRUE(original.contains("BSCALE"));
  EXPECT_EQ(copy.get_int("NAXIS1"), 64);
  EXPECT_FALSE(copy.contains("BSCALE"));
  EXPECT_NE(copy, original);
  copy.set_int("NAXIS1", 32, "axis 1 length");
  copy.set_double("BSCALE", 1.0, "default scaling");
  EXPECT_EQ(copy, original);  // equal images, held apart
  // The original changes apart from a copy too, and from a moved copy.
  ff::Header source = original;
  const ff::Header kept = source;
  ff::Header moved = std::move(source);
  moved.set_int("NAXIS2", 7);
  EXPECT_EQ(kept, original);
  EXPECT_EQ(moved.get_int("NAXIS2"), 7);
  EXPECT_EQ(ff::Header(), ff::Header());
}

TEST(Header, CommentaryCardsAccumulate) {
  ff::Header h;
  h.set(ff::Card{"COMMENT", "", "first"});
  h.set(ff::Card{"COMMENT", "", "second"});
  EXPECT_EQ(h.size(), 2u);  // commentary never replaces
}

TEST(Header, NegativeIntegers) {
  ff::Header h;
  h.set_int("BITPIX", -32);
  EXPECT_EQ(h.get_int("BITPIX"), -32);
  const auto bytes = h.serialize();
  std::size_t offset = 0;
  EXPECT_EQ(ff::Header::parse(bytes, offset).get_int("BITPIX"), -32);
}

namespace ref {

// The decoded-card header this library kept before headers became card
// images: Card::decode plus the typed getters over decoded cards, copied
// here only so the card store can be held to it.
std::string_view trim(std::string_view s) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

std::string upper(std::string s) {
  for (auto& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

bool is_commentary(std::string_view k) {
  return k == "COMMENT" || k == "HISTORY" || k.empty();
}

ff::Card decode(std::string_view raw) {
  ff::Card card;
  card.keyword = std::string(trim(raw.substr(0, 8)));
  if (is_commentary(card.keyword) || raw.substr(8, 2) != "= ") {
    card.comment = std::string(trim(raw.substr(8)));
    return card;
  }
  std::string_view rest = raw.substr(10);
  if (!trim(rest).empty() && trim(rest).front() == '\'') {
    rest = trim(rest);
    std::size_t i = 1;
    while (i < rest.size()) {
      if (rest[i] == '\'') {
        if (i + 1 < rest.size() && rest[i + 1] == '\'') {
          i += 2;
          continue;
        }
        break;
      }
      ++i;
    }
    const std::size_t end = std::min(i + 1, rest.size());
    card.value = std::string(rest.substr(0, end));
    const std::string_view tail = rest.substr(end);
    if (const auto slash = tail.find('/'); slash != std::string_view::npos) {
      card.comment = std::string(trim(tail.substr(slash + 1)));
    }
  } else {
    const std::size_t slash = rest.find('/');
    card.value = std::string(trim(rest.substr(0, slash)));
    if (slash != std::string_view::npos) {
      card.comment = std::string(trim(rest.substr(slash + 1)));
    }
  }
  return card;
}

struct Header {
  std::vector<ff::Card> cards;

  const ff::Card* find(std::string_view keyword) const {
    const std::string key = upper(std::string(keyword));
    for (const auto& c : cards) {
      if (c.keyword == key) return &c;
    }
    return nullptr;
  }
  std::optional<bool> get_logical(std::string_view k) const {
    const ff::Card* c = find(k);
    if (!c) return std::nullopt;
    if (trim(c->value) == "T") return true;
    if (trim(c->value) == "F") return false;
    return std::nullopt;
  }
  std::optional<std::int64_t> get_int(std::string_view k) const {
    const ff::Card* c = find(k);
    if (!c) return std::nullopt;
    const std::string_view v = trim(c->value);
    std::int64_t out = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
    return out;
  }
  std::optional<double> get_double(std::string_view k) const {
    const ff::Card* c = find(k);
    if (!c) return std::nullopt;
    const std::string v{trim(c->value)};
    if (v.empty()) return std::nullopt;
    char* end = nullptr;
    const double out = std::strtod(v.c_str(), &end);
    if (end != v.c_str() + v.size()) return std::nullopt;
    return out;
  }
  std::optional<std::string> get_string(std::string_view k) const {
    const ff::Card* c = find(k);
    if (!c) return std::nullopt;
    std::string_view v = trim(c->value);
    if (v.size() < 2 || v.front() != '\'' || v.back() != '\'') {
      return std::nullopt;
    }
    v = v.substr(1, v.size() - 2);
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += v[i];
      if (v[i] == '\'' && i + 1 < v.size() && v[i + 1] == '\'') ++i;
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  }
};

}  // namespace ref

namespace {

/// Expects every getter of \p store and \p reference to agree on \p key
/// (NaN equal to NaN).
void expect_same_reads(const ff::Header& store, const ref::Header& reference,
                       const std::string& key) {
  SCOPED_TRACE("keyword '" + key + "'");
  EXPECT_EQ(store.contains(key), reference.find(key) != nullptr);
  EXPECT_EQ(store.get_logical(key), reference.get_logical(key));
  EXPECT_EQ(store.get_int(key), reference.get_int(key));
  EXPECT_EQ(store.get_string(key), reference.get_string(key));
  const auto a = store.get_double(key);
  const auto b = reference.get_double(key);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) {
    EXPECT_TRUE(*a == *b || (std::isnan(*a) && std::isnan(*b)));
  }
}

/// An 80-byte card image assembled from pieces that reach the corners of
/// the card grammar: lowercase, padded and tabbed keywords, blank keywords
/// with text, damaged value indicators, unterminated and doubled quotes,
/// '/' inside strings, and raw garbage.
std::string random_card(std::mt19937_64& rng) {
  static const std::vector<std::string> keys = {
      "BITPIX", "bitpix", "NAXIS1", " NAXIS1", "\tNAXIS\t", "BZERO", "",
      "COMMENT", "HISTORY", "XTENSION", "SIMPLE", "NaXiS2", "A B", "ENDX"};
  static const std::vector<std::string> indicators = {"= ", "= ", "= ", "=",
                                                      " =", "=\t", "  "};
  static const std::vector<std::string> values = {
      "16", "                  16", "-32", "+5", "1e3", "3.5", "T", "F",
      " T ", "\tT\t", "'IMAGE   '", "'O''Neill''s'", "'unterminated",
      "'a/b' / c", "''", "'''", "' '", "4 / axis", "NAN", "inf", "0x10",
      "\t42\t", "1.5E-07", "32768", "9223372036854775808", "'x' junk",
      "/ only a comment", "T / flag", "  'padded'  / c / d", "\t'tab/bed' / c",
      std::string("1\0002", 3)};
  std::uniform_int_distribution<int> byte(0, 255);
  const auto pick = [&](const std::vector<std::string>& pool) {
    return pool[rng() % pool.size()];
  };
  std::string card;
  if (rng() % 8 == 0) {
    for (int i = 0; i < 80; ++i) card += static_cast<char>(byte(rng));
  } else {
    std::string key = pick(keys);
    key.resize(8, ' ');
    card = key + pick(indicators) + pick(values);
    while (card.size() < 80) {
      card += rng() % 6 == 0 ? static_cast<char>(byte(rng)) : ' ';
    }
    card.resize(80);
  }
  // END would end the header; Header.EndIsFoundInATrimmedField covers it.
  if (ref::trim(std::string_view(card).substr(0, 8)) == "END") card[0] = 'X';
  return card;
}

}  // namespace

TEST(Header, CardStoreMatchesDecodeThenGet) {
  std::mt19937_64 rng(2003);
  const std::vector<std::string> fixed_keys = {
      "BITPIX", "bitpix", "NAXIS1", "NAXIS", "naxis2", "NAXIS2", "BZERO",
      "", "COMMENT", "HISTORY", "XTENSION", "SIMPLE", "A B", "ENDX",
      "TOOLONGKEYWORD"};
  for (int trial = 0; trial < 4000; ++trial) {
    std::string bytes;
    const int cards = 1 + static_cast<int>(rng() % 6);
    for (int c = 0; c < cards; ++c) {
      // Now and then an all-blank card (spaces and a tab), which parse drops.
      bytes += rng() % 10 == 0 ? std::string(79, ' ') + "\t" : random_card(rng);
    }
    bytes += std::string("END").append(77, ' ');
    std::vector<std::uint8_t> data(bytes.begin(), bytes.end());
    data.resize(ff::block_padded(data.size()), ' ');
    std::size_t offset = 0;
    const auto store = ff::Header::parse(data, offset);
    EXPECT_EQ(offset, data.size());

    ref::Header reference;
    for (std::size_t at = 0; at + 80 < bytes.size(); at += 80) {
      auto card = ref::decode(std::string_view(bytes).substr(at, 80));
      if (card.keyword.empty() && card.comment.empty()) continue;
      reference.cards.push_back(std::move(card));
    }
    ASSERT_EQ(store.size(), reference.cards.size());
    std::vector<std::string> keys = fixed_keys;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const auto decoded = ff::Card::decode(store.card(i));
      EXPECT_EQ(decoded.keyword, reference.cards[i].keyword);
      EXPECT_EQ(decoded.value, reference.cards[i].value);
      EXPECT_EQ(decoded.comment, reference.cards[i].comment);
      std::string lower = decoded.keyword;
      for (auto& ch : lower) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      keys.push_back(decoded.keyword);
      keys.push_back(lower);
    }
    for (const auto& key : keys) expect_same_reads(store, reference, key);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trial " << trial << ": header bytes '" << bytes << "'";
    }
  }
}

TEST(Header, SettersReadBackAsDecodedCards) {
  // For keywords of at most 8 characters and values that fit the card, the
  // setters read back what the decoded-card header kept for the same call.
  ff::Header store;
  ref::Header reference;
  const auto kept = [&](const std::string& key, const std::string& value,
                        const std::string& comment) {
    reference.cards.push_back(ff::Card{ref::upper(key), value, comment});
  };
  store.set_logical("simple", true, "conforms");
  kept("simple", "T", "conforms");
  store.set_int("BITPIX", -32, "bits / value");
  kept("BITPIX", "-32", "bits / value");
  store.set_int("NAXIS1", std::numeric_limits<std::int64_t>::min());
  kept("NAXIS1", "-9223372036854775808", "");
  store.set_double("BZERO", 32768.0, "offset");
  kept("BZERO", "32768", "offset");
  store.set_double("EXPTIME", 1.5e-7);
  kept("EXPTIME", "1.5E-07", "");
  store.set_double("BAD", std::numeric_limits<double>::quiet_NaN());
  kept("BAD", "NAN", "");
  store.set_string("OBSERVER", "O'Neill/a", "who");
  kept("OBSERVER", "'O''Neill/a'", "who");
  store.set_string("XTENSION", "IMAGE");
  kept("XTENSION", "'IMAGE   '", "");
  store.set(ff::Card{"COMMENT", "", "free text"});
  kept("COMMENT", "", "free text");
  ASSERT_EQ(store.size(), reference.cards.size());
  for (const auto& card : reference.cards) {
    expect_same_reads(store, reference, card.keyword);
  }
}

TEST(Header, SerializeAtBlockEdges) {
  // 35 cards + END fill one block exactly; with 36 END opens the second
  // block, with 37 it is that block's second card.  The bytes are each
  // card's encoding, END, and spaces to the block edge.
  for (const std::size_t n : {35u, 36u, 37u}) {
    ff::Header h;
    std::string expected;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string key = "KEY" + std::to_string(i);
      h.set_int(key, static_cast<std::int64_t>(i), "card");
      expected += ff::Card{key, std::to_string(i), "card"}.encode();
    }
    expected += std::string("END").append(77, ' ');
    expected.resize(ff::block_padded(expected.size()), ' ');
    const auto bytes = h.serialize();
    ASSERT_EQ(bytes.size(), n == 35 ? ff::kBlockSize : 2 * ff::kBlockSize);
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), expected) << n;
    std::size_t offset = 0;
    const auto parsed = ff::Header::parse(bytes, offset);
    EXPECT_EQ(offset, bytes.size());
    ASSERT_EQ(parsed.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(parsed.card(i), h.card(i));
  }
}

TEST(Header, EndIsFoundInATrimmedField) {
  for (const std::string field : {"END     ", "  END   ", "\tEND\t   "}) {
    ff::Header h;
    h.set_int("NAXIS", 0);
    auto bytes = h.serialize();
    std::copy(field.begin(), field.end(), bytes.begin() + 80);
    std::size_t offset = 0;
    EXPECT_EQ(ff::Header::parse(bytes, offset).size(), 1u);
    EXPECT_EQ(offset, ff::kBlockSize);
  }
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

TEST(ImageHdu, ReadersValidateHeader) {
  Image<std::uint16_t> img(2, 2, 7);
  auto hdu = ff::make_image_hdu(img);
  hdu.header.set_int("BITPIX", -32);
  EXPECT_THROW((void)ff::read_image_u16(hdu), ff::FitsError);
}

TEST(ImageHdu, LayoutDecodeChecksPayloadAndDestination) {
  const Image<std::uint16_t> img(8, 4, 1234);
  const auto hdu = ff::make_image_hdu(img);
  const ff::U16Layout layout = ff::image_u16_layout(hdu);
  EXPECT_EQ(layout.width, 8u);
  EXPECT_EQ(layout.height, 4u);
  EXPECT_EQ(layout.bzero, 32768);
  std::vector<std::uint16_t> out(img.size());
  ff::read_image_u16(hdu, layout, out);
  EXPECT_TRUE(std::ranges::equal(out, img.pixels()));
  // A layout never reads past the payload it is handed, nor writes past
  // the destination.
  auto short_hdu = hdu;
  short_hdu.data.shrink(8 * 4 * 2 - 1);
  EXPECT_THROW(ff::read_image_u16(short_hdu, layout, out), ff::FitsError);
  out.pop_back();
  EXPECT_THROW(ff::read_image_u16(hdu, layout, out), ff::FitsError);
}

TEST(ImageHdu, ReadersValidatePayloadSize) {
  Image<std::uint16_t> img(4, 4, 7);
  auto hdu = ff::make_image_hdu(img);
  hdu.data.shrink(10);  // truncated
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
  std::vector<std::uint8_t> words(2 * 65536);
  for (std::size_t k = 0; k < 65536; ++k) {
    words[2 * k] = static_cast<std::uint8_t>(k >> 8);
    words[2 * k + 1] = static_cast<std::uint8_t>(k & 0xFF);
  }
  hdu.data = ff::Payload(std::move(words));
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

namespace {

/// The message of the FitsError \p parse throws, or "" when it throws none.
template <typename F>
std::string fits_error_of(F&& parse) {
  try {
    parse();
  } catch (const ff::FitsError& e) {
    return e.what();
  }
  return "";
}

using readout_bank::describe;

}  // namespace

TEST(FitsFile, MultiHduRoundtrip) {
  ff::FitsFile file;
  Image<std::uint16_t> primary(16, 16, 500);
  file.hdus().push_back(ff::make_image_hdu(primary, /*primary=*/true));
  // An 8x8 BITPIX=-32 extension: parse carries it as an opaque data unit.
  ff::Hdu ext;
  ext.header.set_string("XTENSION", "IMAGE");
  ext.header.set_int("BITPIX", -32);
  ext.header.set_int("NAXIS", 2);
  ext.header.set_int("NAXIS1", 8);
  ext.header.set_int("NAXIS2", 8);
  ext.header.set_int("PCOUNT", 0);
  ext.header.set_int("GCOUNT", 1);
  std::vector<std::uint8_t> ext_bytes(8 * 8 * 4);
  for (std::size_t i = 0; i < ext_bytes.size(); ++i) {
    ext_bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  ext.data = ff::Payload(std::move(ext_bytes));
  file.hdus().push_back(ext);
  const auto bytes = file.serialize();
  EXPECT_EQ(bytes.size() % ff::kBlockSize, 0u);

  const auto parsed = ff::FitsFile::parse(bytes);
  ASSERT_EQ(parsed.hdus().size(), 2u);
  EXPECT_EQ(ff::read_image_u16(parsed.hdus()[0]), primary);
  EXPECT_TRUE(std::ranges::equal(parsed.hdus()[1].data, ext.data));
  EXPECT_EQ(parsed.hdus()[1].header.get_string("XTENSION"), "IMAGE");
  EXPECT_EQ(parsed.hdus()[1].header.get_int("BITPIX"), -32);
  EXPECT_THROW((void)ff::read_image_u16(parsed.hdus()[1]), ff::FitsError);
}

TEST(FitsFile, ParseEmptyThrows) {
  EXPECT_EQ(fits_error_of([] {
              (void)ff::FitsFile::parse(std::span<const std::uint8_t>{});
            }),
            "FitsFile::parse: empty input");
}

TEST(FitsFile, ParseTruncatedDataThrows) {
  ff::FitsFile file;
  file.hdus().push_back(ff::make_image_hdu(Image<std::uint16_t>(64, 64)));
  const auto whole = file.serialize();
  // Header block plus partial data, and the header block alone.
  for (const std::size_t keep : {ff::kBlockSize + 100, ff::kBlockSize}) {
    const std::vector<std::uint8_t> bytes(
        whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_EQ(fits_error_of([&] { (void)ff::FitsFile::parse(bytes); }),
              "FitsFile::parse: truncated data unit")
        << keep;
  }
}

TEST(FitsFile, ParseRejectsWrappingDataSize) {
  // BITPIX=16 with NAXIS1 = NAXIS2 = 2^32: the byte count 2^65 wraps to 0,
  // which must not pass for an empty data unit followed by the next HDU.
  ff::FitsFile file;
  file.hdus().push_back(ff::make_image_hdu(Image<std::uint16_t>(2, 2, 7)));
  file.hdus().push_back(
      ff::make_image_hdu(Image<std::uint16_t>(2, 2, 7), /*primary=*/false));
  file.hdus()[0].header.set_int("NAXIS1", std::int64_t{1} << 32);
  file.hdus()[0].header.set_int("NAXIS2", std::int64_t{1} << 32);
  file.hdus()[0].data = ff::Payload();
  const auto bytes = file.serialize();
  EXPECT_EQ(fits_error_of([&] { (void)ff::FitsFile::parse(bytes); }),
            "FitsFile::parse: cannot size data unit (damaged header?)");
}

TEST(FitsFile, HeaderRunsMatchOneHduFiles) {
  // A run of readouts with equal headers is parsed once; each readout must
  // still come out as it does parsed as its own file, through sanity and
  // decode, whatever one readout mid-run carries.
  for (const auto& c : readout_bank::cases()) {
    SCOPED_TRACE(c.name);
    const auto bank = readout_bank::bank_for(c);
    const auto want = readout_bank::oracle(bank);
    ff::FitsFile file;
    EXPECT_EQ(fits_error_of([&] { file = ff::FitsFile::parse(bank); }),
              want.parse_error);
    if (!want.parse_error.empty()) continue;
    ASSERT_EQ(file.hdus().size(), readout_bank::kReadouts);
    for (std::size_t t = 0; t < readout_bank::kReadouts; ++t) {
      auto& hdu = file.hdus()[t];
      const auto& r = want.readouts[t];
      ASSERT_EQ(hdu.header, r.parsed) << "readout " << t;
      ASSERT_EQ(hdu.data.data(), bank.data() + t * readout_bank::kStride +
                                     ff::kBlockSize)
          << "readout " << t;
      ASSERT_EQ(describe(ff::check_and_repair(hdu, readout_bank::expectation())),
                r.sanity)
          << "readout " << t;
      ASSERT_EQ(hdu.header, r.checked) << "readout " << t;
      ASSERT_EQ(hdu.data.size(), r.data_size) << "readout " << t;
      std::optional<Image<std::uint16_t>> image;
      ASSERT_EQ(fits_error_of([&] { image = ff::read_image_u16(hdu); }),
                r.decode_error)
          << "readout " << t;
      ASSERT_EQ(image, r.image) << "readout " << t;
    }
  }
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

TEST(Sanity, WrappingGeometryIsInconsistent) {
  // 2^32 x 2^32 16-bit pixels: the byte count wraps to the size of an
  // empty payload, which must not make the header consistent with it.
  auto hdu = clean_hdu();
  hdu.header.set_int("NAXIS1", std::int64_t{1} << 32);
  hdu.header.set_int("NAXIS2", std::int64_t{1} << 32);
  hdu.data = ff::Payload();
  EXPECT_EQ(describe(ff::check_and_repair(hdu)),
            "NAXIS2: axis repaired from payload size (repaired)\n"
            "NAXIS: header geometry inconsistent with payload size (open)\n");

  // A 2^61-pixel row of 64-bit pixels is 2^64 bytes, which wraps to 0:
  // it cannot tile the payload (nor divide it), so the other axis repairs.
  auto row = clean_hdu();
  row.header.set_int("BITPIX", 64);
  row.header.set_int("NAXIS1", std::int64_t{1} << 61);
  row.header.set_int("NAXIS2", 1);
  row.data.shrink(8);
  EXPECT_EQ(describe(ff::check_and_repair(row)),
            "NAXIS1: axis repaired from payload size (repaired)\n");
  EXPECT_EQ(row.header.get_int("NAXIS1"), 1);
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
  const auto bytes = file.serialize();
  const auto parsed = ff::FitsFile::parse(bytes);
  EXPECT_EQ(ff::read_image_u16(parsed.hdus()[0]), img);
}

// ------------------------------------------------------------ payload views

namespace {

/// Two 16x16 readouts, the first with NAXIS1 damaged 16 -> 48, as the wire
/// carries them: parse sizes readout 0 at 1,536 bytes, its 512 payload
/// bytes plus 1,024 bytes of its block's zero padding.
std::vector<std::uint8_t> padded_capture_bytes(
    const Image<std::uint16_t>& img) {
  ff::FitsFile file;
  file.hdus().push_back(ff::make_image_hdu(img));
  file.hdus().push_back(ff::make_image_hdu(img, /*primary=*/false));
  file.hdus()[0].header.set_int("NAXIS1", 16 ^ 0x20);
  return file.serialize();
}

ff::ImageExpectation expect_16x16() {
  ff::ImageExpectation expected;
  expected.bitpix = 16;
  expected.width = 16;
  expected.height = 16;
  return expected;
}

}  // namespace

TEST(Sanity, PaddingTrimShrinksTheView) {
  const Image<std::uint16_t> img(16, 16, 700);
  const auto bytes = padded_capture_bytes(img);
  const auto before = bytes;
  auto file = ff::FitsFile::parse(bytes);
  ASSERT_EQ(file.hdus().size(), 2u);
  auto& hdu = file.hdus()[0];
  ASSERT_EQ(hdu.data.size(), 48u * 16 * 2);
  const std::uint8_t* const start = hdu.data.data();

  const auto report = ff::check_and_repair(hdu, expect_16x16());
  EXPECT_EQ(describe(report),
            "NAXIS1: axis length contradicts expectation (repaired)\n"
            "NAXIS: data unit trimmed of parse-era padding (repaired)\n");
  EXPECT_EQ(hdu.data.size(), 16u * 16 * 2);
  EXPECT_EQ(hdu.data.data(), start);
  EXPECT_EQ(ff::read_image_u16(hdu), img);
  EXPECT_EQ(ff::read_image_u16(file.hdus()[1]), img);
  EXPECT_EQ(bytes, before);
}

TEST(Payload, MutationGoesThroughAnOwnedCopy) {
  // The CLI's corrupt verb: copy the payload, flip bits, own the result.
  const Image<std::uint16_t> img(16, 16, 700);
  const auto bytes = padded_capture_bytes(img);
  const auto before = bytes;
  auto file = ff::FitsFile::parse(bytes);
  auto& hdu = file.hdus()[1];
  std::vector<std::uint8_t> data(hdu.data.begin(), hdu.data.end());
  for (auto& b : data) b ^= 0x01;
  hdu.data = ff::Payload(std::move(data));

  EXPECT_EQ(bytes, before);
  auto flipped = img;
  for (auto& px : flipped.pixels()) px ^= 0x0101;
  EXPECT_EQ(ff::read_image_u16(hdu), flipped);
  // The copy is shared by every copy of the HDU, and outlives the file.
  const ff::Hdu kept = hdu;
  file = ff::FitsFile();
  EXPECT_EQ(ff::read_image_u16(kept), flipped);
}

TEST(Payload, ReadFileOutlivesItsBuffer) {
  const Image<std::uint16_t> img(16, 16, 700);
  const std::string path =
      ::testing::TempDir() + "payload_read_file_" +
      std::to_string(::getpid()) + ".fits";
  {
    ff::FitsFile file;
    file.hdus().push_back(ff::make_image_hdu(img));
    file.hdus().push_back(ff::make_image_hdu(img, /*primary=*/false));
    ff::write_file(path, file);
  }
  ff::Hdu kept;
  {
    const auto file = ff::read_file(path);
    ASSERT_EQ(file.hdus().size(), 2u);
    kept = file.hdus()[1];
  }
  std::remove(path.c_str());
  EXPECT_EQ(ff::read_image_u16(kept), img);
  EXPECT_EQ(kept.header.get_string("XTENSION"), "IMAGE");
}
