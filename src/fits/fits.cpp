#include "spacefts/fits/fits.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "spacefts/common/bitops.hpp"

namespace spacefts::fits {

namespace {

[[nodiscard]] std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

[[nodiscard]] bool is_commentary(std::string_view keyword) {
  return keyword == "COMMENT" || keyword == "HISTORY" || keyword.empty();
}

void pad_to_block(std::vector<std::uint8_t>& bytes, std::uint8_t fill) {
  while (bytes.size() % kBlockSize != 0) bytes.push_back(fill);
}

}  // namespace

// ---------------------------------------------------------------------- Card

std::string Card::encode() const {
  std::string out;
  out.reserve(kCardSize);
  if (is_commentary(keyword)) {
    out = keyword;
    out.resize(8, ' ');
    out += ' ';  // commentary cards have no value indicator
    out += comment;
  } else {
    out = keyword.substr(0, 8);
    out.resize(8, ' ');
    out += "= ";
    // Fixed format: right-justify non-string values to column 30.
    std::string v = value;
    if (!v.empty() && v.front() == '\'') {
      out += v;
    } else {
      if (v.size() < 20) v.insert(0, 20 - v.size(), ' ');
      out += v;
    }
    if (!comment.empty()) {
      out += " / ";
      out += comment;
    }
  }
  if (out.size() > kCardSize) out.resize(kCardSize);
  out.resize(kCardSize, ' ');
  return out;
}

Card Card::decode(std::string_view raw) {
  Card card;
  if (raw.size() > kCardSize) raw = raw.substr(0, kCardSize);
  const std::string_view key_field = raw.substr(0, std::min<std::size_t>(8, raw.size()));
  card.keyword = std::string(trim(key_field));
  if (is_commentary(card.keyword) || raw.size() < 10 || raw.substr(8, 2) != "= ") {
    card.comment = std::string(trim(raw.size() > 8 ? raw.substr(8) : ""));
    return card;
  }
  std::string_view rest = raw.substr(10);
  if (!rest.empty() && trim(rest).size() > 0 && trim(rest).front() == '\'') {
    // String value: find the closing quote (doubled quotes escape).
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
    std::string_view tail = rest.substr(end);
    const std::size_t slash = tail.find('/');
    if (slash != std::string_view::npos) {
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

// -------------------------------------------------------------------- Header

void Header::set(Card card) {
  card.keyword = upper(card.keyword);
  if (!is_commentary(card.keyword)) {
    for (auto& existing : cards_) {
      if (existing.keyword == card.keyword) {
        existing = std::move(card);
        return;
      }
    }
  }
  cards_.push_back(std::move(card));
}

void Header::set_logical(std::string_view keyword, bool value,
                         std::string_view comment) {
  set(Card{std::string(keyword), value ? "T" : "F", std::string(comment)});
}

void Header::set_int(std::string_view keyword, std::int64_t value,
                     std::string_view comment) {
  set(Card{std::string(keyword), std::to_string(value), std::string(comment)});
}

void Header::set_double(std::string_view keyword, double value,
                        std::string_view comment) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10G", value);
  set(Card{std::string(keyword), buf, std::string(comment)});
}

void Header::set_string(std::string_view keyword, std::string_view value,
                        std::string_view comment) {
  std::string quoted = "'";
  for (char c : value) {
    quoted += c;
    if (c == '\'') quoted += '\'';
  }
  // FITS strings are padded to at least 8 characters inside the quotes.
  while (quoted.size() < 9) quoted += ' ';
  quoted += '\'';
  set(Card{std::string(keyword), std::move(quoted), std::string(comment)});
}

namespace {
[[nodiscard]] const Card* find_card(std::span<const Card> cards,
                                    std::string_view keyword) {
  const std::string key = upper(keyword);
  for (const auto& c : cards) {
    if (c.keyword == key) return &c;
  }
  return nullptr;
}
}  // namespace

std::optional<bool> Header::get_logical(std::string_view keyword) const {
  const Card* c = find_card(cards_, keyword);
  if (!c) return std::nullopt;
  const std::string_view v = trim(c->value);
  if (v == "T") return true;
  if (v == "F") return false;
  return std::nullopt;
}

std::optional<std::int64_t> Header::get_int(std::string_view keyword) const {
  const Card* c = find_card(cards_, keyword);
  if (!c) return std::nullopt;
  const std::string_view v = trim(c->value);
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
  return out;
}

std::optional<double> Header::get_double(std::string_view keyword) const {
  const Card* c = find_card(cards_, keyword);
  if (!c) return std::nullopt;
  const std::string v{trim(c->value)};
  if (v.empty()) return std::nullopt;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) return std::nullopt;
  return out;
}

std::optional<std::string> Header::get_string(std::string_view keyword) const {
  const Card* c = find_card(cards_, keyword);
  if (!c) return std::nullopt;
  std::string_view v = trim(c->value);
  if (v.size() < 2 || v.front() != '\'' || v.back() != '\'') return std::nullopt;
  v = v.substr(1, v.size() - 2);
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += v[i];
    if (v[i] == '\'' && i + 1 < v.size() && v[i + 1] == '\'') ++i;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool Header::contains(std::string_view keyword) const {
  return find_card(cards_, keyword) != nullptr;
}

void Header::erase(std::string_view keyword) {
  const std::string key = upper(keyword);
  std::erase_if(cards_, [&](const Card& c) { return c.keyword == key; });
}

std::vector<std::uint8_t> Header::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve((cards_.size() + 1) * kCardSize);
  for (const auto& card : cards_) {
    const std::string enc = card.encode();
    out.insert(out.end(), enc.begin(), enc.end());
  }
  static constexpr std::string_view kEnd = "END";
  std::string end_card{kEnd};
  end_card.resize(kCardSize, ' ');
  out.insert(out.end(), end_card.begin(), end_card.end());
  pad_to_block(out, ' ');
  return out;
}

Header Header::parse(std::span<const std::uint8_t> data, std::size_t& offset) {
  Header header;
  bool found_end = false;
  while (offset + kCardSize <= data.size()) {
    const std::string_view raw(reinterpret_cast<const char*>(data.data() + offset),
                               kCardSize);
    offset += kCardSize;
    const std::string_view key = trim(raw.substr(0, 8));
    if (key == "END") {
      found_end = true;
      // Skip the rest of the current block.
      if (offset % kBlockSize != 0) {
        offset += kBlockSize - offset % kBlockSize;
      }
      break;
    }
    Card card = Card::decode(raw);
    if (card.keyword.empty() && card.comment.empty()) continue;  // blank card
    header.cards_.push_back(std::move(card));
  }
  if (!found_end) throw FitsError("Header::parse: no END card");
  return header;
}

// ------------------------------------------------------------------ FitsFile

namespace {

/// Payload size in bytes implied by BITPIX/NAXISn, or nullopt if the header
/// is too damaged to tell.
[[nodiscard]] std::optional<std::size_t> data_size_of(const Header& h) {
  const auto bitpix = h.get_int("BITPIX");
  const auto naxis = h.get_int("NAXIS");
  if (!bitpix || !naxis || *naxis < 0 || *naxis > 999) return std::nullopt;
  std::size_t elements = *naxis == 0 ? 0 : 1;
  for (std::int64_t i = 1; i <= *naxis; ++i) {
    const auto n = h.get_int("NAXIS" + std::to_string(i));
    if (!n || *n < 0) return std::nullopt;
    elements *= static_cast<std::size_t>(*n);
  }
  const std::int64_t abs_bitpix = *bitpix < 0 ? -*bitpix : *bitpix;
  if (abs_bitpix != 8 && abs_bitpix != 16 && abs_bitpix != 32 &&
      abs_bitpix != 64) {
    return std::nullopt;
  }
  return elements * static_cast<std::size_t>(abs_bitpix) / 8;
}

}  // namespace

std::vector<std::uint8_t> FitsFile::serialize() const {
  std::vector<std::uint8_t> out;
  for (const auto& hdu : hdus_) {
    const auto header_bytes = hdu.header.serialize();
    out.insert(out.end(), header_bytes.begin(), header_bytes.end());
    out.insert(out.end(), hdu.data.begin(), hdu.data.end());
    pad_to_block(out, 0);
  }
  return out;
}

FitsFile FitsFile::parse(std::span<const std::uint8_t> bytes) {
  FitsFile file;
  std::size_t offset = 0;
  while (offset + kCardSize <= bytes.size()) {
    Hdu hdu;
    hdu.header = Header::parse(bytes, offset);
    const auto size = data_size_of(hdu.header);
    if (!size) {
      throw FitsError("FitsFile::parse: cannot size data unit (damaged header?)");
    }
    if (offset + *size > bytes.size()) {
      throw FitsError("FitsFile::parse: truncated data unit");
    }
    hdu.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                    bytes.begin() + static_cast<std::ptrdiff_t>(offset + *size));
    offset += *size;
    if (offset % kBlockSize != 0) {
      offset += std::min(bytes.size() - offset, kBlockSize - offset % kBlockSize);
    }
    file.hdus_.push_back(std::move(hdu));
  }
  if (file.hdus_.empty()) throw FitsError("FitsFile::parse: empty input");
  return file;
}

// ------------------------------------------------------------ image encoding

namespace {

void common_image_keywords(Header& h, std::size_t width, std::size_t height,
                           bool primary, std::int64_t bitpix) {
  if (primary) {
    h.set_logical("SIMPLE", true, "conforms to FITS standard");
  } else {
    h.set_string("XTENSION", "IMAGE", "image extension");
  }
  h.set_int("BITPIX", bitpix, "bits per data value");
  h.set_int("NAXIS", 2, "number of data axes");
  h.set_int("NAXIS1", static_cast<std::int64_t>(width), "axis 1 length");
  h.set_int("NAXIS2", static_cast<std::int64_t>(height), "axis 2 length");
  if (!primary) {
    h.set_int("PCOUNT", 0, "no varying arrays");
    h.set_int("GCOUNT", 1, "one group");
  }
}

}  // namespace

Hdu make_image_hdu(const common::Image<std::uint16_t>& image, bool primary) {
  Hdu hdu;
  common_image_keywords(hdu.header, image.width(), image.height(), primary, 16);
  hdu.header.set_double("BZERO", 32768.0, "unsigned 16-bit offset");
  hdu.header.set_double("BSCALE", 1.0, "default scaling");
  hdu.data.resize(image.size() * 2);
  std::size_t o = 0;
  for (std::uint16_t px : image.pixels()) {
    // Stored value = physical - BZERO, big-endian two's complement.
    const auto stored = static_cast<std::int16_t>(
        static_cast<std::int32_t>(px) - 32768);
    const auto u = static_cast<std::uint16_t>(stored);
    hdu.data[o++] = static_cast<std::uint8_t>(u >> 8);
    hdu.data[o++] = static_cast<std::uint8_t>(u & 0xFF);
  }
  return hdu;
}

Hdu make_float_hdu(const common::Image<float>& image, bool primary) {
  Hdu hdu;
  common_image_keywords(hdu.header, image.width(), image.height(), primary, -32);
  hdu.data.resize(image.size() * 4);
  std::size_t o = 0;
  for (float px : image.pixels()) {
    const std::uint32_t u = common::float_to_bits(px);
    hdu.data[o++] = static_cast<std::uint8_t>(u >> 24);
    hdu.data[o++] = static_cast<std::uint8_t>((u >> 16) & 0xFF);
    hdu.data[o++] = static_cast<std::uint8_t>((u >> 8) & 0xFF);
    hdu.data[o++] = static_cast<std::uint8_t>(u & 0xFF);
  }
  return hdu;
}

namespace {

/// Geometry and offset of a decodable BITPIX=16 HDU.
struct U16Layout {
  std::size_t width = 0;
  std::size_t height = 0;
  std::int32_t bzero = 0;
};

/// Validates \p hdu for read_image_u16: a 16-bit image header, a payload of
/// at least NAXIS1*NAXIS2*2 bytes, and a finite integral BZERO.  Past ±2^17
/// every stored value clamps to the same end of [0, 65535], so BZERO
/// saturates there and the per-pixel sum stays an exact int32.
[[nodiscard]] U16Layout u16_layout(const Hdu& hdu) {
  const auto bitpix = hdu.header.get_int("BITPIX");
  const auto naxis1 = hdu.header.get_int("NAXIS1");
  const auto naxis2 = hdu.header.get_int("NAXIS2");
  if (!bitpix || *bitpix != 16 || !naxis1 || !naxis2 || *naxis1 <= 0 ||
      *naxis2 <= 0) {
    throw FitsError("read_image_u16: header does not describe a 16-bit image");
  }
  U16Layout layout;
  layout.width = static_cast<std::size_t>(*naxis1);
  layout.height = static_cast<std::size_t>(*naxis2);
  // Divide rather than multiply: header axes can make w*h*2 wrap.
  if (layout.height > hdu.data.size() / 2 / layout.width) {
    throw FitsError("read_image_u16: short data unit");
  }
  const double bzero = hdu.header.get_double("BZERO").value_or(0.0);
  if (!std::isfinite(bzero) || bzero != std::trunc(bzero)) {
    throw FitsError("read_image_u16: BZERO must be a finite integer");
  }
  layout.bzero = static_cast<std::int32_t>(std::clamp(bzero, -131072.0, 131072.0));
  return layout;
}

/// physical = clamp(stored + BZERO, 0, 65535) per big-endian stored value;
/// the same value lround(stored + bzero) gave, since the sum is exact.
void decode_u16(const std::uint8_t* data, std::int32_t bzero,
                std::span<std::uint16_t> out) noexcept {
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto stored = static_cast<std::int16_t>(
        static_cast<std::uint16_t>((data[2 * k] << 8) | data[2 * k + 1]));
    out[k] = static_cast<std::uint16_t>(
        std::clamp<std::int32_t>(stored + bzero, 0, 65535));
  }
}

}  // namespace

void read_image_u16(const Hdu& hdu, std::span<std::uint16_t> out) {
  const U16Layout layout = u16_layout(hdu);
  if (out.size() != layout.width * layout.height) {
    throw FitsError("read_image_u16: destination size differs from the image");
  }
  decode_u16(hdu.data.data(), layout.bzero, out);
}

common::Image<std::uint16_t> read_image_u16(const Hdu& hdu) {
  const U16Layout layout = u16_layout(hdu);
  common::Image<std::uint16_t> img(layout.width, layout.height);
  decode_u16(hdu.data.data(), layout.bzero, img.pixels());
  return img;
}

common::Image<float> read_image_f32(const Hdu& hdu) {
  const auto bitpix = hdu.header.get_int("BITPIX");
  const auto naxis1 = hdu.header.get_int("NAXIS1");
  const auto naxis2 = hdu.header.get_int("NAXIS2");
  if (!bitpix || *bitpix != -32 || !naxis1 || !naxis2 || *naxis1 <= 0 ||
      *naxis2 <= 0) {
    throw FitsError("read_image_f32: header does not describe a float image");
  }
  const auto w = static_cast<std::size_t>(*naxis1);
  const auto h = static_cast<std::size_t>(*naxis2);
  if (hdu.data.size() < w * h * 4) {
    throw FitsError("read_image_f32: short data unit");
  }
  common::Image<float> img(w, h);
  std::size_t o = 0;
  for (auto& px : img.pixels()) {
    const std::uint32_t u = (static_cast<std::uint32_t>(hdu.data[o]) << 24) |
                            (static_cast<std::uint32_t>(hdu.data[o + 1]) << 16) |
                            (static_cast<std::uint32_t>(hdu.data[o + 2]) << 8) |
                            static_cast<std::uint32_t>(hdu.data[o + 3]);
    o += 4;
    px = common::bits_to_float(u);
  }
  return img;
}

}  // namespace spacefts::fits
