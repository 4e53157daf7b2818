#include "spacefts/fits/fits.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace spacefts::fits {

namespace {

[[nodiscard]] char upper(char c) noexcept {
  // Keywords are uppercase letters, digits, '-' and '_', which every
  // locale maps to themselves; only other characters need the lookup.
  if ((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' ||
      c == '_') {
    return c;
  }
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

[[nodiscard]] bool is_space(char c) noexcept { return c == ' ' || c == '\t'; }

/// The 8 characters at \p p as one word.
[[nodiscard]] std::uint64_t word_at(const char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

[[nodiscard]] bool is_commentary(std::string_view keyword) {
  return keyword == "COMMENT" || keyword == "HISTORY" || keyword.empty();
}

/// The keyword of a card image: its first 8 columns, trimmed.
[[nodiscard]] std::string_view keyword_of(std::string_view image) {
  return trim(image.substr(0, std::min<std::size_t>(8, image.size())));
}

/// The value field of a card image, and the text after it, where a
/// "/ comment" starts.
struct ValueField {
  std::string_view value;
  std::string_view after;
};

/// Scans the value field of \p raw (at most kCardSize characters); nullopt
/// for commentary cards and cards without the "= " value indicator.  The
/// one parser of the value field: Card::decode and the Header getters both
/// read through it.
[[nodiscard]] std::optional<ValueField> scan_value(std::string_view raw) {
  if (raw.size() < 10 || raw[8] != '=' || raw[9] != ' ' ||
      is_commentary(keyword_of(raw))) {
    return std::nullopt;
  }
  std::string_view rest = raw.substr(10);
  // Skip the leading blanks (20 before a right-justified number) a word at
  // a time, then any tabs and spaces after them.
  std::size_t lead = 0;
  while (lead + 8 <= rest.size() &&
         word_at(rest.data() + lead) == 0x2020202020202020u) {
    lead += 8;
  }
  while (lead < rest.size() && is_space(rest[lead])) ++lead;
  if (lead < rest.size() && rest[lead] == '\'') {
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
    return ValueField{rest.substr(0, end), rest.substr(end)};
  }
  rest.remove_prefix(lead);
  const std::size_t slash = rest.find('/');
  return ValueField{trim(rest.substr(0, slash)),
                    slash == std::string_view::npos ? std::string_view{}
                                                    : rest.substr(slash)};
}

/// Writes the 80-column image of (keyword, value, comment) to \p out: the
/// one encoder behind Card::encode and the Header setters.  Fixed format:
/// keyword in columns 1-8, "= " and a string value from column 10 or any
/// other value right-justified to column 30, then " / comment"; commentary
/// cards carry their text from column 10.  Whatever passes column 80 is
/// cut.  \p fold_case uppercases the keyword, as the setters do.
void encode_image(char* out, std::string_view keyword, std::string_view value,
                  std::string_view comment, bool fold_case) noexcept {
  std::memset(out, ' ', kCardSize);
  const std::size_t key_len = std::min<std::size_t>(keyword.size(), 8);
  for (std::size_t i = 0; i < key_len; ++i) {
    out[i] = fold_case ? upper(keyword[i]) : keyword[i];
  }
  std::size_t at = 8;
  const auto put = [&](std::string_view s) {
    const std::size_t room = kCardSize - std::min(at, kCardSize);
    const std::size_t n = std::min(s.size(), room);
    std::memcpy(out + at, s.data(), n);
    at += n;
  };
  // Commentary keywords are at most 7 characters, all within the 8 copied.
  if (keyword.size() <= 8 && is_commentary(std::string_view(out, key_len))) {
    at = 9;  // commentary cards have no value indicator
    put(comment);
    return;
  }
  put("= ");
  if (value.empty() || value.front() != '\'') {
    at += 20 - std::min<std::size_t>(value.size(), 20);
  }
  put(value);
  if (!comment.empty()) {
    put(" / ");
    put(comment);
  }
}

/// True for a card of spaces and tabs only, which parse drops.
[[nodiscard]] bool is_blank(std::string_view image) {
  return std::all_of(image.begin(), image.end(), is_space);
}

/// True if any byte of \p word is a tab.
[[nodiscard]] bool has_tab(std::uint64_t word) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101u;
  const std::uint64_t x = word ^ (kOnes * '\t');
  return ((x - kOnes) & ~x & (kOnes << 7)) != 0;
}

/// Byte offset in \p images of the first card keyed \p keyword (compared
/// case-folded, without allocating), or npos.
[[nodiscard]] std::size_t find_card(std::string_view images,
                                    std::string_view keyword) {
  // A trimmed keyword field is at most 8 characters, none of them
  // surrounding whitespace.
  if (keyword.size() > 8 ||
      (!keyword.empty() &&
       (is_space(keyword.front()) || is_space(keyword.back())))) {
    return std::string_view::npos;
  }
  // The key as the setters write it into columns 1-8.
  char padded[8];
  std::memset(padded, ' ', sizeof padded);
  for (std::size_t i = 0; i < keyword.size(); ++i) {
    padded[i] = upper(keyword[i]);
  }
  const std::string_view key(padded, keyword.size());
  const std::uint64_t want = word_at(padded);
  for (std::size_t at = 0; at < images.size(); at += kCardSize) {
    const char* field = images.data() + at;
    const std::uint64_t got = word_at(field);
    if (got == want) return at;
    // A field that starts with a non-blank and holds no tab trims to the
    // key only when it equals the padded key, so the word compare decided
    // it.  The rest (leading blanks, or tabs in the padding) get the trim.
    if ((is_space(field[0]) || has_tab(got)) &&
        keyword_of(images.substr(at, kCardSize)) == key) {
      return at;
    }
  }
  return std::string_view::npos;
}

/// \p data as characters.
[[nodiscard]] std::string_view chars_of(
    std::span<const std::uint8_t> data) noexcept {
  return {reinterpret_cast<const char*>(data.data()), data.size()};
}

/// Offset of the first END card at or after \p offset.  A header ends
/// there: Header::parse reads no further.
/// \throws FitsError when no whole card of \p bytes is one.
[[nodiscard]] std::size_t end_card(std::string_view bytes,
                                   std::size_t offset) {
  for (; offset + kCardSize <= bytes.size(); offset += kCardSize) {
    if (keyword_of(bytes.substr(offset, kCardSize)) == "END") return offset;
  }
  throw FitsError("Header::parse: no END card");
}

/// The value field of the first card keyed \p keyword (empty when that
/// card has none), or nullopt when there is no such card.
[[nodiscard]] std::optional<std::string_view> value_of(
    std::string_view images, std::string_view keyword) {
  const std::size_t at = find_card(images, keyword);
  if (at == std::string_view::npos) return std::nullopt;
  // The scanned value has no surrounding whitespace.
  const auto field = scan_value(images.substr(at, kCardSize));
  return field ? field->value : std::string_view{};
}

}  // namespace

// ---------------------------------------------------------------------- Card

std::string Card::encode() const {
  std::string out(kCardSize, ' ');
  encode_image(out.data(), keyword, value, comment, /*fold_case=*/false);
  return out;
}

Card Card::decode(std::string_view raw) {
  if (raw.size() > kCardSize) raw = raw.substr(0, kCardSize);
  Card card;
  card.keyword = std::string(keyword_of(raw));
  const auto field = scan_value(raw);
  if (!field) {
    card.comment = std::string(trim(raw.size() > 8 ? raw.substr(8) : ""));
    return card;
  }
  card.value = std::string(field->value);
  if (const std::size_t slash = field->after.find('/');
      slash != std::string_view::npos) {
    card.comment = std::string(trim(field->after.substr(slash + 1)));
  }
  return card;
}

// -------------------------------------------------------------------- Header

std::string& Header::own() {
  if (!images_ || images_->shared.load(std::memory_order_relaxed)) {
    auto fresh = std::make_shared<Images>();
    if (images_) fresh->cards = images_->cards;
    images_ = std::move(fresh);
  }
  return images_->cards;
}

void Header::put(std::string_view keyword, std::string_view value,
                 std::string_view comment) {
  char image[kCardSize];
  encode_image(image, keyword, value, comment, /*fold_case=*/true);
  const std::string_view key = keyword_of(std::string_view(image, kCardSize));
  if (!is_commentary(key)) {
    if (const std::size_t at = find_card(images(), key);
        at != std::string_view::npos) {
      own().replace(at, kCardSize, image, kCardSize);
      return;
    }
  }
  own().append(image, kCardSize);
}

void Header::set(const Card& card) {
  put(card.keyword, card.value, card.comment);
}

void Header::set_logical(std::string_view keyword, bool value,
                         std::string_view comment) {
  put(keyword, value ? "T" : "F", comment);
}

void Header::set_int(std::string_view keyword, std::int64_t value,
                     std::string_view comment) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  put(keyword, std::string_view(buf, static_cast<std::size_t>(end - buf)),
      comment);
}

void Header::set_double(std::string_view keyword, double value,
                        std::string_view comment) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10G", value);
  put(keyword, buf, comment);
}

void Header::set_string(std::string_view keyword, std::string_view value,
                        std::string_view comment) {
  // Only the first 70 characters of the quoted form fit on the card.
  char quoted[kCardSize];
  std::size_t n = 0;
  const auto add = [&](char c) {
    if (n < kCardSize) quoted[n++] = c;
  };
  add('\'');
  for (char c : value) {
    add(c);
    if (c == '\'') add('\'');
  }
  // FITS strings are padded to at least 8 characters inside the quotes.
  while (n < 9) add(' ');
  add('\'');
  put(keyword, std::string_view(quoted, n), comment);
}

std::optional<bool> Header::get_logical(std::string_view keyword) const {
  const auto v = value_of(images(), keyword);
  if (v == "T") return true;
  if (v == "F") return false;
  return std::nullopt;
}

std::optional<std::int64_t> Header::get_int(std::string_view keyword) const {
  const auto v = value_of(images(), keyword);
  if (!v) return std::nullopt;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec != std::errc{} || ptr != v->data() + v->size()) return std::nullopt;
  return out;
}

std::optional<double> Header::get_double(std::string_view keyword) const {
  const auto v = value_of(images(), keyword);
  if (!v || v->empty()) return std::nullopt;
  // strtod needs a terminator; a value field is at most 70 characters.
  char buf[kCardSize + 1];
  std::memcpy(buf, v->data(), v->size());
  buf[v->size()] = '\0';
  char* end = nullptr;
  const double out = std::strtod(buf, &end);
  if (end != buf + v->size()) return std::nullopt;
  return out;
}

std::optional<std::string> Header::get_string(std::string_view keyword) const {
  auto v = value_of(images(), keyword);
  if (!v || v->size() < 2 || v->front() != '\'' || v->back() != '\'') {
    return std::nullopt;
  }
  const std::string_view inner = v->substr(1, v->size() - 2);
  std::string out;
  for (std::size_t i = 0; i < inner.size(); ++i) {
    out += inner[i];
    if (inner[i] == '\'' && i + 1 < inner.size() && inner[i + 1] == '\'') ++i;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool Header::contains(std::string_view keyword) const {
  return find_card(images(), keyword) != std::string_view::npos;
}

void Header::erase(std::string_view keyword) {
  std::size_t at;
  while ((at = find_card(images(), keyword)) != std::string_view::npos) {
    own().erase(at, kCardSize);
  }
}

void Header::serialize_to(std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  const std::string_view cards = images();
  out.insert(out.end(), cards.begin(), cards.end());
  static constexpr std::string_view kEnd = "END";
  out.insert(out.end(), kEnd.begin(), kEnd.end());
  // The rest of the END card and of its block are spaces.
  out.resize(start + block_padded(cards.size() + kCardSize), ' ');
}

std::vector<std::uint8_t> Header::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(block_padded(images().size() + kCardSize));
  serialize_to(out);
  return out;
}

Header Header::parse(std::span<const std::uint8_t> data, std::size_t& offset) {
  const std::string_view bytes = chars_of(data);
  return parse_until(bytes, offset, end_card(bytes, offset));
}

Header Header::parse_until(std::string_view bytes, std::size_t& offset,
                           std::size_t end) {
  Header header;
  std::string& cards = header.own();
  cards.reserve(end - offset);
  for (; offset < end; offset += kCardSize) {
    const std::string_view image = bytes.substr(offset, kCardSize);
    if (!is_blank(image)) cards.append(image);
  }
  // Skip the END card and the rest of its block.
  offset = block_padded(end + kCardSize);
  return header;
}

// ------------------------------------------------------------------- Payload

Payload::Payload(std::vector<std::uint8_t> bytes) {
  auto owned =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  bytes_ = *owned;
  owner_ = std::move(owned);
}

// ------------------------------------------------------------------ FitsFile

namespace {

/// Payload size in bytes implied by BITPIX/NAXISn, or nullopt if the header
/// is too damaged to tell (including axes whose product wraps).
[[nodiscard]] std::optional<std::size_t> data_size_of(const Header& h) {
  const auto bitpix = h.get_int("BITPIX");
  const auto naxis = h.get_int("NAXIS");
  if (!bitpix || !naxis || *naxis < 0 || *naxis > 999) return std::nullopt;
  const std::size_t bits = *bitpix < 0 ? 0 - static_cast<std::size_t>(*bitpix)
                                       : static_cast<std::size_t>(*bitpix);
  if (bits != 8 && bits != 16 && bits != 32 && bits != 64) return std::nullopt;
  std::optional<std::size_t> bytes = *naxis == 0 ? 0 : bits / 8;
  char key[8] = {'N', 'A', 'X', 'I', 'S'};  // NAXISn, n up to 999
  for (std::int64_t i = 1; i <= *naxis && bytes; ++i) {
    const char* end = std::to_chars(key + 5, key + sizeof key, i).ptr;
    const auto n =
        h.get_int(std::string_view(key, static_cast<std::size_t>(end - key)));
    if (!n || *n < 0) return std::nullopt;
    bytes = checked_mul(*bytes, static_cast<std::size_t>(*n));
  }
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> FitsFile::serialize() const {
  std::size_t total = 0;
  for (const auto& hdu : hdus_) {
    total += block_padded((hdu.header.size() + 1) * kCardSize) +
             block_padded(hdu.data.size());
  }
  std::vector<std::uint8_t> out;
  out.reserve(total);
  for (const auto& hdu : hdus_) {
    hdu.header.serialize_to(out);
    out.insert(out.end(), hdu.data.begin(), hdu.data.end());
    out.resize(block_padded(out.size()), 0);
  }
  return out;
}

FitsFile FitsFile::parse(std::span<const std::uint8_t> bytes) {
  FitsFile file;
  std::size_t offset = 0;
  // The last parsed header's bytes through its END card, and the size of
  // its data unit.  Header::parse reads nothing past the END card, so an
  // HDU that starts with the same bytes has the same header and size: a
  // run of equal readout headers is parsed once and copied.  A tail too
  // short to compare gets the full parse and its errors.
  std::span<const std::uint8_t> head;
  std::size_t size = 0;
  while (offset + kCardSize <= bytes.size()) {
    Hdu hdu;
    if (!head.empty() && head.size() <= bytes.size() - offset &&
        std::memcmp(bytes.data() + offset, head.data(), head.size()) == 0) {
      hdu.header = file.hdus_.back().header;
      offset = block_padded(offset + head.size());
    } else {
      const std::string_view chars = chars_of(bytes);
      const std::size_t end = end_card(chars, offset);
      head = bytes.subspan(offset, end + kCardSize - offset);
      hdu.header = Header::parse_until(chars, offset, end);
      const auto sized = data_size_of(hdu.header);
      if (!sized) {
        throw FitsError(
            "FitsFile::parse: cannot size data unit (damaged header?)");
      }
      size = *sized;
    }
    // The END card's block may run past a truncated input.
    if (offset > bytes.size() || size > bytes.size() - offset) {
      throw FitsError("FitsFile::parse: truncated data unit");
    }
    hdu.data = Payload(bytes.subspan(offset, size));
    offset += size;
    if (offset % kBlockSize != 0) {
      offset += std::min(bytes.size() - offset, kBlockSize - offset % kBlockSize);
    }
    file.hdus_.push_back(std::move(hdu));
  }
  if (file.hdus_.empty()) throw FitsError("FitsFile::parse: empty input");
  return file;
}

// ------------------------------------------------------------ image encoding

Header image_u16_header(std::size_t width, std::size_t height, bool primary) {
  Header h;
  if (primary) {
    h.set_logical("SIMPLE", true, "conforms to FITS standard");
  } else {
    h.set_string("XTENSION", "IMAGE", "image extension");
  }
  h.set_int("BITPIX", 16, "bits per data value");
  h.set_int("NAXIS", 2, "number of data axes");
  h.set_int("NAXIS1", static_cast<std::int64_t>(width), "axis 1 length");
  h.set_int("NAXIS2", static_cast<std::int64_t>(height), "axis 2 length");
  if (!primary) {
    h.set_int("PCOUNT", 0, "no varying arrays");
    h.set_int("GCOUNT", 1, "one group");
  }
  h.set_double("BZERO", 32768.0, "unsigned 16-bit offset");
  h.set_double("BSCALE", 1.0, "default scaling");
  return h;
}

void write_image_u16(std::span<const std::uint16_t> pixels,
                     std::uint8_t* out) noexcept {
  for (std::size_t k = 0; k < pixels.size(); ++k) {
    // Stored value = physical - 32768 in 16-bit two's complement, which is
    // the physical value with its top bit flipped; big-endian.
    const auto u = static_cast<std::uint16_t>(pixels[k] ^ 0x8000u);
    out[2 * k] = static_cast<std::uint8_t>(u >> 8);
    out[2 * k + 1] = static_cast<std::uint8_t>(u & 0xFF);
  }
}

Hdu make_image_hdu(const common::Image<std::uint16_t>& image, bool primary) {
  Hdu hdu;
  hdu.header = image_u16_header(image.width(), image.height(), primary);
  std::vector<std::uint8_t> data(image.size() * 2);
  write_image_u16(image.pixels(), data.data());
  hdu.data = Payload(std::move(data));
  return hdu;
}

namespace {

/// True when \p data holds a \p width x \p height 16-bit image.
/// Divides rather than multiplies: header axes can make w*h*2 wrap.
[[nodiscard]] bool holds_image(const Payload& data, std::size_t width,
                               std::size_t height) noexcept {
  return width == 0 || height <= data.size() / 2 / width;
}

/// physical = clamp(stored + BZERO, 0, 65535) per big-endian stored value;
/// the same value lround(stored + bzero) gave, since the sum is exact.
///
/// One 16-bit loop for every BZERO: with u = stored + 32768 (the word
/// byte-swapped, its top bit flipped) and off = BZERO - 32768, the result
/// is u + off clamped to [0, 65535], i.e. a saturating add of max(off, 0)
/// and a saturating subtract of max(-off, 0), each capped at 65535 (one of
/// the two is 0).  u + min(~u, add) is the saturating add and
/// max(v, sub) - sub the saturating subtract, forms the compiler
/// vectorises without widening to 32 bits.
void decode_u16(const std::uint8_t* data, std::int32_t bzero,
                std::span<std::uint16_t> out) noexcept {
  const std::int32_t off = bzero - 32768;
  const auto add = static_cast<std::uint16_t>(std::clamp(off, 0, 65535));
  const auto sub = static_cast<std::uint16_t>(std::clamp(-off, 0, 65535));
  std::uint16_t* const dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::uint16_t word;
    std::memcpy(&word, data + 2 * k, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = static_cast<std::uint16_t>((word >> 8) | (word << 8));
    }
    const auto u = static_cast<std::uint16_t>(word ^ 0x8000);
    const auto up = static_cast<std::uint16_t>(
        u + std::min(static_cast<std::uint16_t>(~u), add));
    dst[k] = static_cast<std::uint16_t>(std::max(up, sub) - sub);
  }
}

}  // namespace

/// Validates \p hdu for read_image_u16: a 16-bit image header, a payload of
/// at least NAXIS1*NAXIS2*2 bytes, and a finite integral BZERO.  Past ±2^17
/// every stored value clamps to the same end of [0, 65535], so BZERO
/// saturates there and the per-pixel sum stays an exact int32.
U16Layout image_u16_layout(const Hdu& hdu) {
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
  if (!holds_image(hdu.data, layout.width, layout.height)) {
    throw FitsError("read_image_u16: short data unit");
  }
  const double bzero = hdu.header.get_double("BZERO").value_or(0.0);
  if (!std::isfinite(bzero) || bzero != std::trunc(bzero)) {
    throw FitsError("read_image_u16: BZERO must be a finite integer");
  }
  layout.bzero = static_cast<std::int32_t>(std::clamp(bzero, -131072.0, 131072.0));
  return layout;
}

void read_image_u16(const Hdu& hdu, const U16Layout& layout,
                    std::span<std::uint16_t> out) {
  if (!holds_image(hdu.data, layout.width, layout.height)) {
    throw FitsError("read_image_u16: short data unit");
  }
  if (out.size() != layout.width * layout.height) {
    throw FitsError("read_image_u16: destination size differs from the image");
  }
  decode_u16(hdu.data.data(), layout.bzero, out);
}

void read_image_u16(const Hdu& hdu, std::span<std::uint16_t> out) {
  read_image_u16(hdu, image_u16_layout(hdu), out);
}

common::Image<std::uint16_t> read_image_u16(const Hdu& hdu) {
  const U16Layout layout = image_u16_layout(hdu);
  common::Image<std::uint16_t> img(layout.width, layout.height);
  decode_u16(hdu.data.data(), layout.bzero, img.pixels());
  return img;
}

}  // namespace spacefts::fits
