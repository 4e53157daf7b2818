/// \file fits.hpp
/// A minimal but standard-conforming subset of FITS (Flexible Image
/// Transport System, NOST 100-2.0), the container format of NGST inputs
/// (§2.2.1).
///
/// Implemented: 80-character keyword cards, 2880-byte header/data blocks,
/// a primary HDU plus any number of IMAGE extensions, and BITPIX 16 image
/// encode/decode (signed big-endian with the conventional BZERO=32768
/// offset for unsigned data).  That is everything the NGST readout
/// pipeline needs; other BITPIX payloads parse as opaque data units, and
/// tables, scaling beyond BZERO/BSCALE and the random-groups convention
/// are out of scope.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spacefts/common/image.hpp"

namespace spacefts::fits {

/// FITS blocks are always a multiple of this size.
inline constexpr std::size_t kBlockSize = 2880;
/// Every header card is exactly this long.
inline constexpr std::size_t kCardSize = 80;

/// \p n rounded up to whole 2880-byte blocks.
[[nodiscard]] constexpr std::size_t block_padded(std::size_t n) noexcept {
  return (n + kBlockSize - 1) / kBlockSize * kBlockSize;
}

/// a * b, or nullopt when the product wraps.  Header axes are untrusted
/// input, so every size derived from them goes through this.
[[nodiscard]] constexpr std::optional<std::size_t> checked_mul(
    std::size_t a, std::size_t b) noexcept {
  std::size_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Error thrown on malformed input that cannot be interpreted at all.
class FitsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One 80-character header card in decoded form: the codec between a card
/// image and its keyword, value and comment fields.
struct Card {
  std::string keyword;  ///< up to 8 chars, uppercase
  std::string value;    ///< FITS-encoded value field ("16", "T", "'FOO'")
  std::string comment;  ///< optional comment

  /// Encodes to the fixed 80-character on-disk representation.
  [[nodiscard]] std::string encode() const;

  /// Decodes one raw card. Never throws: undecodable bytes are preserved
  /// verbatim in `keyword` so the sanity layer can inspect the damage.
  [[nodiscard]] static Card decode(std::string_view raw);
};

/// An ordered FITS header, held as the 80-character card images it has on
/// the wire: setters encode straight into an image, getters read the value
/// field of the image in place, and parse/serialize copy images.  Copies of
/// a header share its images until one of them changes (copy on write), so
/// a run of equal readout headers holds one set of images.
class Header {
 public:
  Header() = default;
  Header(const Header& other) noexcept : images_(other.share()) {}
  Header& operator=(const Header& other) noexcept {
    images_ = other.share();
    return *this;
  }
  Header(Header&&) noexcept = default;
  Header& operator=(Header&&) noexcept = default;

  /// Appends or replaces a card by keyword (COMMENT/HISTORY always append).
  /// The keyword is uppercased; what the header reads back is exactly what
  /// serialize() writes (a keyword past 8 characters or a field past
  /// column 80 is cut there).
  void set(const Card& card);
  void set_logical(std::string_view keyword, bool value,
                   std::string_view comment = "");
  void set_int(std::string_view keyword, std::int64_t value,
               std::string_view comment = "");
  void set_double(std::string_view keyword, double value,
                  std::string_view comment = "");
  void set_string(std::string_view keyword, std::string_view value,
                  std::string_view comment = "");

  /// Typed getters over the first card whose keyword is \p keyword
  /// (case-insensitive); nullopt when absent or not parseable as the type.
  [[nodiscard]] std::optional<bool> get_logical(std::string_view keyword) const;
  [[nodiscard]] std::optional<std::int64_t> get_int(
      std::string_view keyword) const;
  [[nodiscard]] std::optional<double> get_double(std::string_view keyword) const;
  [[nodiscard]] std::optional<std::string> get_string(
      std::string_view keyword) const;

  [[nodiscard]] bool contains(std::string_view keyword) const;
  void erase(std::string_view keyword);

  /// Number of cards (END and blank cards are not kept).
  [[nodiscard]] std::size_t size() const noexcept {
    return images().size() / kCardSize;
  }
  /// The 80-character image of card \p i, in header order.
  [[nodiscard]] std::string_view card(std::size_t i) const noexcept {
    return images().substr(i * kCardSize, kCardSize);
  }

  /// Serializes to one or more 2880-byte blocks ending with END.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// The same blocks, appended to \p out.
  void serialize_to(std::vector<std::uint8_t>& out) const;

  /// Parses a header starting at \p data[offset]; advances \p offset past
  /// the END card's block.  \throws FitsError if no END card is found.
  [[nodiscard]] static Header parse(std::span<const std::uint8_t> data,
                                    std::size_t& offset);

  /// Equal card images, in the same order; shared images compare at once.
  friend bool operator==(const Header& a, const Header& b) noexcept {
    return a.images_ == b.images_ || a.images() == b.images();
  }

 private:
  /// size() card images of kCardSize characters each.  Once a copy has
  /// shared them they are never written again: a change goes to a fresh
  /// copy, so no header reads images another thread is changing.
  struct Images {
    std::string cards;
    std::atomic<bool> shared{false};
  };

  [[nodiscard]] std::string_view images() const noexcept {
    return images_ ? std::string_view(images_->cards) : std::string_view();
  }
  /// images_ for a copy, marked shared.
  [[nodiscard]] std::shared_ptr<Images> share() const noexcept {
    if (images_) images_->shared.store(true, std::memory_order_relaxed);
    return images_;
  }
  /// The card images, written by no other header, for a change.
  [[nodiscard]] std::string& own();
  /// parse() with the END card already found at \p end; FitsFile::parse
  /// also needs where it is.
  friend class FitsFile;
  [[nodiscard]] static Header parse_until(std::string_view bytes,
                                          std::size_t& offset,
                                          std::size_t end);
  void put(std::string_view keyword, std::string_view value,
           std::string_view comment);

  std::shared_ptr<Images> images_;  ///< null when there are no cards yet
};

/// A read-only data unit.  Its bytes are either its own (an HDU built in
/// memory; copies of the HDU share one immutable buffer) or a view of the
/// buffer FitsFile::parse read, which the caller keeps alive and unchanged
/// while the HDU is in use.  Nothing writes through a payload: a caller
/// that changes bytes builds an owned payload from its own copy.
class Payload {
 public:
  Payload() = default;
  /// Owns \p bytes.
  explicit Payload(std::vector<std::uint8_t> bytes);
  /// Views \p bytes, kept alive by \p owner when it is set.
  explicit Payload(std::span<const std::uint8_t> bytes,
                   std::shared_ptr<const void> owner = nullptr) noexcept
      : owner_(std::move(owner)), bytes_(bytes) {}

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bytes_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] auto begin() const noexcept { return bytes_.begin(); }
  [[nodiscard]] auto end() const noexcept { return bytes_.end(); }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return bytes_[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return bytes_;
  }

  /// Keeps only the first \p n bytes (all of them when n >= size()).
  void shrink(std::size_t n) noexcept {
    bytes_ = bytes_.first(std::min(n, bytes_.size()));
  }

 private:
  std::shared_ptr<const void> owner_;
  std::span<const std::uint8_t> bytes_;
};

/// One header+data unit.
struct Hdu {
  Header header;
  Payload data;  ///< raw big-endian payload, unpadded
};

/// An in-memory FITS file: primary HDU plus extensions.
class FitsFile {
 public:
  [[nodiscard]] std::vector<Hdu>& hdus() noexcept { return hdus_; }
  [[nodiscard]] const std::vector<Hdu>& hdus() const noexcept { return hdus_; }

  /// Serializes the whole file (headers + padded data blocks).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Parses a whole file.  Every payload views \p bytes, so they must
  /// outlive the result and stay unchanged (read_file owns its buffer).
  /// \throws FitsError on structural damage that prevents even finding the
  /// HDUs (the sanity layer exists to handle *recoverable* damage before
  /// this is called).
  [[nodiscard]] static FitsFile parse(std::span<const std::uint8_t> bytes);
  /// A temporary buffer would leave every payload dangling.
  static FitsFile parse(std::vector<std::uint8_t>&&) = delete;

 private:
  std::vector<Hdu> hdus_;
};

/// Builds an HDU holding a 16-bit unsigned image (BITPIX=16, BZERO=32768).
/// \param primary emit SIMPLE=T (primary HDU) instead of XTENSION='IMAGE'.
[[nodiscard]] Hdu make_image_hdu(const common::Image<std::uint16_t>& image,
                                 bool primary = true);

/// The header make_image_hdu writes for a \p width x \p height image.
[[nodiscard]] Header image_u16_header(std::size_t width, std::size_t height,
                                      bool primary = true);

/// The payload make_image_hdu writes: each pixel as stored = physical -
/// BZERO, big-endian, into \p out (two bytes per pixel).
void write_image_u16(std::span<const std::uint16_t> pixels,
                     std::uint8_t* out) noexcept;

/// Geometry and offset of a decodable BITPIX=16 HDU: NAXIS1, NAXIS2 and
/// BZERO as read_image_u16 applies them.
struct U16Layout {
  std::size_t width = 0;
  std::size_t height = 0;
  std::int32_t bzero = 0;
};

/// The layout read_image_u16 decodes \p hdu with.  It depends on nothing
/// but the header and the payload length, so it holds for every HDU with
/// an equal header and payload length.
/// \throws FitsError exactly when read_image_u16 would.
[[nodiscard]] U16Layout image_u16_layout(const Hdu& hdu);

/// Decodes a BITPIX=16/BZERO=32768 HDU back into an unsigned image:
/// physical = clamp(stored + BZERO, 0, 65535), with BZERO absent = 0.
/// \throws FitsError if the header does not describe a 16-bit image, the
/// data payload is shorter than NAXIS1*NAXIS2*2 bytes, or BZERO is not a
/// finite integer.
[[nodiscard]] common::Image<std::uint16_t> read_image_u16(const Hdu& hdu);

/// The same decode into caller storage (e.g. one plane of a stack), which
/// must hold exactly NAXIS1*NAXIS2 pixels.
/// \throws FitsError as above, or if \p out has a different size.
void read_image_u16(const Hdu& hdu, std::span<std::uint16_t> out);

/// The same decode with \p layout, which image_u16_layout returned for an
/// HDU of \p hdu's header and payload length, so no header card is read.
/// \throws FitsError if the payload is shorter than the layout or \p out
/// does not hold exactly width*height pixels.
void read_image_u16(const Hdu& hdu, const U16Layout& layout,
                    std::span<std::uint16_t> out);

}  // namespace spacefts::fits
