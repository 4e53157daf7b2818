#include "spacefts/edac/crc32.hpp"

#include <array>

#include "crc32_pclmul.hpp"

namespace spacefts::edac {

namespace {

/// Slice-by-8 tables: kTables[0] is the byte-at-a-time table, and
/// kTables[j][n] is the CRC of byte n followed by j zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[j][n] = (t[j - 1][n] >> 8) ^ t[0][t[j - 1][n] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load.
[[nodiscard]] std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the raw CRC register \p c over \p n bytes at \p p, eight bytes
/// per step through the slice-by-8 tables.
[[nodiscard]] std::uint32_t table_update(const std::uint8_t* p, std::size_t n,
                                         std::uint32_t c) noexcept {
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(SPACEFTS_HAVE_PCLMUL)
/// Every feature crc32_pclmul.cpp is compiled with, checked once.
[[nodiscard]] bool host_has_pclmul() noexcept {
  static const bool has = __builtin_cpu_supports("pclmul") != 0 &&
                          __builtin_cpu_supports("sse4.1") != 0;
  return has;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_table(std::span<const std::uint8_t> bytes,
                          std::uint32_t crc) noexcept {
  return table_update(bytes.data(), bytes.size(), crc ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc) noexcept {
#if defined(SPACEFTS_HAVE_PCLMUL)
  if (bytes.size() >= detail::kFoldMinBytes && host_has_pclmul()) {
    // The kernel folds whole 16-byte blocks; the table takes the 0-15 left.
    const std::size_t bulk = bytes.size() & ~std::size_t{15};
    const std::uint32_t c =
        detail::crc32_fold_pclmul(bytes.data(), bulk, crc ^ 0xFFFFFFFFu);
    return table_update(bytes.data() + bulk, bytes.size() - bulk, c) ^
           0xFFFFFFFFu;
  }
#endif
  return detail::crc32_table(bytes, crc);
}

void frame_append_crc(std::vector<std::uint8_t>& payload) {
  const std::uint32_t c = crc32(payload);
  payload.push_back(static_cast<std::uint8_t>(c & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 8) & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 16) & 0xFFu));
  payload.push_back(static_cast<std::uint8_t>((c >> 24) & 0xFFu));
}

bool frame_verify(std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return false;
  const auto payload = frame.first(frame.size() - 4);
  return crc32(payload) == load_le32(frame.last(4).data());
}

std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return {};
  return frame.first(frame.size() - 4);
}

}  // namespace spacefts::edac
