#include "spacefts/edac/crc32.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
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
  return c ^ 0xFFFFFFFFu;
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
