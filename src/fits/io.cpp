#include "spacefts/fits/io.hpp"

#include <fstream>
#include <memory>

namespace spacefts::fits {

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw FitsError("read_bytes: cannot open " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) throw FitsError("read_bytes: cannot size " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw FitsError("read_bytes: short read on " + path);
  }
  return bytes;
}

void write_bytes(const std::string& path,
                 std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw FitsError("write_bytes: cannot create " + path);
  if (!bytes.empty() &&
      !out.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
    throw FitsError("write_bytes: short write on " + path);
  }
}

FitsFile read_file(const std::string& path) {
  // The parsed payloads view the file's bytes, and each keeps them alive.
  const auto bytes =
      std::make_shared<const std::vector<std::uint8_t>>(read_bytes(path));
  FitsFile file = FitsFile::parse(*bytes);
  for (auto& hdu : file.hdus()) hdu.data = Payload(hdu.data.bytes(), bytes);
  return file;
}

void write_file(const std::string& path, const FitsFile& file) {
  write_bytes(path, file.serialize());
}

}  // namespace spacefts::fits
