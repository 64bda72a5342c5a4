#include "common/hash.h"

#include <array>

namespace evc {
namespace {

// Slicing-by-8 tables: kTables[0] is the byte-at-a-time table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

Crc32cTables BuildCrc32cTables() {
  Crc32cTables tables{};
  constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : (crc >> 1);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32c(std::string_view data) {
  static const Crc32cTables kT = BuildCrc32cTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian by construction, whatever the host's byte order.
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    crc = kT[7][lo & 0xff] ^ kT[6][(lo >> 8) & 0xff] ^
          kT[5][(lo >> 16) & 0xff] ^ kT[4][lo >> 24] ^ kT[3][p[4]] ^
          kT[2][p[5]] ^ kT[1][p[6]] ^ kT[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = kT[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

}  // namespace evc
