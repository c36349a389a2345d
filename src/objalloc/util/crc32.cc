#include "objalloc/util/crc32.h"

#include <bit>
#include <cstring>

namespace objalloc::util {

namespace {

// The sliced loop XORs the CRC into the first four input bytes of each
// step read as a native uint32_t, which is the CRC's byte order only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little);

// Slicing-by-8 tables (Kounavis & Berry, ISCC 2005). slice[0] is the
// classic bytewise table; slice[k][i] is the CRC of byte i followed by k
// zero bytes, so one 8-byte step is eight independent lookups.
struct Crc32Tables {
  uint32_t slice[8][256];

  constexpr Crc32Tables() : slice() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
      }
      slice[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = slice[k - 1][i];
        slice[k][i] = (prev >> 8) ^ slice[0][prev & 0xff];
      }
    }
  }
};

constexpr Crc32Tables kTables;

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kTables.slice;
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, bytes, sizeof(lo));
    std::memcpy(&hi, bytes + 4, sizeof(hi));
    lo ^= crc;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xff];
  }
  return ~crc;
}

}  // namespace objalloc::util
