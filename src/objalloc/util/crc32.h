// CRC-32 (IEEE 802.3 polynomial) for on-disk record and wire-frame
// integrity checks. Slicing-by-8: eight bytes per step through eight
// 256-entry tables, the same IEEE values as the bytewise table loop.
// Requires a little-endian host.

#ifndef OBJALLOC_UTIL_CRC32_H_
#define OBJALLOC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace objalloc::util {

// CRC of `size` bytes at `data`; `seed` allows incremental computation
// (pass a previous result).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_CRC32_H_
