// CRC-32 (IEEE 802.3 polynomial) for on-disk record and wire-frame
// integrity checks. Two kernels compute the same IEEE values:
//   * spans of 64 bytes or more, on an x86-64 CPU with PCLMULQDQ
//     and SSE4.1 (asked once per process), fold their 16-byte-multiple
//     prefix with carry-less multiplies, and slicing-by-8 finishes the
//     tail of under 16 bytes;
//   * everything else — shorter spans, other CPUs — runs slicing-by-8
//     alone: eight bytes per step through eight 256-entry tables.
// A 28-byte kRead frame therefore stays on the sliced loop and a 436-byte
// 32-event kBatch frame takes the fold. Requires a little-endian host.

#ifndef OBJALLOC_UTIL_CRC32_H_
#define OBJALLOC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace objalloc::util {

// CRC of `size` bytes at `data`; `seed` allows incremental computation
// (pass a previous result).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// Crc32 on the slicing-by-8 loop alone, whatever the span and CPU. The
// same values; declared so tests cover the path CPUs without PCLMULQDQ
// take on hosts that have it.
uint32_t Crc32Sliced(const void* data, size_t size, uint32_t seed = 0);

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_CRC32_H_
