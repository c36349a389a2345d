#include "objalloc/util/crc32.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// The shortest span the carry-less fold takes: its four 16-byte lanes
// start full.
constexpr size_t kFoldMinBytes = 64;

// Both kernels run on the inverted register (`crc` = ~CRC so far), so one
// can finish what the other started.
uint32_t SliceBy8(const unsigned char* bytes, size_t size, uint32_t crc) {
  const auto& t = kTables.slice;
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
  return crc;
}

#if defined(__x86_64__)

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load16(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: the 128-bit lane `a` moved along by the distance whose
// constants `k` holds (a·k_hi ⊕ a·k_lo), XORed into the lane `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i a,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x11),
                                     _mm_clmulepi64_si128(a, k, 0x00)),
                       next);
}

// Folds `size` bytes (a multiple of 16, at least 64) into the inverted
// register with carry-less multiplies: four 128-bit lanes fold 64 bytes
// per round, then fold into one lane, then 16 bytes per round, and a
// Barrett reduction brings the last 128 bits down to 32. The constants are
// the bit-reflected IEEE ones of Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009):
// x^(4·128±32) and x^(128±32) mod P for the two fold distances, x^64 mod P
// for the 64-to-32 step, then P and floor(x^64 / P) for Barrett.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(
    const unsigned char* bytes, size_t size, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load16(bytes), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load16(bytes + 16);
  __m128i x3 = Load16(bytes + 32);
  __m128i x4 = Load16(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load16(bytes));
    x2 = Fold(x2, k1k2, Load16(bytes + 16));
    x3 = Fold(x3, k1k2, Load16(bytes + 32));
    x4 = Fold(x4, k1k2, Load16(bytes + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold(x1, k3k4, Load16(bytes));
  }

  // 128 → 64 bits, then 64 → 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

// Whether this CPU runs FoldClmul; asked once per process.
bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  if (size >= kFoldMinBytes && HasClmul()) {
    const size_t folded = size & ~size_t{15};
    crc = FoldClmul(bytes, folded, crc);
    bytes += folded;
    size -= folded;
  }
#endif
  return ~SliceBy8(bytes, size, crc);
}

uint32_t Crc32Sliced(const void* data, size_t size, uint32_t seed) {
  return ~SliceBy8(static_cast<const unsigned char*>(data), size, ~seed);
}

}  // namespace objalloc::util
