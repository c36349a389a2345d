#include "objalloc/util/huge_pages.h"

#include <sys/mman.h>

#include <atomic>

namespace objalloc::util {

namespace {

constexpr size_t kSmallPageBytes = 4096;

std::atomic<uint64_t> g_mappings_made{0};
std::atomic<uint64_t> g_mappings_live{0};

size_t MappedLength(size_t bytes) {
  return (bytes + kSmallPageBytes - 1) & ~(kSmallPageBytes - 1);
}

}  // namespace

void* MapHugePages(size_t bytes) {
  const size_t length = MappedLength(bytes);
  // Over-map by one huge page less one small page, then trim both ends:
  // the only portable way to get a 2 MiB-aligned anonymous mapping.
  const size_t span = length + kHugePageBytes - kSmallPageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t start =
      (base + kHugePageBytes - 1) & ~(uintptr_t{kHugePageBytes} - 1);
  const size_t head = start - base;
  const size_t tail = span - head - length;
  if (head > 0) munmap(raw, head);
  if (tail > 0) munmap(reinterpret_cast<void*>(start + length), tail);
  // Whole 2 MiB units only; the advice is a hint, so its failure is not.
  const size_t advised = length & ~(kHugePageBytes - 1);
  madvise(reinterpret_cast<void*>(start), advised, MADV_HUGEPAGE);
  g_mappings_made.fetch_add(1, std::memory_order_relaxed);
  g_mappings_live.fetch_add(1, std::memory_order_relaxed);
  return reinterpret_cast<void*>(start);
}

void UnmapHugePages(void* data, size_t bytes) {
  munmap(data, MappedLength(bytes));
  g_mappings_live.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t HugePageMappingsMade() {
  return g_mappings_made.load(std::memory_order_relaxed);
}

uint64_t HugePageMappingsLive() {
  return g_mappings_live.load(std::memory_order_relaxed);
}

}  // namespace objalloc::util
