// HugePageArray — a fixed-size, owning array whose large instances are
// backed by 2 MiB pages.
//
// The serving engine's two big tables, the shards' id → slot directories
// and the slab runs of slot records, are probed at random addresses. On a
// multi-hundred-megabyte working set every such access misses the TLB on
// 4 KiB pages, so it pays a page walk on top of its cache miss. An array
// of at least kHugePageBytes is therefore mapped directly with mmap, at a
// 2 MiB-aligned start and a length rounded up to 4 KiB, and its whole
// 2 MiB units are advised with madvise(MADV_HUGEPAGE) so transparent huge
// pages back them even when the system's THP mode is `madvise`. The
// partial tail unit is left unadvised, so it never costs a whole huge page
// of RSS. A failed advice is ignored (THP `never` runs the same code on
// 4 KiB pages), and the mapping is unmapped on free, so a freed table
// returns its memory to the system at once instead of fragmenting the
// malloc heap. Smaller arrays keep operator new.
//
// The mapping counters are process-wide. They let the zero-allocation
// tests see the mapped arrays, which an operator-new hook cannot.
//
// T must be trivially destructible: elements are constructed once by copy
// from a fill value and never destroyed one by one.

#ifndef OBJALLOC_UTIL_HUGE_PAGES_H_
#define OBJALLOC_UTIL_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace objalloc::util {

// Arrays at least this large are mapped and advised onto huge pages; it is
// also the huge page size and the mapping's start alignment.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

// Maps `bytes` (>= kHugePageBytes) of zeroed memory as described above;
// throws std::bad_alloc when the mapping fails.
void* MapHugePages(size_t bytes);
// Unmaps a MapHugePages(bytes) result.
void UnmapHugePages(void* data, size_t bytes);

// Mappings made by MapHugePages since the process started, and mappings
// currently live (made and not yet unmapped).
uint64_t HugePageMappingsMade();
uint64_t HugePageMappingsLive();

template <typename T>
class HugePageArray {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  HugePageArray() = default;
  // `size` elements, each a copy of `fill`.
  HugePageArray(size_t size, const T& fill) : size_(size) {
    if (size_ == 0) return;
    data_ = static_cast<T*>(Allocate(bytes()));
    std::uninitialized_fill_n(data_, size_, fill);
  }
  HugePageArray(HugePageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  HugePageArray& operator=(HugePageArray&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~HugePageArray() { Free(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bytes() const { return size_ * sizeof(T); }
  // True when the array is mapped (and advised) rather than heap-allocated.
  bool mapped() const { return bytes() >= kHugePageBytes; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  static void* Allocate(size_t bytes) {
    if (bytes >= kHugePageBytes) return MapHugePages(bytes);
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return ::operator new(bytes, std::align_val_t{alignof(T)});
    } else {
      return ::operator new(bytes);
    }
  }

  void Free() {
    if (data_ == nullptr) return;
    if (mapped()) {
      UnmapHugePages(data_, bytes());
    } else if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(data_, std::align_val_t{alignof(T)});
    } else {
      ::operator delete(data_);
    }
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_HUGE_PAGES_H_
