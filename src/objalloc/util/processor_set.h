// ProcessorSet: a set of processor ids backed by a 64-bit mask.
//
// The paper's model and the offline dynamic program manipulate sets of
// processors (allocation schemes, execution sets) constantly; a bitmask gives
// O(1) union/intersection/difference and popcount-based cardinality. The
// library therefore supports up to 64 processors, which far exceeds the sizes
// for which the exact offline OPT is tractable.

#ifndef OBJALLOC_UTIL_PROCESSOR_SET_H_
#define OBJALLOC_UTIL_PROCESSOR_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "objalloc/util/logging.h"

namespace objalloc::util {

// Identifies a processor in the distributed system; ids are 0-based.
using ProcessorId = int;

inline constexpr int kMaxProcessors = 64;

class ProcessorSet {
 public:
  constexpr ProcessorSet() : mask_(0) {}
  constexpr explicit ProcessorSet(uint64_t mask) : mask_(mask) {}
  ProcessorSet(std::initializer_list<ProcessorId> ids) : mask_(0) {
    for (ProcessorId id : ids) Insert(id);
  }

  // The set {id}.
  static ProcessorSet Singleton(ProcessorId id) {
    return ProcessorSet().WithInserted(id);
  }
  // The set {0, 1, ..., n-1}.
  static ProcessorSet FirstN(int n) {
    OBJALLOC_CHECK_GE(n, 0);
    OBJALLOC_CHECK_LE(n, kMaxProcessors);
    if (n == kMaxProcessors) return ProcessorSet(~uint64_t{0});
    return ProcessorSet((uint64_t{1} << n) - 1);
  }

  bool Contains(ProcessorId id) const { return (mask_ >> Checked(id)) & 1; }
  bool Empty() const { return mask_ == 0; }
  int Size() const { return std::popcount(mask_); }
  uint64_t mask() const { return mask_; }

  void Insert(ProcessorId id) { mask_ |= uint64_t{1} << Checked(id); }
  void Erase(ProcessorId id) { mask_ &= ~(uint64_t{1} << Checked(id)); }
  void Clear() { mask_ = 0; }

  ProcessorSet WithInserted(ProcessorId id) const {
    ProcessorSet s = *this;
    s.Insert(id);
    return s;
  }
  ProcessorSet WithErased(ProcessorId id) const {
    ProcessorSet s = *this;
    s.Erase(id);
    return s;
  }

  // Set algebra.
  ProcessorSet Union(ProcessorSet other) const {
    return ProcessorSet(mask_ | other.mask_);
  }
  ProcessorSet Intersect(ProcessorSet other) const {
    return ProcessorSet(mask_ & other.mask_);
  }
  ProcessorSet Minus(ProcessorSet other) const {
    return ProcessorSet(mask_ & ~other.mask_);
  }
  bool Intersects(ProcessorSet other) const {
    return (mask_ & other.mask_) != 0;
  }
  bool IsSubsetOf(ProcessorSet other) const {
    return (mask_ & ~other.mask_) == 0;
  }

  // Smallest member; the set must be non-empty.
  ProcessorId First() const {
    OBJALLOC_CHECK(!Empty());
    return std::countr_zero(mask_);
  }

  // Largest member; the set must be non-empty.
  ProcessorId Last() const {
    OBJALLOC_CHECK(!Empty());
    return kMaxProcessors - 1 - std::countl_zero(mask_);
  }

  // k-th smallest member (0-based); requires k < Size().
  ProcessorId Nth(int k) const {
    OBJALLOC_CHECK_GE(k, 0);
    OBJALLOC_CHECK_LT(k, Size());
    uint64_t m = mask_;
    while (k-- > 0) m &= m - 1;
    return std::countr_zero(m);
  }

  // Allocation-free iteration over members in increasing order:
  //   for (ProcessorId id : set) ...
  class iterator {
   public:
    using value_type = ProcessorId;
    using difference_type = std::ptrdiff_t;

    constexpr explicit iterator(uint64_t remaining)
        : remaining_(remaining) {}
    ProcessorId operator*() const { return std::countr_zero(remaining_); }
    iterator& operator++() {
      remaining_ &= remaining_ - 1;  // clear the lowest set bit
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(iterator a, iterator b) {
      return a.remaining_ == b.remaining_;
    }
    friend bool operator!=(iterator a, iterator b) {
      return a.remaining_ != b.remaining_;
    }

   private:
    uint64_t remaining_;
  };

  iterator begin() const { return iterator(mask_); }
  iterator end() const { return iterator(0); }

  // Member ids in increasing order. Allocates; hot loops should iterate the
  // set directly instead.
  std::vector<ProcessorId> ToVector() const {
    std::vector<ProcessorId> out;
    out.reserve(static_cast<size_t>(Size()));
    for (ProcessorId id : *this) out.push_back(id);
    return out;
  }

  // "{0,3,5}" rendering for logs and test failures.
  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    for (ProcessorId id : *this) {
      if (!first) out += ",";
      out += std::to_string(id);
      first = false;
    }
    out += "}";
    return out;
  }

  friend bool operator==(ProcessorSet a, ProcessorSet b) {
    return a.mask_ == b.mask_;
  }
  friend bool operator!=(ProcessorSet a, ProcessorSet b) {
    return a.mask_ != b.mask_;
  }

 private:
  // Every Contains/Insert/Erase on the serve path runs this, so it is
  // forced inline, and the CHECK message builder sits in a separate cold
  // call: inlined, the builder kept GCC from inlining Contains and friends.
  [[gnu::always_inline]] static ProcessorId Checked(ProcessorId id) {
    if (id < 0 || id >= kMaxProcessors) [[unlikely]] OutOfRange(id);
    return id;
  }
  [[gnu::cold, gnu::noinline]] static void OutOfRange(ProcessorId id) {
    OBJALLOC_CHECK_GE(id, 0);
    OBJALLOC_CHECK_LT(id, kMaxProcessors);
  }

  uint64_t mask_;
};

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_PROCESSOR_SET_H_
