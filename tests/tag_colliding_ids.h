// Two object ids that a util::FlatDirectory cannot tell apart by its
// buckets alone: the same 32-bit hash tag (so the same shard at any
// power-of-two shard count) and the same home bucket in a table of at most
// 16 buckets. In a shard where `present` is the only id registered, a
// directory probe for `absent` matches `present`'s bucket, and only the
// confirm against `present`'s slot record tells them apart.

#ifndef OBJALLOC_TESTS_TAG_COLLIDING_IDS_H_
#define OBJALLOC_TESTS_TAG_COLLIDING_IDS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "objalloc/util/flat_directory.h"

namespace objalloc::tests {

struct TagCollidingIds {
  int64_t present = -1;
  int64_t absent = -1;
};

// The first such pair among the ids [0, 2^20), or {-1, -1} when none is.
inline TagCollidingIds FindTagCollidingIds() {
  using util::FlatDirectory;
  std::vector<std::pair<uint32_t, int64_t>> by_tag;
  by_tag.reserve(size_t{1} << 20);
  for (int64_t id = 0; id < (int64_t{1} << 20); ++id) {
    by_tag.emplace_back(FlatDirectory::Tag(FlatDirectory::Hash(id)), id);
  }
  std::sort(by_tag.begin(), by_tag.end());
  for (size_t i = 1; i < by_tag.size(); ++i) {
    const int64_t a = by_tag[i - 1].second;
    const int64_t b = by_tag[i].second;
    if (by_tag[i - 1].first == by_tag[i].first &&
        FlatDirectory::Hash(a) >> 60 == FlatDirectory::Hash(b) >> 60) {
      return {a, b};
    }
  }
  return {};
}

}  // namespace objalloc::tests

#endif  // OBJALLOC_TESTS_TAG_COLLIDING_IDS_H_
