// FlatDirectory: an open-addressing int64 key → small-value map for the
// serving hot path's id → dense-slot directories.
//
// std::unordered_map is the wrong shape for a per-event lookup: every find
// costs an integer division (hash % bucket_count) plus a pointer chase into
// a node allocation, and at the ~0.9 load factor a reserved map settles
// into, random key subsets (hash-sharded object ids) build collision chains
// of cache-missing nodes. This directory instead keeps (key, value) buckets
// in one power-of-two array probed linearly: the splitmix64 bit mix
// randomizes buckets for any key distribution, a shift replaces the
// division, a probe touches consecutive cache lines, and the load factor is
// capped at 3/4. A bucket is packed to 8 + sizeof(Value) bytes — 12 for the
// uint32 directories — which is what lets the id → slot directories of a
// million objects fit a ~25-byte/object budget (DESIGN.md §12). A lookup
// touches 1 cache line in the common case (the home bucket; 2 of every 16
// buckets straddle a line boundary, so PrefetchHash loads the bucket's
// first and last byte ahead of a batch's probes) and allocates never.
// Tables of 2 MiB and more sit on huge pages (util/huge_pages.h), so a
// probe into a table far larger than the caches does not also walk the
// page tables.
//
// The home bucket is the hash's *high* log2(capacity) bits. The sharded
// service picks an object's shard from the same hash's low bits, so every
// key in one shard's directory shares those bits: homed by the low bits,
// only 1/S of a shard table's buckets could ever be a home, and probe runs
// grow to ~5 buckets on a hit and ~9 on a miss at 16 shards. The high bits
// are independent of the shard choice, so a shard's table probes as short
// as an unsharded one (~1.5 on a hit; tests/util_test.cc pins it).
//
// A caller that computes a key's hash ahead of its probe — admission
// prefetches each bucket a fixed distance ahead — hands the same hash to
// FindHashed, so every key is mixed once.
//
// Growth is *incremental*: when the load cap trips, the full table is not
// rehashed in one stop-the-world sweep. Instead the current array is
// frozen as the "old" table, a fresh array is allocated, and every
// subsequent Insert migrates a bounded run of old buckets before adding its
// own key (lookups probe new-then-old until the drain completes). The step
// size is chosen per migration so the drain always finishes before the new
// table can trip its own load cap, so registering the 10-millionth object
// does the same bounded work as registering the first — no rehash cliff in
// the tail latency (bench/footprint_scaling measures this). Reserve
// force-finishes any drain and pre-sizes in one step, which is what bulk
// registration wants instead.
//
// Deliberately minimal: value-based absence (kNotFound) — exactly the
// contract the serving engine needs. The value type is a template
// parameter: ObjectShard maps id → uint32 slot, and slot → a mark in its
// degraded-object registry. Iteration order is intentionally not
// provided; deterministic listings must come from the dense slot vector,
// never from a hash table.
//
// Erase support uses tombstones (the fault-tolerance layer's per-shard
// degraded-object registry inserts an object when a crash drops its scheme
// below t and erases it once repaired): an erased bucket keeps its place in
// every probe chain that stepped over it, so Find never terminates early
// past a deletion. Tombstones count toward the load cap, so churn-heavy
// erase/insert cycles trip the same 3/4 bound and drain into a fresh table
// sized for the *live* entries alone — a same-or-smaller-capacity migration
// is exactly tombstone compaction, and probe lengths stay bounded under
// unbounded churn (tests/util_test.cc drives a million-entry churn sweep).

#ifndef OBJALLOC_UTIL_FLAT_DIRECTORY_H_
#define OBJALLOC_UTIL_FLAT_DIRECTORY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "objalloc/util/huge_pages.h"
#include "objalloc/util/logging.h"

namespace objalloc::util {

template <typename Value = uint32_t>
class FlatDirectory {
 public:
  // Returned by Find for absent keys; never a legal value.
  static constexpr Value kNotFound = static_cast<Value>(-1);
  // Marks an erased bucket; also never a legal value. Probe chains treat a
  // tombstone as occupied (keep probing) while Find reports the key absent.
  static constexpr Value kTombstone = static_cast<Value>(-2);

  // One slot of the table. Packed: the value rides directly after the key,
  // so a bucket is 12 bytes, not 16, for uint32 values.
  struct [[gnu::packed]] Bucket {
    int64_t key;
    Value value;  // kNotFound marks an empty bucket
  };

  FlatDirectory() = default;

  size_t size() const { return live_.size + old_.size; }
  bool empty() const { return size() == 0; }

  // Buckets across both tables (old table nonzero only mid-drain).
  size_t capacity() const {
    return live_.buckets.size() + old_.buckets.size();
  }

  // Erased-but-not-yet-compacted buckets (load-factor accounting).
  size_t tombstones() const {
    return (live_.used - live_.size) + (old_.used - old_.size);
  }

  // True while an incremental growth/compaction drain is in progress.
  bool migrating() const { return !old_.buckets.empty(); }

  // Bytes held by the bucket arrays of both tables.
  size_t MemoryUsageBytes() const { return capacity() * sizeof(Bucket); }

  // Pre-sizes the table so `expected` inserts trigger no growth. Finishes
  // any in-progress drain first (bulk registration wants one big step, not
  // amortized ones).
  void Reserve(size_t expected) {
    FinishMigration();
    const size_t capacity = CapacityFor(expected);
    if (capacity > live_.buckets.size()) {
      BeginMigration(capacity);
      FinishMigration();
    }
  }

  // The splitmix64 finalizer every probe starts from: a fixed,
  // platform-independent mix (identity hashes would chain badly for the
  // hash-sharded id subsets this directory exists to serve). It does not
  // depend on the table, so a hash stays valid across growth.
  static uint64_t Hash(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Value stored under `key`, or kNotFound.
  Value Find(int64_t key) const { return FindHashed(key, Hash(key)); }

  // Find with `hash` == Hash(key) already computed. Mid-drain, un-migrated
  // entries still live in the old table: probe new first (every fresh
  // insert and every migrated entry lands there), then old.
  Value FindHashed(int64_t key, uint64_t hash) const {
    const Value in_new = FindIn(live_, key, hash);
    if (in_new != kNotFound) return in_new;
    if (!old_.buckets.empty()) [[unlikely]] return FindIn(old_, key, hash);
    return kNotFound;
  }

  bool Contains(int64_t key) const { return Find(key) != kNotFound; }

  // Starts loading the home bucket of the key whose Hash is `hash` in the
  // live table — its first and last byte, since a 12-byte bucket can
  // straddle two lines — so a FindHashed issued a few keys later hits
  // cache. A hint only: no state changes, no effect on any result. Always
  // inlined: GCC deems a function whose only effect is a prefetch side-
  // effect free and deletes the calls.
  [[gnu::always_inline]] void PrefetchHash(uint64_t hash) const {
    if (live_.buckets.empty()) return;
    const char* bucket = reinterpret_cast<const char*>(
        live_.buckets.data() + live_.Home(hash));
    __builtin_prefetch(bucket);
    __builtin_prefetch(bucket + sizeof(Bucket) - 1);
  }

  // Inserts key → value. The key must be absent and the value legal; both
  // are programming errors of the caller, checked fatally. Amortizes the
  // incremental drain: when a migration is in progress, a bounded run of
  // old-table buckets is rehashed into the new table first.
  void Insert(int64_t key, Value value) {
    OBJALLOC_CHECK_NE(value, kNotFound) << "reserved sentinel value";
    OBJALLOC_CHECK_NE(value, kTombstone) << "reserved sentinel value";
    if (live_.buckets.empty()) InitTable(&live_, kMinCapacity);
    if (!old_.buckets.empty()) [[unlikely]] {
      MigrateStep();
      // The step arithmetic guarantees the drain completes before the new
      // table trips its own cap; this backstop keeps the invariant even if
      // a caller mixes Reserve/erase patterns the bound does not model.
      if ((live_.used + 1) * 4 > live_.buckets.size() * 3) FinishMigration();
    }
    if (old_.buckets.empty() &&
        (live_.used + 1) * 4 > live_.buckets.size() * 3) {
      // Target ≤ 3/8 load at drain end: the new table then absorbs the whole
      // drain plus every interleaved insert before its own 3/4 cap can trip.
      // Sizing by live entries (not used buckets) makes a churn-trippped
      // growth a compaction: tombstones are dropped, capacity can shrink.
      BeginMigration(CapacityFor(2 * (size() + 1)));
      MigrateStep();
    }
    const uint64_t hash = Hash(key);
    if (!old_.buckets.empty()) {
      // The duplicate check must cover un-migrated entries too.
      OBJALLOC_CHECK_EQ(FindIn(old_, key, hash), kNotFound)
          << "duplicate key " << key;
    }
    InsertIn(&live_, key, hash, value, /*check_duplicate=*/true);
  }

  // Erases `key` if present, leaving a tombstone so probe chains through
  // this bucket stay intact. Returns whether the key was present.
  bool Erase(int64_t key) {
    const uint64_t hash = Hash(key);
    if (EraseIn(&live_, key, hash)) return true;
    if (!old_.buckets.empty()) [[unlikely]] return EraseIn(&old_, key, hash);
    return false;
  }

  // Buckets a Find(key) touches today (across both tables for a miss) —
  // the observable the churn tests bound.
  size_t ProbeLength(int64_t key) const {
    const uint64_t hash = Hash(key);
    size_t probes = 0;
    if (ProbeIn(live_, key, hash, &probes)) return probes;
    if (!old_.buckets.empty()) ProbeIn(old_, key, hash, &probes);
    return probes;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  // Minimum old-table buckets rehashed per Insert while draining.
  static constexpr size_t kMinMigrateStep = 8;

  // One open-addressing table: a power-of-two bucket array (values carry
  // the empty/tombstone sentinels). A key's home bucket is the top
  // log2(capacity) bits of its hash; probes step on modulo the capacity.
  struct Table {
    HugePageArray<Bucket> buckets;
    size_t mask = 0;
    int shift = 64;   // 64 - log2(capacity)
    size_t size = 0;  // live entries
    size_t used = 0;  // live entries + tombstones (load-factor accounting)

    size_t Home(uint64_t hash) const {
      return static_cast<size_t>(hash >> shift);
    }
  };

  // Smallest power of two holding `n` entries under the 3/4 load cap.
  static size_t CapacityFor(size_t n) {
    size_t capacity = kMinCapacity;
    while (capacity * 3 < n * 4) capacity <<= 1;
    return capacity;
  }

  static void InitTable(Table* table, size_t capacity) {
    table->buckets = HugePageArray<Bucket>(capacity, Bucket{0, kNotFound});
    table->mask = capacity - 1;
    table->shift = 64 - std::countr_zero(capacity);
    table->size = 0;
    table->used = 0;
  }

  static Value FindIn(const Table& table, int64_t key, uint64_t hash) {
    if (table.buckets.empty()) return kNotFound;
    size_t i = table.Home(hash);
    while (true) {
      const Bucket& bucket = table.buckets[i];
      const Value value = bucket.value;
      if (value == kNotFound) return kNotFound;
      if (value != kTombstone && bucket.key == key) return value;
      i = (i + 1) & table.mask;
    }
  }

  // Like FindIn but counts probed buckets into `*probes` (accumulating);
  // returns whether the key was found.
  static bool ProbeIn(const Table& table, int64_t key, uint64_t hash,
                      size_t* probes) {
    if (table.buckets.empty()) return false;
    size_t i = table.Home(hash);
    while (true) {
      ++*probes;
      const Bucket& bucket = table.buckets[i];
      if (bucket.value == kNotFound) return false;
      if (bucket.value != kTombstone && bucket.key == key) return true;
      i = (i + 1) & table.mask;
    }
  }

  static void InsertIn(Table* table, int64_t key, uint64_t hash, Value value,
                       bool check_duplicate) {
    size_t i = table->Home(hash);
    size_t place = table->buckets.size();  // first tombstone seen, if any
    while (table->buckets[i].value != kNotFound) {
      if (table->buckets[i].value == kTombstone) {
        if (place == table->buckets.size()) place = i;
      } else if (check_duplicate) {
        const int64_t present = table->buckets[i].key;  // no packed refs
        OBJALLOC_CHECK_NE(present, key) << "duplicate key " << key;
      }
      i = (i + 1) & table->mask;
    }
    if (place == table->buckets.size()) {
      place = i;
      ++table->used;  // a tombstone was already counted as used
    }
    table->buckets[place] = Bucket{key, value};
    ++table->size;
  }

  static bool EraseIn(Table* table, int64_t key, uint64_t hash) {
    if (table->buckets.empty()) return false;
    size_t i = table->Home(hash);
    while (true) {
      Bucket& bucket = table->buckets[i];
      if (bucket.value == kNotFound) return false;
      if (bucket.value != kTombstone && bucket.key == key) {
        bucket.value = kTombstone;
        --table->size;
        return true;
      }
      i = (i + 1) & table->mask;
    }
  }

  // Freezes the current array as the drain source and starts a fresh one.
  // The per-insert step is sized so scanning all old buckets finishes
  // within ~3/8 of the new capacity inserts — before the new table (seeded
  // with at most the old live entries) can reach its own 3/4 cap.
  void BeginMigration(size_t capacity) {
    old_ = std::move(live_);
    InitTable(&live_, capacity);
    scan_pos_ = 0;
    migrate_step_ = kMinMigrateStep;
    const size_t budget = capacity * 3 / 8;
    if (budget > 0) {
      const size_t paced = (old_.buckets.size() + budget - 1) / budget;
      if (paced > migrate_step_) migrate_step_ = paced;
    }
  }

  // Rehashes the next `migrate_step_` old buckets into the new table;
  // drops the old array when the scan completes. Migrated keys are unique
  // across both tables by construction, so no duplicate check is needed.
  void MigrateStep() {
    const size_t end = scan_pos_ + migrate_step_ < old_.buckets.size()
                           ? scan_pos_ + migrate_step_
                           : old_.buckets.size();
    for (; scan_pos_ < end; ++scan_pos_) {
      Bucket& bucket = old_.buckets[scan_pos_];
      if (bucket.value == kNotFound || bucket.value == kTombstone) continue;
      InsertIn(&live_, bucket.key, Hash(bucket.key), bucket.value,
               /*check_duplicate=*/false);
      bucket.value = kTombstone;
      --old_.size;  // bucket flips live → tombstone; used is unchanged
    }
    if (scan_pos_ >= old_.buckets.size()) {
      old_ = Table();  // drain complete: free the old array
      scan_pos_ = 0;
    }
  }

  void FinishMigration() {
    if (old_.buckets.empty()) return;
    migrate_step_ = old_.buckets.size();
    MigrateStep();
  }

  Table live_;  // every new insert and every migrated entry lands here
  Table old_;   // drain source; empty except mid-migration
  size_t scan_pos_ = 0;
  size_t migrate_step_ = kMinMigrateStep;
};

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_FLAT_DIRECTORY_H_
