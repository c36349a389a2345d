// FlatDirectory: an open-addressing int64 key → small-value map for the
// serving hot path's id → dense-slot directories.
//
// std::unordered_map is the wrong shape for a per-event lookup: every find
// costs an integer division (hash % bucket_count) plus a pointer chase into
// a node allocation, and at the ~0.9 load factor a reserved map settles
// into, random key subsets (hash-sharded object ids) build collision chains
// of cache-missing nodes. This directory instead keeps keys and values in
// two parallel power-of-two arrays probed linearly: the splitmix64 bit mix
// randomizes buckets for any key distribution, the capacity mask replaces
// the division, a probe touches consecutive cache lines, and the load
// factor is capped at 3/4. Splitting keys from values keeps a bucket at
// 8 + sizeof(Value) bytes — 12 for the uint32 directories — which is what
// lets a million-object route table fit a ~25-byte/object budget
// (DESIGN.md §12). A lookup touches 2 cache lines in the common case (the
// home bucket's value line and its key line; Prefetch loads both ahead of
// a batch's probes) and allocates never.
//
// Growth is *incremental*: when the load cap trips, the full table is not
// rehashed in one stop-the-world sweep. Instead the current arrays are
// frozen as the "old" table, fresh arrays are allocated, and every
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
// parameter: ObjectShard maps id → uint32 slot, ObjectService maps id →
// packed uint32 (shard, slot) route. Iteration order is intentionally not
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

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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

  FlatDirectory() = default;

  size_t size() const { return live_.size + old_.size; }
  bool empty() const { return size() == 0; }

  // Buckets across both tables (old table nonzero only mid-drain).
  size_t capacity() const { return live_.keys.size() + old_.keys.size(); }

  // Erased-but-not-yet-compacted buckets (load-factor accounting).
  size_t tombstones() const {
    return (live_.used - live_.size) + (old_.used - old_.size);
  }

  // True while an incremental growth/compaction drain is in progress.
  bool migrating() const { return !old_.keys.empty(); }

  // Heap bytes held by the bucket arrays of both tables.
  size_t MemoryUsageBytes() const {
    return (live_.keys.capacity() + old_.keys.capacity()) * sizeof(int64_t) +
           (live_.values.capacity() + old_.values.capacity()) * sizeof(Value);
  }

  // Pre-sizes the table so `expected` inserts trigger no growth. Finishes
  // any in-progress drain first (bulk registration wants one big step, not
  // amortized ones).
  void Reserve(size_t expected) {
    FinishMigration();
    const size_t capacity = CapacityFor(expected);
    if (capacity > live_.keys.size()) {
      BeginMigration(capacity);
      FinishMigration();
    }
  }

  // Value stored under `key`, or kNotFound. Mid-drain, un-migrated entries
  // still live in the old table: probe new first (every fresh insert and
  // every migrated entry lands there), then old.
  Value Find(int64_t key) const {
    const Value in_new = FindIn(live_, key);
    if (in_new != kNotFound) return in_new;
    if (!old_.keys.empty()) [[unlikely]] return FindIn(old_, key);
    return kNotFound;
  }

  bool Contains(int64_t key) const { return Find(key) != kNotFound; }

  // Starts loading the home bucket of `key` in the live table — both its
  // values[] and keys[] lines, which the split arrays keep apart — so a
  // Find(key) issued a few keys later hits cache. A hint only: no state
  // changes, no effect on any result. Always inlined: GCC deems a function
  // whose only effect is a prefetch side-effect free and deletes the calls.
  [[gnu::always_inline]] void Prefetch(int64_t key) const {
    if (live_.keys.empty()) return;
    const size_t i = Mix(key) & live_.mask;
    __builtin_prefetch(live_.values.data() + i);
    __builtin_prefetch(live_.keys.data() + i);
  }

  // Inserts key → value. The key must be absent and the value legal; both
  // are programming errors of the caller, checked fatally. Amortizes the
  // incremental drain: when a migration is in progress, a bounded run of
  // old-table buckets is rehashed into the new table first.
  void Insert(int64_t key, Value value) {
    OBJALLOC_CHECK_NE(value, kNotFound) << "reserved sentinel value";
    OBJALLOC_CHECK_NE(value, kTombstone) << "reserved sentinel value";
    if (live_.keys.empty()) InitTable(&live_, kMinCapacity);
    if (!old_.keys.empty()) [[unlikely]] {
      MigrateStep();
      // The step arithmetic guarantees the drain completes before the new
      // table trips its own cap; this backstop keeps the invariant even if
      // a caller mixes Reserve/erase patterns the bound does not model.
      if ((live_.used + 1) * 4 > live_.keys.size() * 3) FinishMigration();
    }
    if (old_.keys.empty() && (live_.used + 1) * 4 > live_.keys.size() * 3) {
      // Target ≤ 3/8 load at drain end: the new table then absorbs the whole
      // drain plus every interleaved insert before its own 3/4 cap can trip.
      // Sizing by live entries (not used buckets) makes a churn-trippped
      // growth a compaction: tombstones are dropped, capacity can shrink.
      BeginMigration(CapacityFor(2 * (size() + 1)));
      MigrateStep();
    }
    if (!old_.keys.empty()) {
      // The duplicate check must cover un-migrated entries too.
      OBJALLOC_CHECK_EQ(FindIn(old_, key), kNotFound)
          << "duplicate key " << key;
    }
    InsertIn(&live_, key, value, /*check_duplicate=*/true);
  }

  // Erases `key` if present, leaving a tombstone so probe chains through
  // this bucket stay intact. Returns whether the key was present.
  bool Erase(int64_t key) {
    if (EraseIn(&live_, key)) return true;
    if (!old_.keys.empty()) [[unlikely]] return EraseIn(&old_, key);
    return false;
  }

  // Buckets a Find(key) touches today (across both tables for a miss) —
  // the observable the churn tests bound.
  size_t ProbeLength(int64_t key) const {
    size_t probes = 0;
    if (ProbeIn(live_, key, &probes)) return probes;
    if (!old_.keys.empty()) ProbeIn(old_, key, &probes);
    return probes;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  // Minimum old-table buckets rehashed per Insert while draining.
  static constexpr size_t kMinMigrateStep = 8;

  // One open-addressing table: parallel key/value arrays (values carry the
  // empty/tombstone sentinels), power-of-two sized.
  struct Table {
    std::vector<int64_t> keys;
    std::vector<Value> values;
    size_t mask = 0;
    size_t size = 0;  // live entries
    size_t used = 0;  // live entries + tombstones (load-factor accounting)
  };

  // splitmix64 finalizer: a fixed, platform-independent mix (identity
  // hashes would chain badly for the hash-sharded id subsets this
  // directory exists to serve).
  static uint64_t Mix(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Smallest power of two holding `n` entries under the 3/4 load cap.
  static size_t CapacityFor(size_t n) {
    size_t capacity = kMinCapacity;
    while (capacity * 3 < n * 4) capacity <<= 1;
    return capacity;
  }

  static void InitTable(Table* table, size_t capacity) {
    table->keys.assign(capacity, 0);
    table->values.assign(capacity, kNotFound);
    table->mask = capacity - 1;
    table->size = 0;
    table->used = 0;
  }

  static Value FindIn(const Table& table, int64_t key) {
    if (table.keys.empty()) return kNotFound;
    size_t i = Mix(key) & table.mask;
    while (true) {
      const Value value = table.values[i];
      if (value == kNotFound) return kNotFound;
      if (value != kTombstone && table.keys[i] == key) return value;
      i = (i + 1) & table.mask;
    }
  }

  // Like FindIn but counts probed buckets into `*probes` (accumulating);
  // returns whether the key was found.
  static bool ProbeIn(const Table& table, int64_t key, size_t* probes) {
    if (table.keys.empty()) return false;
    size_t i = Mix(key) & table.mask;
    while (true) {
      ++*probes;
      const Value value = table.values[i];
      if (value == kNotFound) return false;
      if (value != kTombstone && table.keys[i] == key) return true;
      i = (i + 1) & table.mask;
    }
  }

  static void InsertIn(Table* table, int64_t key, Value value,
                       bool check_duplicate) {
    size_t i = Mix(key) & table->mask;
    size_t place = table->keys.size();  // first tombstone seen, if any
    while (table->values[i] != kNotFound) {
      if (table->values[i] == kTombstone) {
        if (place == table->keys.size()) place = i;
      } else if (check_duplicate) {
        OBJALLOC_CHECK_NE(table->keys[i], key) << "duplicate key " << key;
      }
      i = (i + 1) & table->mask;
    }
    if (place == table->keys.size()) {
      place = i;
      ++table->used;  // a tombstone was already counted as used
    }
    table->keys[place] = key;
    table->values[place] = value;
    ++table->size;
  }

  static bool EraseIn(Table* table, int64_t key) {
    if (table->keys.empty()) return false;
    size_t i = Mix(key) & table->mask;
    while (true) {
      const Value value = table->values[i];
      if (value == kNotFound) return false;
      if (value != kTombstone && table->keys[i] == key) {
        table->values[i] = kTombstone;
        --table->size;
        return true;
      }
      i = (i + 1) & table->mask;
    }
  }

  // Freezes the current arrays as the drain source and starts fresh ones.
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
      const size_t paced = (old_.keys.size() + budget - 1) / budget;
      if (paced > migrate_step_) migrate_step_ = paced;
    }
  }

  // Rehashes the next `migrate_step_` old buckets into the new table;
  // drops the old arrays when the scan completes. Migrated keys are unique
  // across both tables by construction, so no duplicate check is needed.
  void MigrateStep() {
    const size_t end = scan_pos_ + migrate_step_ < old_.keys.size()
                           ? scan_pos_ + migrate_step_
                           : old_.keys.size();
    for (; scan_pos_ < end; ++scan_pos_) {
      const Value value = old_.values[scan_pos_];
      if (value == kNotFound || value == kTombstone) continue;
      InsertIn(&live_, old_.keys[scan_pos_], value,
               /*check_duplicate=*/false);
      old_.values[scan_pos_] = kTombstone;
      --old_.size;  // bucket flips live → tombstone; used is unchanged
    }
    if (scan_pos_ >= old_.keys.size()) {
      old_ = Table();  // drain complete: free the old arrays
      scan_pos_ = 0;
    }
  }

  void FinishMigration() {
    if (old_.keys.empty()) return;
    migrate_step_ = old_.keys.size();
    MigrateStep();
  }

  Table live_;  // every new insert and every migrated entry lands here
  Table old_;   // drain source; empty except mid-migration
  size_t scan_pos_ = 0;
  size_t migrate_step_ = kMinMigrateStep;
};

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_FLAT_DIRECTORY_H_
