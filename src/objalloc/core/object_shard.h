// ObjectShard — the per-object state machine of the multi-object serving
// path, extracted so it can be replicated: a shard owns a disjoint subset of
// the objects (hash-partitioned by the ObjectService) and executes the
// requests routed to it strictly in stream order. Because objects never span
// shards, per-object request order — the only order the DOM algorithms are
// sensitive to — is preserved no matter how many shards exist, which is the
// heart of the service layer's determinism argument (DESIGN.md §7).
//
// The shard is the devirtualized serving engine (DESIGN.md §8), laid out for
// millions of objects under an explicit footprint budget (DESIGN.md §12):
//
//   * Object state lives in fixed-size slab pages of 64-byte SlotRecords
//     indexed by *slot*. Pages are never moved, so growing to the N-th
//     object allocates O(page) — no vector-doubling copy of the whole
//     shard, and a slot's address is stable for the shard's lifetime.
//     Registration grows the slab one 128 KiB page at a time; a Reserve or
//     snapshot restore that needs kMinRunPages or more pages at once gets
//     them as one run on 2 MiB pages (util/huge_pages.h), so random
//     accesses into a large slab do not also miss the TLB. No removal API
//     exists, so the slots below the span are exactly the objects.
//   * A SlotRecord bit-packs the full inline SA/DA machine: identity, the
//     scheme and DA core-set masks, and a meta word holding the dispatch
//     tag, availability threshold, DA floating processor and round-robin
//     index, and the crash-log cursor, beside the per-object request count
//     and cost breakdown — exactly 64 bytes, and alignas(64) so every slab
//     page (aligned new, or a 2 MiB-aligned run) puts each record on its
//     own cache line.
//   * The per-request cost scalars previously stored per object are a pure
//     function of (kind, t) and the shard's cost model, so they live in one
//     per-shard table of ≤ 3×65 entries, folded at construction in the
//     *same association order* as before — (ctrl*cc + cd-term) + cio-term —
//     so the factoring-out cannot perturb a single result bit.
//   * The engine serves the paper's two algorithms, SA and DA, and
//     dispatches on the packed tag — no heap indirection, no virtual
//     Step() call. Registration rejects every other AlgorithmKind; those
//     run through the DomAlgorithm interface directly (core/runner.h).
//   * Every shard owns the id → slot directory of its own objects (a
//     util::FlatDirectory), the only id index in the engine: the
//     ObjectService hashes an id once, picks its shard from the hash's low
//     bits and probes that shard's directory with the same hash (the
//     directory homes keys by the high bits, so a shard's subset of ids
//     spreads over its whole table). A bucket holds a 32-bit hash tag and
//     the slot, 8 bytes, not the id: a tag match is confirmed against the
//     slot's SlotRecord::id. Admission takes the first tag match as a
//     candidate and the serve confirms it (ConfirmSlot) on the record line
//     it reads anyway. So a slot's id is written before its directory
//     Insert and erased from the directory before the record is
//     overwritten.
//
// Aggregate accounting (TotalBreakdown / TotalRequests) is maintained
// incrementally on every served request, so the totals are O(1) reads
// rather than an O(objects) re-summation per call.
//
// Fault tolerance (DESIGN.md §9): the shard additionally owns the per-object
// half of the failure model. Crashes scrub schemes *lazily*: the service
// appends every applied crash to an append-only CrashLog, each slot keeps
// its position in that log, and ServeSlotFaulty starts by dropping members
// crashed at fault-time indices in the window since the object's previous
// event — exactly that window, which keeps scheme state a pure function of
// per-object event order even when a member joins and crashes inside one
// batch (an eager scrub at crash time would run against pre-batch schemes
// and miss, or mis-order, such members). A crashed copy is stale on
// recovery — erasure is never undone by a later recover, matching the
// simulator's recover-with-invalidated-copy semantics. NoteCrash registers
// crash-time scheme members in a degraded-slot directory for eager repair;
// ServeSlotFaulty itself is the liveness-aware twin of ServeSlot —
// execution sets intersected with the live set, t-availability repaired by
// deterministic re-replication charged as saving-reads, message loss
// retried with exponential-backoff accounting — that is bit-identical to
// ServeSlot when no fault fires.

#ifndef OBJALLOC_CORE_OBJECT_SHARD_H_
#define OBJALLOC_CORE_OBJECT_SHARD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "objalloc/core/dom_algorithm.h"
#include "objalloc/core/fault_injector.h"
#include "objalloc/model/cost_evaluator.h"
#include "objalloc/util/flat_directory.h"
#include "objalloc/util/huge_pages.h"
#include "objalloc/util/record_io.h"
#include "objalloc/util/status.h"

namespace objalloc::core {

using ObjectId = int64_t;

struct ObjectConfig {
  ProcessorSet initial_scheme;               // also fixes t
  AlgorithmKind algorithm = AlgorithmKind::kDynamic;
};

// Per-object and aggregate accounting.
struct ObjectStats {
  int64_t requests = 0;
  model::CostBreakdown breakdown;
  ProcessorSet scheme;  // current allocation scheme
};

class ObjectShard {
 public:
  // Sentinel returned by SlotOf for unregistered ids.
  static constexpr uint32_t kInvalidSlot =
      util::FlatDirectory::kNotFound;

  ObjectShard(int num_processors, const model::CostModel& cost_model);

  // Movable so ObjectService can hold shards by value; a move keeps every
  // slot's address. Not copyable: pages_ points into the shard's own runs.
  ObjectShard(ObjectShard&&) = default;
  ObjectShard& operator=(ObjectShard&&) = default;
  ObjectShard(const ObjectShard&) = delete;
  ObjectShard& operator=(const ObjectShard&) = delete;

  // Registers an object and returns its dense slot. Fails on duplicate ids,
  // empty or out-of-range schemes, algorithms other than SA and DA, and
  // algorithm/threshold mismatches (DA needs t >= 2).
  util::StatusOr<uint32_t> AddObject(ObjectId id, const ObjectConfig& config);

  // The validation half of AddObject, minus the duplicate-id check (that
  // needs a directory). Static so the service layer can pre-validate a
  // registration *before* write-ahead logging it: a logged AddObject record
  // must never fail on replay.
  static util::Status ValidateConfig(const ObjectConfig& config,
                                     int num_processors);

  // Sizes every internal table ahead of a bulk registration: the id → slot
  // directory rehashes once and the slab pages for `expected_objects` slots
  // are allocated up front (as one huge-page run when that is kMinRunPages
  // or more new pages), so the registration burst itself allocates
  // nothing.
  void Reserve(size_t expected_objects);

  bool HasObject(ObjectId id) const {
    return directory_.Contains(id, SlotIds());
  }
  size_t object_count() const { return slot_count_; }
  int num_processors() const { return num_processors_; }

  // Bytes held by the shard, heap and mapped: slab pages, directories,
  // degraded registry, and dirty bitmap. The per-object cost of the engine is
  // MemoryUsageBytes() / object_count() — bench/footprint_scaling budgets
  // it.
  size_t MemoryUsageBytes() const;

  // Dense slot of `id`, or kInvalidSlot. One flat-directory probe —
  // resolve once, then serve through the slot without hashing.
  uint32_t SlotOf(ObjectId id) const {
    return directory_.Find(id, SlotIds());
  }
  // Admission's half of a SlotOf, with `hash` == util::FlatDirectory::Hash
  // of the id: the slot whose directory bucket first matches the hash's
  // tag, or kInvalidSlot when none does (then the id is surely absent).
  // Reads only the directory. A match is unconfirmed — rarely (≈2⁻²⁸ per
  // compared bucket at 16 shards) it is another id's slot — so the serve,
  // which reads the slot's record anyway, passes it through ConfirmSlot.
  uint32_t CandidateSlotHashed(uint64_t hash) const {
    return directory_.CandidateHashed(hash);
  }
  // `candidate` (a slot CandidateSlotHashed returned) when its record holds
  // `id`, else SlotOf(id): the slot of `id`, or kInvalidSlot.
  uint32_t ConfirmSlot(uint32_t candidate, ObjectId id) const {
    if (Slot(candidate).id == id) [[likely]] return candidate;
    return SlotOf(id);
  }
  // Starts loading the directory bucket a CandidateSlotHashed(hash) reads.
  // A hint only; always inlined, like PrefetchSlot.
  [[gnu::always_inline]] void PrefetchDirectory(uint64_t hash) const {
    directory_.PrefetchHash(hash);
  }

  // Id stored at `slot`; requires slot < slot_span(). Restore reads it to
  // check that every object sits in the shard its hash picks.
  ObjectId IdAt(uint32_t slot) const { return Slot(slot).id; }

  // Availability threshold of the object at `slot` (degraded admission
  // checks |live| >= t per event without re-hashing the id).
  int32_t ThresholdAt(uint32_t slot) const { return Slot(slot).t(); }

  // One past the highest slot allocated (equal to object_count()); the
  // iteration bound for slot-addressed walks like the snapshot writer.
  uint32_t slot_span() const { return slot_count_; }

  // Serves one request against one object, returning the request's cost.
  // Requests against the same object must arrive in stream order.
  util::StatusOr<double> Serve(ObjectId id, const Request& request);

  // Validation-free hot path: the caller has already resolved the slot
  // (SlotOf) and admitted the request (processor in range).
  // The request's breakdown is additionally accumulated into `*delta` when
  // non-null so a batch can account its own traffic without re-walking the
  // shard.
  double ServeSlot(uint32_t slot, const Request& request,
                   model::CostBreakdown* delta);

  // How many events ahead of the one being served a batch loop fetches the
  // next record (and, in admission, the next directory bucket). The
  // per-event work is a few dozen ns while a cold record costs a miss of
  // ~100 ns, so the fetch must be issued several events early. On
  // BM_ServiceBatchColdObjects (EXPERIMENTS.md E11), 4 is clearly slower
  // and 8, 16 and 32 are within noise of each other; 16 sits mid-plateau,
  // and a shorter distance leaves fewer events at the head of each batch
  // or sub-batch unfetched. Every batch loop uses this one constant.
  static constexpr size_t kPrefetchDistance = 16;

  // Starts loading the record at `slot` for write, ahead of its ServeSlot /
  // ServeSlotFaulty call. `slot` must be a valid slot (< slot_span()). A
  // hint only: no state changes, no effect on any result. Always inlined,
  // like util::FlatDirectory::PrefetchHash, or GCC deletes the calls.
  [[gnu::always_inline]] void PrefetchSlot(uint32_t slot) const {
    __builtin_prefetch(&Slot(slot), /*rw=*/1);
  }
  // PrefetchSlot for a reader that only confirms the record's id
  // (ObjectService::FirstRefusal): a read fetch does not claim the line
  // from the worker that serves it.
  [[gnu::always_inline]] void PrefetchSlotForRead(uint32_t slot) const {
    __builtin_prefetch(&Slot(slot), /*rw=*/0);
  }

  // Liveness-aware twin of ServeSlot for the fault-injection path. The
  // caller guarantees the issuer is live and |live| >= t for this object
  // (degraded admission), and that `crash_log` holds every applied crash at
  // a nondecreasing fault-time index. First scrubs members crashed since
  // the object's previous event (records in (last event, event_index]),
  // then repairs the scheme to t live replicas before the request runs (and
  // again after a write whose execution set lost members), charges
  // deterministic message-loss retries, and — when `check_invariant` —
  // asserts |scheme ∩ live| >= t afterwards. With an all-live set and no
  // loss draws this computes bit-identical costs and state transitions to
  // ServeSlot (asserted by tests/fault_injection_test). Only inlinable
  // kinds (SA, DA) are supported.
  double ServeSlotFaulty(uint32_t slot, const Request& request,
                         size_t event_index, ProcessorSet live,
                         const CrashLog& crash_log,
                         const FaultInjector& injector,
                         model::CostBreakdown* delta, FaultStats* stats,
                         bool check_invariant);

  // Registers every object whose scheme holds crashed processor `p` in the
  // degraded directory for eager repair. The scheme itself is *not*
  // mutated here: eviction happens lazily from the crash log on the
  // object's serve timeline (see ServeSlotFaulty), the only order in which
  // in-batch joins and crashes compose correctly.
  void NoteCrash(ProcessorId p);

  // Eagerly repairs every degraded object that can reach t live replicas
  // (lowest slots first — deterministic): pending crash-log records are
  // applied first, then the scheme is re-replicated up to t, charged into
  // the lifetime accounting. Objects whose t exceeds |live| stay degraded.
  // Returns the number of replicas created.
  int64_t RepairAllDegraded(ProcessorSet live, size_t event_index,
                            const CrashLog& crash_log,
                            const FaultInjector& injector, FaultStats* stats,
                            bool check_invariant);

  // Applies every remaining crash-log record to every slot and resets the
  // per-slot log positions and the degraded registry. Called when the
  // service arms or disarms fault mode, so schemes reflect the full crash
  // history before the log is discarded.
  void FlushCrashLog(const CrashLog& crash_log);

  // Marks the object at `slot` as born after the first `pos` crash-log
  // records: crashes recorded before registration (its scheme was validated
  // against the then-live set) never apply to it.
  void SetCrashLogStart(uint32_t slot, size_t pos) {
    Slot(slot).set_crash_log_pos(pos);
    MarkDirty(slot);
  }

  // Objects currently registered as degraded (|scheme| < t or broken DA
  // core set after crashes) and not yet repaired.
  size_t degraded_count() const { return degraded_.size(); }

  util::StatusOr<ObjectStats> StatsFor(ObjectId id) const;

  // Per-object accounting of the (valid, occupied) slot.
  ObjectStats StatsAt(uint32_t slot) const;

  // Incrementally maintained aggregates; O(1).
  const model::CostBreakdown& TotalBreakdown() const {
    return total_breakdown_;
  }
  double TotalCost() const { return total_breakdown_.Cost(cost_model_); }
  int64_t TotalRequests() const { return total_requests_; }

  // Object ids in ascending order — the explicit sort that aggregation
  // points use to iterate deterministically over the unordered table.
  std::vector<ObjectId> SortedObjectIds() const;

  // One registered object's id and current allocation scheme, laid out
  // as the 16 bytes ObjectService::SchemeCrc checksums.
  struct IdScheme {
    ObjectId id;
    uint64_t scheme_mask;
  };
  // Appends every registered object's IdScheme in slot order: one walk of
  // the slab, no directory probe.
  void AppendIdSchemes(std::vector<IdScheme>* out) const;

  // --- Snapshots (core/checkpoint.h, DESIGN.md §12–§13) ----------------
  //
  // One byte format serves full and delta checkpoints:
  //
  //   header  u64 slot span, u32 range count
  //   ranges  per range, u32 begin and u32 end, then the end − begin
  //           SlotRecords of those slots: 64 bytes each, copied verbatim
  //           from the slab (native little-endian, layout pinned below)
  //   footer  lifetime aggregates, then the degraded registry
  //
  // A full snapshot is the one range [0, span). A delta is the dirty
  // ranges CollectDirtyRanges returns, so its cost is proportional to the
  // pages touched since the previous checkpoint, not to the shard. Every
  // slot below the span holds an object, so no slot needs a presence mark.

  // Streams the snapshot over `ranges` (ascending, disjoint, within
  // slot_span()) to `sink`: the header, each range header followed by its
  // records one slab page at a time (straight from the page, uncopied),
  // then the footer. Stops at, and returns, the first error `sink` returns.
  util::Status StreamSnapshot(
      std::span<const std::pair<uint32_t, uint32_t>> ranges,
      const std::function<util::Status(std::string_view)>& sink) const;

  // Applies a snapshot on top of the shard's state — a fresh shard for a
  // full one, the base and earlier deltas for a delta — one chunk at a
  // time and in order; `last` marks the final chunk, and BeginRestore
  // resets the cursor before each snapshot. Chunk boundaries are arbitrary
  // (a partial record is carried to the next call). Each record is checked
  // before it touches the slab; the span must not shrink, the ranges must
  // ascend without overlapping, every slot from the old span up must
  // arrive, and the footer replaces the aggregates and the degraded
  // registry. A payload that violates an invariant
  // (unknown kind, out-of-range scheme, duplicate id, a span at or past the
  // slot limit) is rejected as Internal, and the caller falls back to an
  // older checkpoint generation. The directory follows the records: a slot
  // restored under another id drops the old one.
  void BeginRestore();
  util::Status RestoreChunk(std::string_view chunk, bool last);

  // --- Dirty tracking for delta checkpoints (DESIGN.md §13) -------------

  // Arms tracking: one dirty bit per slab page, set on every slot
  // mutation. Every existing page starts dirty (the caller is expected to
  // take a full base snapshot and then ClearDirty).
  void EnableDirtyTracking();
  void DisableDirtyTracking();
  // Clears every dirty bit — call only after the checkpoint that captured
  // them has durably committed.
  void ClearDirty();
  // The dirty pages as maximal merged [begin, end) slot ranges clipped to
  // slot_span(), ascending.
  void CollectDirtyRanges(
      std::vector<std::pair<uint32_t, uint32_t>>* out) const;

 private:
  // One dense slot of the serving engine: the full inline SA/DA machine in
  // exactly 64 bytes, aligned to one cache line. The dispatch tag, availability
  // threshold, DA floating processor / round-robin index, and crash-log
  // cursor are bit-packed into one meta word:
  //
  //   bits  0..3   algorithm kind            (AlgorithmKind, 3 values)
  //   bits  4..10  t                         (1..64)
  //   bits 11..17  p + 1                     (0 encodes "no floating proc")
  //   bits 18..24  next_f                    (round-robin F index, < t-1)
  //   bits 25..31  reserved, zero
  //   bits 32..63  crash_log_pos             (applied crash-log prefix)
  //
  // Cost scalars live in the shard-level (kind, t) table, so they do not
  // widen the record. A snapshot writes the record's bytes as they are, so
  // its layout is the snapshot format: the asserts below pin it.
  struct alignas(64) SlotRecord {
    ObjectId id = -1;          // -1 only in a slot not yet allocated
    uint64_t scheme_mask = 0;  // current allocation scheme
    uint64_t f_mask = 0;       // DA: core set F
    uint64_t meta = 0;
    int64_t requests = 0;
    model::CostBreakdown breakdown;

    AlgorithmKind kind() const {
      return static_cast<AlgorithmKind>(meta & 0xF);
    }
    int32_t t() const { return static_cast<int32_t>((meta >> 4) & 0x7F); }
    int32_t p() const {
      return static_cast<int32_t>((meta >> 11) & 0x7F) - 1;
    }
    uint32_t next_f() const {
      return static_cast<uint32_t>((meta >> 18) & 0x7F);
    }
    size_t crash_log_pos() const { return static_cast<size_t>(meta >> 32); }

    void set_p(int32_t p) {
      meta = (meta & ~(uint64_t{0x7F} << 11)) |
             (static_cast<uint64_t>(p + 1) << 11);
    }
    void set_next_f(uint32_t next_f) {
      meta = (meta & ~(uint64_t{0x7F} << 18)) |
             (static_cast<uint64_t>(next_f) << 18);
    }
    void set_crash_log_pos(size_t pos) {
      meta = (meta & 0xFFFFFFFFULL) | (static_cast<uint64_t>(pos) << 32);
    }
    static uint64_t PackMeta(AlgorithmKind kind, int32_t t, int32_t p,
                             uint32_t next_f, size_t crash_log_pos) {
      return (static_cast<uint64_t>(kind) & 0xF) |
             ((static_cast<uint64_t>(t) & 0x7F) << 4) |
             ((static_cast<uint64_t>(p + 1) & 0x7F) << 11) |
             ((static_cast<uint64_t>(next_f) & 0x7F) << 18) |
             (static_cast<uint64_t>(crash_log_pos) << 32);
    }
  };
  static_assert(sizeof(SlotRecord) == 64,
                "SlotRecord is budgeted at one cache line per object");
  // Without it a slab page is only 8-aligned (glibc hands 128 KiB arrays
  // out at mmap base + 16), and most records then straddle two lines.
  static_assert(alignof(SlotRecord) == 64,
                "every SlotRecord must start on a cache line");
  static_assert(std::is_trivially_copyable_v<SlotRecord> &&
                std::endian::native == std::endian::little);
  static_assert(offsetof(SlotRecord, id) == 0 &&
                offsetof(SlotRecord, scheme_mask) == 8 &&
                offsetof(SlotRecord, f_mask) == 16 &&
                offsetof(SlotRecord, meta) == 24 &&
                offsetof(SlotRecord, requests) == 32 &&
                offsetof(SlotRecord, breakdown) == 40 &&
                offsetof(model::CostBreakdown, control_messages) == 0 &&
                offsetof(model::CostBreakdown, data_messages) == 8 &&
                offsetof(model::CostBreakdown, io_ops) == 16 &&
                sizeof(model::CostBreakdown) == 24,
                "the snapshot format is this layout, with no padding");

  // Per-(kind, t) cost scalars, shared by every object of that shape.
  struct CostEntry {
    double read_local = 0;   // read by a scheme member: one input
    double read_remote = 0;  // SA remote plain read / DA saving-read
    // SA: full cost of a write by a member / non-member of Q.
    // DA: the (t-1)*cd data term / t*cio io term of a write (the varying
    //     control term is added per event in canonical order).
    double write_a = 0;
    double write_b = 0;
  };

  // Slab geometry: 2048 slots × 64 B = 128 KiB pages.
  static constexpr uint32_t kPageShift = 11;
  static constexpr uint32_t kPageSlots = 1u << kPageShift;
  static constexpr uint32_t kPageMask = kPageSlots - 1;
  // Growth by this many pages or more is one run, exactly the size from
  // which util::HugePageArray maps and advises huge pages.
  static constexpr size_t kMinRunPages = 16;
  static_assert(kMinRunPages * kPageSlots * sizeof(SlotRecord) ==
                util::kHugePageBytes);

  SlotRecord& Slot(uint32_t slot) {
    return pages_[slot >> kPageShift][slot & kPageMask];
  }
  const SlotRecord& Slot(uint32_t slot) const {
    return pages_[slot >> kPageShift][slot & kPageMask];
  }

  // The key_of of directory_: a slot stands for the id its record holds.
  struct SlotIdOf {
    const ObjectShard* shard;
    ObjectId operator()(uint32_t slot) const { return shard->Slot(slot).id; }
  };
  SlotIdOf SlotIds() const { return SlotIdOf{this}; }
  // The key_of of degraded_, which is keyed by the slot itself.
  static int64_t SlotKey(uint32_t slot) { return slot; }

  const CostEntry& CostsFor(AlgorithmKind kind, int32_t t) const {
    return cost_table_[static_cast<size_t>(kind) * (util::kMaxProcessors + 1) +
                       static_cast<size_t>(t)];
  }

  // Appends a slot, growing the slab by one page when the last is full;
  // never moves existing records.
  uint32_t AllocateSlot();

  // Grows the slab to `pages_needed` pages: one run when that adds
  // kMinRunPages or more, else one 128 KiB page at a time.
  void GrowPages(size_t pages_needed);

  // Registers `slot` as degraded (idempotent).
  void MarkDegraded(uint32_t slot);

  // Erases from the record's scheme every crash-log member recorded at a
  // fault-time index <= `up_to_index` that the slot has not yet applied,
  // and advances the slot's log position past them.
  void SyncSlotWithCrashes(SlotRecord* record, const CrashLog& crash_log,
                           size_t up_to_index);

  // Re-replicates the record's scheme up to t from the lowest-id live
  // processors, each copy charged as a saving-read ({1 control, 1 data,
  // 2 io}) with loss retries; re-derives DA's (F, p) split from the t
  // lowest members of the repaired scheme; clears the degraded mark and
  // records a repair-latency sample (virtual units) in `*stats`.
  void RepairScheme(SlotRecord* record, uint32_t slot, ProcessorSet live,
                    size_t event_index, const FaultInjector& injector,
                    uint64_t* ordinal, model::CostBreakdown* breakdown,
                    FaultStats* stats);

  // Adds `count` transmissions of one message type to `*breakdown` plus the
  // deterministic loss retries of each (one duplicate message per lost
  // attempt, exponential backoff accounted in stats).
  void ChargeMessages(bool control, int64_t count, size_t event_index,
                      const FaultInjector& injector, uint64_t* ordinal,
                      model::CostBreakdown* breakdown,
                      FaultStats* stats) const;

  // Incremental-restore cursor for RestoreChunk.
  struct RestoreProgress {
    bool header_done = false;
    bool done = false;
    uint32_t span = 0;         // the snapshot's slot span
    uint32_t ranges_left = 0;  // range headers still to come
    uint32_t cursor = 0;       // next slot of the open range
    uint32_t range_end = 0;    // one past the open (or last) range
    uint32_t covered = 0;      // every slot below it holds an object
    std::string carry;  // a partial header or record, or the footer so far
  };

  // Bytes of the restore's next unit: the header, a range header or a
  // record; 0 once every range has arrived (the rest is the footer).
  size_t NextRestoreUnitBytes() const;
  // Consumes one whole unit of NextRestoreUnitBytes() bytes.
  util::Status RestoreUnit(std::string_view unit);
  // Range-checks a record that arrived as raw bytes, then writes it to
  // `slot` and keys the directory by its id (errors are Internal).
  util::Status RestoreSlot(uint32_t slot, const SlotRecord& record);
  // The aggregates + degraded registry that close a snapshot.
  void AppendSnapshotFooter(std::string* out) const;
  util::Status RestoreSnapshotFooter(util::PayloadReader* reader);

  // Sets the dirty bit of `slot`'s page; no-op unless tracking is armed.
  void MarkDirty(uint32_t slot) {
    if (!dirty_tracking_) return;
    const uint32_t page = slot >> kPageShift;
    const size_t word = page >> 6;
    if (word >= dirty_words_.size()) [[unlikely]] {
      dirty_words_.resize(word + 1, 0);
    }
    dirty_words_[word] |= uint64_t{1} << (page & 63);
  }
  void MarkAllDirty();

  int num_processors_;
  model::CostModel cost_model_;

  // Slab storage: runs of one or more pages, and the stable fixed-size
  // pages carved from them. Dirty tracking stays per page.
  std::vector<util::HugePageArray<SlotRecord>> runs_;
  std::vector<SlotRecord*> pages_;
  uint32_t slot_count_ = 0;  // slots allocated, each holding one object

  // (kind, t) → precomputed cost scalars; filled at construction.
  std::vector<CostEntry> cost_table_;

  util::FlatDirectory directory_;  // id → slot, confirmed by Slot(slot).id

  model::CostBreakdown total_breakdown_;
  int64_t total_requests_ = 0;
  // Degraded-object registry: holds a slot (as key and value) while
  // |scheme| < t (or DA's core set is broken) after a crash. The directory
  // dedupes (erased on repair — the FlatDirectory tombstone path); the
  // list gives deterministic iteration order and is compacted by
  // RepairAllDegraded.
  util::FlatDirectory degraded_;
  std::vector<uint32_t> degraded_list_;

  RestoreProgress restore_;

  // Delta-checkpoint machinery: one dirty bit per slab page while armed.
  bool dirty_tracking_ = false;
  std::vector<uint64_t> dirty_words_;
};

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_OBJECT_SHARD_H_
