// ObjectService — the sharded, batched multi-object serving layer.
//
// Objects are hash-partitioned across N ObjectShards. Admission validates
// each event of a batch and resolves its (shard, slot) route exactly once,
// before any is served; a bad event is refused on its own. With more than
// one worker available, a batch of at least kInlineBatchEvents is
// partitioned into per-shard sub-batches and handed to the ShardExecutor
// (core/shard_executor.h): long-lived worker threads that own fixed shard
// sets, fed through bounded per-shard SPSC rings — no per-batch fork, no
// global barrier. A smaller batch, or any batch with one worker (or one
// shard), is served in place on the submitting thread, in submission
// order, through a queue-free path.
//
// Serving surface (DESIGN.md §11): one core, SubmitBatch + WaitBatch, over
// id-addressed MultiObjectEvent batches. SubmitBatch admits and logs the
// batch, then either serves it to completion at once (in place, fault
// mode: the ticket comes back completed) or hands it to the executor and
// returns an in-flight ticket, so shard k can serve batch n+1 while shard j
// still works on batch n; WaitBatch (or DrainBatches) finalizes the
// ticket's result. Everything else wraps that pair: ServeBatchInto is
// SubmitBatch + WaitBatch, ServeBatch is ServeBatchInto on a fresh result,
// and every caller that keeps batches in flight — ServeStream over an
// EventSource, WAL replay (Recover), net::Server — drives it through one
// BatchPipeline (core/batch_pipeline.h). Validation reads only
// registration-time state (directories, processor bounds), which in-flight
// batches never mutate, and the WAL append happens at submit, ahead of any
// serve, preserving log→serve order: replay refuses the same events.
// Everything that must observe or mutate quiesced shards (stats reads,
// registrations, checkpoints, fault-mode arming, the in-place serve)
// fences the pipeline first.
//
// Hot-path engineering (DESIGN.md §8):
//   * Routing: admission resolves each ObjectId → (shard, dense slot) route
//     with one hash: its low bits pick the shard, and the same hash probes
//     that shard's id → slot directory, one 8-byte bucket of hash tag and
//     slot (one cache line, on 2 MiB pages once a shard's table reaches 2
//     MiB). It does so in the same pass that validates the event and — on
//     the executor path — partitions it into its shard's op list; serving
//     then indexes the dense slot directly. A bucket holds no id, so the
//     route is a candidate: the serve confirms it against the id in the
//     slot's record (ObjectShard::ConfirmSlot), which it reads anyway,
//     and refuses the event as unknown on a false tag match.
//   * Prefetch: admission, the in-place serve loops and the executor's
//     RunTask each fetch the directory bucket or slot record
//     ObjectShard::kPrefetchDistance events ahead of its use, so a batch
//     over a working set larger than the caches overlaps its misses.
//     Admission hashes each id once: the hash that starts the bucket's
//     prefetch is kept in a ring and addresses the probe.
//   * All batch scratch (the per-event route array, the executor's
//     per-shard op lists and CostBreakdown deltas) is owned by the service
//     or its executor and recycled across batches: after warming every
//     pipeline context with a maximal batch, both the in-place path and the
//     executor path perform zero steady-state allocations (asserted by
//     tests/serving_engine_test.cc through an operator-new counting hook).
//     ServeBatchInto reuses the caller's BatchResult storage the same way.
//
// Determinism contract (same bar as tests/parallel_test.cc): results are
// bit-identical for every shard count and every thread count, including the
// serial ObjectManager path. The argument has three legs:
//   1. Objects never span shards, so each object sees its requests in
//      submission order no matter how the batch is partitioned; a DOM
//      algorithm's decisions depend only on its own object's prefix.
//   2. Workers write disjoint state: each shard is owned by exactly one
//      executor worker, and the per-shard queues are FIFO — across
//      pipelined batches a shard applies its sub-batches in submission
//      order. Disjoint down to the cache line: a worker writes its events'
//      costs into its own shard's op list, never into a shared
//      submission-order array whose lines hold other workers' events (each
//      such write would move the line between cores), and the merge copies
//      them to result costs on the submitting thread.
//   3. Aggregation sums integer message/IO counts (model::CostBreakdown),
//      merged in fixed shard order — associative and commutative exactly;
//      scalar costs are derived from the summed counts, never from
//      reordered floating-point sums — and per-object listings iterate ids
//      in explicitly sorted order.
//
// The service is not itself thread-safe: one caller drives it (batches are
// the unit of internal parallelism), matching the paper's assumption of a
// serializing concurrency-control front end (§3.1).
//
// Fault mode (DESIGN.md §9): EnableFaults arms a deterministic FaultInjector.
// Faults are applied during the *serial* admission pass — each event's global
// admission index advances fault time by one, scripted and random
// crash/recover events fire there, and the live set at each event is recorded
// — so the parallel serve pass stays embarrassingly parallel and the whole
// fault history is bit-identical at any shard x thread count. Admission
// degrades gracefully: a batch containing an event whose object needs more
// live processors than exist is rejected atomically with kUnavailable
// (replayable — fault time still advances, so a retry runs against the
// recovered world); an event whose issuer is crashed is refused individually
// (cost 0, EventOutcome::kIssuerDown), matching the simulator. Repairs
// happen lazily at serve time (ObjectShard::ServeSlotFaulty) or eagerly via
// RepairDegraded. The zero-fault chaos path is bit-identical to the plain
// engine; the plain path pays one predicted-not-taken branch per batch.
//
// Durability (DESIGN.md §10, §13, §14): EnableDurability attaches a
// write-ahead log and checkpoint directory. Because serving is a pure
// function of admission order, the WAL records *inputs* — one record per
// admitted batch, registration, or fault-control call, appended before the
// operation mutates shard state — and recovery (Recover) restores the
// newest valid snapshot and replays the WAL tail through the public
// serving API (service_recovery.cc), reproducing bit-identical state
// (scheme CRCs and cost fingerprints — asserted by
// tests/durability_test.cc). Logging is asynchronous group commit
// (core/wal_writer.h); with sync_every_batch the service waits for each
// batch's record to be durable before any of its effects externalize,
// otherwise a crash may lose the un-synced suffix — never consistency,
// since the on-disk log is always a record-aligned prefix of the admitted
// history. Scrub() is the offline fsck: per-file CRC verdicts plus a
// recovery dry run.
//
// The generation protocol — file names, manifest, WAL attach and rotation,
// quarantine, GC, retry, the kDegraded transition and its counters — and
// the recovery walk over that layout live in core/durable_log.h.
// EnableDurability, Checkpoint and ReattachDurability all commit a
// generation through its one routine and differ only in failure policy;
// the engine contributes one snapshot writer (full or delta: every slot,
// or the slab pages dirtied since the last commit), one restore loop for
// both, and the log install recovery ends with. A persistent IO failure
// degrades durability instead of stopping the service, and
// ReattachDurability() heals it once the disk recovers. With durability
// off the hot path pays one predicted-not-taken branch per batch — the
// zero-allocation and golden-fingerprint contracts are unchanged.

#ifndef OBJALLOC_CORE_OBJECT_SERVICE_H_
#define OBJALLOC_CORE_OBJECT_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "objalloc/core/checkpoint.h"
#include "objalloc/core/durable_log.h"
#include "objalloc/core/fault_injector.h"
#include "objalloc/core/object_shard.h"
#include "objalloc/core/shard_executor.h"
#include "objalloc/core/wal.h"
#include "objalloc/util/flat_directory.h"
#include "objalloc/workload/event_source.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {

struct ServiceOptions {
  // Shard count is a pure partitioning knob: any value yields identical
  // results; more shards expose more parallelism to ServeBatch. One shard
  // degenerates to the serial ObjectManager behavior.
  int num_shards = 16;

  util::Status Validate() const;
};

// What became of one event of an admitted batch. A refused event costs 0,
// moves no traffic and changes no state. Caller errors order last.
enum class EventOutcome : uint8_t {
  kServed = 0,
  kIssuerDown,           // fault mode: the issuing processor is crashed
  kUnknownObject,        // caller error: no object registered under the id
  kProcessorOutOfRange,  // caller error: processor outside [0, n)
};

// Outcome of one admitted batch.
struct BatchResult {
  // Per-event scalar costs and outcomes, in submission order.
  std::vector<double> costs;
  std::vector<EventOutcome> outcome;
  // Traffic of this batch alone (not the service lifetime totals).
  model::CostBreakdown breakdown;
  double cost = 0;
  int64_t unavailable = 0;  // kIssuerDown events
  int64_t refused = 0;      // kUnknownObject and kProcessorOutOfRange events
};

// Receipt for a batch handed to SubmitBatch. `completed == true` means the
// batch already finished synchronously (served in place, fault mode) and
// its BatchResult is final; otherwise WaitBatch (or DrainBatches) must run
// before the result — or the event storage backing it — is touched.
// Tickets are cheap values; waiting on a stale ticket (its batch already
// finalized by a drain or a later submit) is an Ok no-op.
struct BatchTicket {
  uint32_t context = 0;
  uint64_t sequence = 0;
  bool completed = true;
};

// Outcome of draining an EventSource.
struct StreamResult {
  int64_t events = 0;
  size_t batches = 0;
  model::CostBreakdown breakdown;
  double cost = 0;
  int64_t unavailable = 0;  // fault mode: events refused (issuer crashed)
  int64_t refused = 0;      // events refused as caller errors
};

// Live load signals (DESIGN.md §15), readable WITHOUT fencing the
// pipeline: relaxed counter snapshots from the shard executor and the
// async WAL writer. This is the backpressure surface a serving front-end
// polls every loop iteration — a fencing read (Stats) would drain the very
// queues it is trying to measure. Single-caller like the rest of the
// service: call it from the serving thread between submits.
struct ServiceLoad {
  // Events enqueued on shard rings but not yet served.
  uint64_t executor_queued_ops = 0;
  // Batches submitted (SubmitBatch) but not yet completed.
  uint32_t inflight_batches = 0;
  // WAL bytes appended but not yet durable (0 when durability is off).
  size_t wal_backlog_bytes = 0;
  DurabilityState durability = DurabilityState::kDetached;
};

// Point-in-time service statistics (ObjectService::Stats): serving totals
// plus the durability health surface — state, the error that degraded it,
// and the retry/degrade counters that tell whether a bad disk was ridden
// through (retries > 0, still kDurable) or given up on (kDegraded).
struct ServiceStats {
  size_t objects = 0;
  int64_t total_requests = 0;
  model::CostBreakdown total_breakdown;

  // Occupancy at the moment Stats() was called, sampled *before* the
  // pipeline fence the rest of the read takes (after the fence they are
  // definitionally zero). bench/service_scaling reports these per row.
  ServiceLoad load;

  DurabilityState durability = DurabilityState::kDetached;
  // The failure that degraded durability; Ok in every other state.
  util::Status durability_error;
  // Transient WAL group write/sync failures absorbed by rollback + backoff
  // + rewrite (durability preserved), across all writers this service has
  // attached (reattach folds the old writer's count in).
  uint64_t wal_write_retries = 0;
  // Transient checkpoint/manifest write failures absorbed by retry.
  uint64_t checkpoint_retries = 0;
  // Batches served *without* logging while degraded — the durability gap a
  // reattach closes (the new checkpoint captures their effects).
  uint64_t degraded_batches = 0;
  // Successful ReattachDurability() calls.
  uint64_t reattach_count = 0;
  // Commit statistics of the currently attached async WAL writer.
  WalCommitStats commit;
};

class ObjectService : public DurableEngine {
 public:
  static constexpr size_t kDefaultBatchSize = 4096;

  // Dispatch rule of SubmitBatch: with more than one worker, a batch of at
  // least this many events goes to the shard executor; a smaller one is
  // served in place on the submitting thread. The value comes from an idle
  // round-trip estimate, handoff / (in-place cost per event × (1 − 1/W)):
  // BENCH_perf.json, 4 cores: BM_ExecutorBatchHandoff/16 = 24.0 µs per
  // batch and BM_ServiceBatchIdPath/16 = 207.3 µs / 8192 = 25.3 ns per
  // event, so with W = 4 the estimate is 24020 / (25.3 × 0.75) ≈ 1266
  // events, rounded down to a power of two. The estimate is not borne out:
  // BM_SubmitBatchDispatch, which pipelines batches through both paths,
  // serves 1023-event batches in place faster than 1024-event batches on
  // the executor and puts the crossover nearer 4096 (ROADMAP item 3).
  static constexpr size_t kInlineBatchEvents = 1024;

  ObjectService(int num_processors, const model::CostModel& cost_model,
                const ServiceOptions& options = {});

  // Status-returning construction boundary: the constructor CHECK-fails on
  // bad arguments, Create reports them instead (processor count out of
  // [1, kMaxProcessors], invalid cost model or options).
  static util::StatusOr<ObjectService> Create(
      int num_processors, const model::CostModel& cost_model,
      const ServiceOptions& options = {});

  // Registers an object with its home shard. Same validation as
  // ObjectManager::AddObject: only the paper's SA and DA are served.
  util::Status AddObject(ObjectId id, const ObjectConfig& config);

  // Pre-sizes every table a registration burst touches — each shard's
  // directory and slab pages, with statistical headroom for the hash
  // split — so registering N reserved objects performs zero allocations
  // (asserted in serving_engine_test) and zero rehashes.
  void ReserveObjects(size_t expected_total);

  // Total heap footprint of the serving state: the shards (slab pages and
  // directory buckets) and batch scratch. Excludes durability buffers
  // (bounded, not per-object).
  size_t MemoryUsageBytes() const;

  bool HasObject(ObjectId id) const;
  size_t object_count() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_processors() const { return num_processors_; }

  // Pipelined batch entry — the serving core every other entry wraps.
  // Admits and logs the batch, enqueues its per-shard work, and returns
  // without waiting for the serve. An event naming an unknown object or an
  // out-of-range processor is refused on its own (result->outcome[i]), and
  // counted in result->refused. The caller must keep `*result` alive and
  // untouched until WaitBatch(ticket) (or DrainBatches) returns; `events`
  // may be reused immediately — admission copies everything the workers
  // need. Order across SubmitBatch calls is submission order per shard
  // (FIFO queues), so results are bit-identical to serving the batches one
  // by one. Only a batch of at least kInlineBatchEvents, with more than one
  // worker, goes to the executor. Every other batch completes
  // synchronously (ticket->completed == true): it is served in place after
  // the in-flight batches are fenced. Fault mode always completes
  // synchronously — fault time is global serial state.
  // `*result` is cleared and refilled, reusing its storage.
  util::Status SubmitBatch(std::span<const workload::MultiObjectEvent> events,
                           BatchResult* result, BatchTicket* ticket);

  // Synchronous wrappers: SubmitBatch then WaitBatch. ServeBatchInto reuses
  // the caller's BatchResult storage — a caller that keeps one BatchResult
  // across batches pays zero steady-state allocations; ServeBatch returns a
  // fresh one.
  util::Status ServeBatchInto(
      std::span<const workload::MultiObjectEvent> events, BatchResult* result);
  util::StatusOr<BatchResult> ServeBatch(
      std::span<const workload::MultiObjectEvent> events);

  // Blocks until the ticket's batch has fully completed and finalizes its
  // BatchResult (per-shard deltas merged in fixed shard order, scalar cost
  // derived). Ok no-op for completed or stale tickets. Any durability
  // follow-up (auto-checkpoint) runs here.
  util::Status WaitBatch(BatchTicket* ticket);

  // Waits for and finalizes every in-flight SubmitBatch — the pipeline
  // fence. All previously returned tickets become stale/completed.
  util::Status DrainBatches();

  // True when WaitBatch(ticket) would not block: the batch completed
  // synchronously, its serve has landed, or the ticket is stale.
  bool BatchDone(const BatchTicket& ticket) const;

  // Completion signal for event loops (DESIGN.md §11): an eventfd that
  // turns readable whenever a pipelined batch completes; drain it, then
  // WaitBatch the tickets for which BatchDone holds. Stays valid across
  // thread-count changes. Batches below kInlineBatchEvents complete inside
  // SubmitBatch and never signal it. -1 on the serial path (one worker or
  // one shard), where SubmitBatch always completes synchronously.
  int CompletionFd();

  // Streaming path: drains `source` through the batch engine in buffers of
  // `batch_size` events — bounded memory for unbounded traces, one buffer
  // and a BatchPipeline's two recycled BatchResults: batch n+1 is admitted
  // and enqueued while batch n is still being served, overlapping admission
  // with shard work; refused events count in `refused`. Stops and returns
  // the error on the first failed batch or source error, with the pipeline
  // drained (events of earlier batches stay served).
  util::StatusOr<StreamResult> ServeStream(
      workload::EventSource& source, size_t batch_size = kDefaultBatchSize);

  // --- Fault mode -----------------------------------------------------

  // Arms the fault layer: subsequent batches run through the chaos path
  // under `options` (validated against the processor count) and the
  // scripted `schedule` (sorted, in-range — the service-side twin of a
  // sim::FailurePlan). The live set resets to all-live and fault time and
  // stats restart.
  util::Status EnableFaults(const FaultInjectorOptions& options,
                            FaultSchedule schedule = {});

  // Disarms the fault layer. Liveness resets to all-live; schemes stay as
  // the fault history left them (every object that saw traffic is back at t
  // replicas by the repair invariant). Stats remain readable.
  void DisableFaults();

  bool faults_enabled() const { return injector_ != nullptr; }

  // Manual liveness control (fault mode only; FailedPrecondition
  // otherwise). Crash records the eviction in the crash log — schemes drop
  // the dead member lazily at each object's next event (or eagerly via
  // RepairDegraded); Recover only restores liveness — the recovered copy is
  // stale and rejoins schemes through traffic, never implicitly. Crash of a
  // crashed processor / recover of a live one are Ok no-ops.
  util::Status Crash(ProcessorId p);
  util::Status Recover(ProcessorId p);

  // Eagerly repairs every degraded object that can reach t live replicas
  // (shards in order, lowest slots first). Returns replicas created.
  // Objects whose t exceeds the live count stay degraded.
  int64_t RepairDegraded();

  // Objects currently below their availability threshold (crashed replicas
  // not yet repaired — they heal lazily on their next event).
  size_t degraded_count() const;

  ProcessorSet live_processors() const { return live_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  // AvailabilityInvariant (|scheme ∩ live| >= t after every served event,
  // checked fatally): always on in debug builds, opt-in for release.
  void set_check_invariant(bool on) { check_invariant_ = on; }
  bool check_invariant() const { return check_invariant_; }

  // --- Durability -----------------------------------------------------

  // Attaches a durability directory and starts generation 1: a snapshot of
  // the current state (an empty service or one mid-life — both work) plus a
  // fresh WAL. Durable files of a previous incarnation in `dir` are removed
  // — this call *starts* a durable history; Recover *continues* one.
  //
  // IO failure policy (DESIGN.md §14): transient failures (EIO class) are
  // retried with exponential backoff under DurabilityOptions::retry. Here a
  // persistent failure is a clean error (durability never armed, the
  // orphaned generation-1 files removed); once armed, one does NOT stop
  // the service: durability degrades to DurabilityState::kDegraded — the
  // service keeps serving correctly in memory, the durable directory
  // freezes as a consistent prefix of history, and SyncDurable/Checkpoint/
  // Stats report the original error until ReattachDurability() heals it.
  util::Status EnableDurability(const std::string& dir,
                                const DurabilityOptions& options = {});

  // Syncs the WAL and detaches (the directory stays recoverable). When the
  // service is degraded, returns the degrading error (the caller learns the
  // tail was lost) and detaches anyway.
  util::Status DisableDurability();

  // True only while durability is attached AND healthy; a degraded service
  // returns false here but durability_state() == kDegraded distinguishes it
  // from a service that never enabled durability.
  bool durability_enabled() const {
    return durability_state() == DurabilityState::kDurable;
  }
  DurabilityState durability_state() const {
    return durability_ == nullptr ? DurabilityState::kDetached
                                  : durability_->state();
  }
  // The failure that degraded durability; Ok in every other state.
  util::Status durability_error() const {
    return durability_ != nullptr ? durability_->degraded_error()
                                  : util::Status::Ok();
  }

  // Heals a degraded service back to kDurable: quarantines the failed WAL
  // generation (renamed *.quarantine — never deleted, never replayed),
  // writes a fresh full checkpoint of the *current* in-memory state as
  // generation g+1, opens a new WAL, and republishes the manifest. The
  // batches served while degraded are captured by the checkpoint, so the
  // healed directory recovers to exactly the live state. With
  // DurabilityOptions::verify_reattach the new directory is re-verified
  // (read-only recovery) before the call reports success.
  // FailedPrecondition unless currently kDegraded. On failure the service
  // stays degraded (with the new error) and can be reattached again once
  // the disk heals.
  util::Status ReattachDurability();

  // Point-in-time serving + durability statistics (fences the pipeline;
  // the `load` field is sampled just before the fence).
  ServiceStats Stats() const;

  // Live queue/backlog occupancy without fencing the pipeline — the
  // backpressure signal (see ServiceLoad). O(1), no locks beyond the WAL
  // writer's stats mutex.
  ServiceLoad Load() const;

  // Rotates the durable generation: syncs the current WAL, writes a
  // snapshot atomically (a delta while the chain has room, else full),
  // opens the next WAL, publishes the manifest, and garbage-collects
  // generations beyond DurabilityOptions::keep_generations.
  // A crash at *any* point in this sequence recovers consistently (the
  // manifest is the atomic commit point). FailedPrecondition when
  // durability is off.
  util::Status Checkpoint();

  // Waits until every appended WAL record is durable (explicit
  // group-commit boundary for sync_every_batch == false).
  util::Status SyncDurable();

  // Commit statistics of the attached async WAL writer — group commits,
  // bytes, commit-latency p50/p99. Zeros while durability is off.
  WalCommitStats DurableCommitStats() const;

  // Reconstructs a service from a durability directory: newest valid
  // snapshot, WAL tail replayed through the serving engine, torn tail
  // truncated. The returned service has durability *armed* on `dir` and
  // continues appending where the log left off. `report`, when non-null,
  // receives the fsck-style account (fallbacks, torn bytes, replay counts).
  static util::StatusOr<ObjectService> Recover(
      const std::string& dir, const DurabilityOptions& options = {},
      RecoveryReport* report = nullptr);

  // Read-only fsck: runs the full recovery pipeline (parse, validate,
  // replay) without truncating the WAL or arming durability, then discards
  // the reconstructed service. The report tells what a real Recover would
  // do; the directory is untouched.
  static util::Status VerifyDurableDir(const std::string& dir,
                                       RecoveryReport* report);

  // Full read-only scrub of a durability directory: classifies every file
  // (manifest, checkpoints, WALs, quarantined generations, strays), walks
  // each one record by record against its CRCs, then runs the recovery
  // pipeline. `report->recoverable` says whether Recover would succeed;
  // `report->clean` additionally demands zero anomalies (no torn tails, no
  // corrupt files, no fallback, no quarantine). Returns the verification
  // status (Ok iff recoverable); per-file verdicts land in the report
  // either way.
  static util::Status Scrub(const std::string& dir, ScrubReport* report);

  // --------------------------------------------------------------------

  util::StatusOr<ObjectStats> StatsFor(ObjectId id) const;

  // Lifetime aggregates, summed over shards in shard order — O(shards),
  // exact (integer counts).
  model::CostBreakdown TotalBreakdown() const;
  double TotalCost() const { return TotalBreakdown().Cost(cost_model_); }
  int64_t TotalRequests() const;

  // All registered object ids, ascending — the deterministic iteration
  // order for per-object reports.
  std::vector<ObjectId> SortedObjectIds() const;

  // CRC-32 of every object's (id, scheme mask) in ascending id order: the
  // scheme-table fingerprint that the determinism goldens pin.
  uint32_t SchemeCrc() const;

 private:
  // The shard of the id whose util::FlatDirectory::Hash is `hash` — the
  // same hash then probes that shard's directory. For power-of-two shard
  // counts the modulo reduces to the low bits.
  size_t ShardOfHash(uint64_t hash) const {
    return static_cast<size_t>(shard_mask_ != ~uint64_t{0}
                                   ? hash & shard_mask_
                                   : hash % shards_.size());
  }
  size_t ShardOf(ObjectId id) const {
    return ShardOfHash(util::FlatDirectory::Hash(id));
  }

  // Post-batch durability hook: auto-checkpoint when the configured event
  // interval has elapsed. Inline no-op when durability is off. A failing
  // auto-checkpoint degrades durability, never the batch that triggered
  // it; the degradation is reported through Stats and the next explicit
  // durability call.
  void FinishBatch() {
    if (durability_ != nullptr && durability_->CheckpointDue()) [[unlikely]] {
      (void)Checkpoint();
    }
  }

  // DurableEngine: streams the shards and the service state into a
  // snapshot — per shard a header, bounded slot ranges ([0, span) for a
  // full snapshot, the dirty pages for a delta) and the footer — so peak
  // memory is O(chunk) however many objects live.
  util::Status WriteSnapshot(CheckpointWriter* writer,
                             bool delta) const override;
  void ResetDirtyTracking(bool track) override;

  ServiceStateImage CaptureServiceState() const;
  util::Status RestoreServiceState(const ServiceStateImage& image);

  // Restores one snapshot stream on top of the current state — a full
  // snapshot into a freshly constructed service with the matching config,
  // or a delta on top of its chain predecessor (base+1..g in order) —
  // checking that every slot beyond each shard's prior span holds an id of
  // that shard, and replacing the service state with the snapshot's image.
  util::Status RestoreSnapshot(CheckpointReader* reader,
                               RecoveryReport* report) override;
  void AttachLog(std::unique_ptr<DurableLog> log) override {
    durability_ = std::move(log);
  }

  // Admission pass of SubmitBatch: validates every event, resolves its
  // (shard, slot), sizes `*result`, and either records the routes in
  // routes_ (`context` null: the in-place and fault passes read them) or
  // partitions the batch into the context's per-shard op lists. A refused
  // event gets its outcome, a kInvalidSlot route and no op.
  util::Status AdmitBatch(std::span<const workload::MultiObjectEvent> events,
                          BatchResult* result, BatchContext* context);

  // More than one shard and thread, and not inside a parallel worker.
  bool ParallelServing() const;

  // Builds (or rebuilds, after a thread-count change) the shard executor;
  // any in-flight batches of the old executor are merged first, and its
  // completion fd carries over. Only called on the parallel path, where
  // min(GlobalThreads(), shards) >= 2.
  void EnsureExecutor();

  // Merges the finished async batch held by pipeline context `index` into
  // its caller's BatchResult (fixed shard order) and releases the slot.
  // The executor's Wait(index) must have returned first. Durability
  // follow-ups are deliberately *not* run here — const read fences use this
  // too; FinishBatch runs on the non-const entry points.
  void MergeAsync(uint32_t index) const;

  // Waits for and merges every in-flight async batch. Const so read-only
  // accessors (StatsFor, TotalBreakdown, ...) can quiesce the shards before
  // touching serve-mutated state; only pipeline bookkeeping (mutable) and
  // caller-owned results change.
  void FenceAsync() const;

  // Fault-mode step of SubmitBatch, entered after admission validated the
  // routes: advances fault time once per event (serial), records per-event
  // live sets, and applies degraded admission (Unavailable rejects the
  // batch; a crashed issuer is refused). Then either serves in place through
  // ServeSlotFaulty (`context` null) or partitions the served events into
  // `context` for the executor; refused events are never enqueued.
  util::Status FaultPass(std::span<const workload::MultiObjectEvent> events,
                           BatchResult* result, BatchContext* context);

  // Applies one crash/recover to the live set (no-op if already in that
  // state). A crash is appended to the crash log at its fault-time index —
  // schemes evict the member lazily on their own serve timeline — and the
  // crash-time scheme members are registered for eager repair.
  void ApplyFault(const FaultEvent& event);

  int num_processors_;
  model::CostModel cost_model_;
  std::vector<ObjectShard> shards_;
  // For power-of-two shard counts the modulo in ShardOfHash reduces to
  // `hash & (num_shards - 1)` — the identical mapping without the
  // per-event integer division. ~0 flags a non-power-of-two count.
  uint64_t shard_mask_ = 0;
  // Where an admitted event is served; slot kInvalidSlot for a refused one.
  struct Route {
    uint32_t shard;
    uint32_t slot;
  };
  // Fetches the record that event `i` routes to, when the batch has a
  // served event `i` (the in-place serve loops look kPrefetchDistance ahead).
  // Always inlined, like ObjectShard::PrefetchSlot, or GCC deletes the call.
  [[gnu::always_inline]] void PrefetchRoute(size_t i) const {
    if (i >= routes_.size() || routes_[i].slot == ObjectShard::kInvalidSlot) {
      return;
    }
    shards_[routes_[i].shard].PrefetchSlot(routes_[i].slot);
  }
  // Batch scratch arena, recycled across batches (see header comment).
  // Per-shard partition scratch lives inside the executor's BatchContexts.
  std::vector<Route> routes_;  // per event of an in-place batch

  // Fault mode (null when disarmed — the plain path pays one predicted
  // branch per batch). Integer FaultStats merge per shard in fixed order,
  // so totals are deterministic; repair_latency sample *order* depends on
  // the shard/thread configuration, its multiset does not.
  std::unique_ptr<FaultInjector> injector_;
  ProcessorSet live_;
  // Every applied crash at its fault-time index (nondecreasing): the lazy
  // scrub source slots consume positionally. Append-only while armed —
  // growth is one record per crash, which the rates keep tiny relative to
  // event volume; flushed and cleared on EnableFaults / DisableFaults.
  CrashLog crash_log_;
  FaultStats fault_stats_;
#ifndef NDEBUG
  bool check_invariant_ = true;
#else
  bool check_invariant_ = false;
#endif
  // Fault-path batch scratch (this path is not part of the zero-allocation
  // contract; the plain path never touches it).
  std::vector<FaultEvent> fault_buffer_;
  std::vector<ProcessorSet> live_masks_;  // per event: live set

  // Null when detached — the plain hot path pays one predicted branch per
  // batch and never touches it. Survives IO failure: a persistent error
  // degrades the log, which stays alive holding the error and counters.
  std::unique_ptr<DurableLog> durability_;

  // One in-flight SubmitBatch per executor pipeline context: the caller's
  // result to finalize into and the sequence its ticket names (so a stale
  // ticket — slot since recycled — waits as an Ok no-op). Mutable because
  // const read paths fence the pipeline (see FenceAsync).
  struct AsyncBatch {
    BatchResult* result = nullptr;
    uint64_t sequence = 0;
    bool active = false;
  };
  mutable std::vector<AsyncBatch> async_;
  mutable size_t async_active_ = 0;
  int executor_workers_ = 0;

  // Declared last: destroyed first, so the worker threads drain and join
  // while shards_ (whose data() they hold) is still alive. The pointer into
  // shards_ survives moves of the service — vector moves transfer the heap
  // buffer, never relocate it.
  std::unique_ptr<ShardExecutor> executor_;
};

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_OBJECT_SERVICE_H_
