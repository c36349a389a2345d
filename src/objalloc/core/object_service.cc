#include "objalloc/core/object_service.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "objalloc/core/batch_pipeline.h"
#include "objalloc/util/crc32.h"
#include "objalloc/util/logging.h"
#include "objalloc/util/parallel.h"

namespace objalloc::core {

util::Status ServiceOptions::Validate() const {
  if (num_shards < 1 || num_shards > 65536) {
    return util::Status::InvalidArgument("num_shards out of range");
  }
  return util::Status::Ok();
}

ObjectService::ObjectService(int num_processors,
                             const model::CostModel& cost_model,
                             const ServiceOptions& options)
    : num_processors_(num_processors), cost_model_(cost_model) {
  OBJALLOC_CHECK(options.Validate().ok()) << options.Validate().ToString();
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    shards_.emplace_back(num_processors, cost_model);
  }
  const uint64_t n = shards_.size();
  shard_mask_ = (n & (n - 1)) == 0 ? n - 1 : ~uint64_t{0};
}

util::StatusOr<ObjectService> ObjectService::Create(
    int num_processors, const model::CostModel& cost_model,
    const ServiceOptions& options) {
  if (num_processors < 1 || num_processors > util::kMaxProcessors) {
    return util::Status::InvalidArgument(
        "num_processors out of range [1, " +
        std::to_string(util::kMaxProcessors) + "]");
  }
  OBJALLOC_RETURN_IF_ERROR(cost_model.Validate());
  OBJALLOC_RETURN_IF_ERROR(options.Validate());
  return ObjectService(num_processors, cost_model, options);
}

util::Status ObjectService::AddObject(ObjectId id,
                                      const ObjectConfig& config) {
  // Registration mutates a shard's slot table (possibly reallocating it):
  // no worker may be serving while that happens.
  FenceAsync();
  // Under fault mode no replica may be born on a crashed processor
  // (scheme ⊆ live is the scrub invariant).
  if (injector_ != nullptr && !config.initial_scheme.IsSubsetOf(live_))
      [[unlikely]] {
    return util::Status::FailedPrecondition(
        "initial scheme " + config.initial_scheme.ToString() +
        " includes crashed processors (live " + live_.ToString() + ")");
  }
  ObjectShard& shard = shards_[ShardOf(id)];
  if (durability_ != nullptr) [[unlikely]] {
    // Write-ahead: the registration record reaches the log before the shard
    // mutates, so it is validated *here* — a logged AddObject may never
    // fail on replay.
    if (shard.HasObject(id)) {
      return util::Status::InvalidArgument("duplicate object id " +
                                           std::to_string(id));
    }
    OBJALLOC_RETURN_IF_ERROR(
        ObjectShard::ValidateConfig(config, num_processors_));
    std::string payload;
    EncodeAddObject(id, config, &payload);
    durability_->LogOp(WalRecordType::kAddObject, payload);
  }
  util::StatusOr<uint32_t> slot = shard.AddObject(id, config);
  if (slot.ok() && injector_ != nullptr) [[unlikely]] {
    // Born now: crashes already in the log predate this scheme (it was
    // validated against the current live set above) and must not apply.
    shard.SetCrashLogStart(*slot, crash_log_.size());
  }
  return slot.status();
}

void ObjectService::ReserveObjects(size_t expected_total) {
  FenceAsync();  // reserve may reallocate live slot tables
  // The hash splits objects binomially across shards: mean n/s per shard
  // with standard deviation < sqrt(mean). Four sigmas of headroom (plus a
  // floor for tiny reservations) make a mid-burst shard overflow — and the
  // page allocation it would cost — vanishingly unlikely, without
  // over-reserving: headroom is O(sqrt(n)) against an O(n) reservation.
  const size_t mean = expected_total / shards_.size();
  const size_t per_shard =
      mean + 4 * static_cast<size_t>(std::sqrt(static_cast<double>(mean))) +
      16;
  for (ObjectShard& shard : shards_) shard.Reserve(per_shard);
}

size_t ObjectService::MemoryUsageBytes() const {
  FenceAsync();
  size_t total = routes_.capacity() * sizeof(routes_[0]) +
                 fault_buffer_.capacity() * sizeof(fault_buffer_[0]) +
                 live_masks_.capacity() * sizeof(live_masks_[0]);
  for (const ObjectShard& shard : shards_) total += shard.MemoryUsageBytes();
  return total;
}

size_t ObjectService::object_count() const {
  size_t total = 0;
  for (const ObjectShard& shard : shards_) total += shard.object_count();
  return total;
}

util::Status ObjectService::AdmitBatch(
    std::span<const workload::MultiObjectEvent> events, BatchResult* result,
    BatchContext* context) {
  if (events.size() > size_t{std::numeric_limits<uint32_t>::max()})
      [[unlikely]] {
    return util::Status::InvalidArgument(
        "batch exceeds 2^32 - 1 events; split it");
  }
  result->costs.clear();
  result->costs.resize(events.size());
  result->outcome.clear();
  result->outcome.resize(events.size());  // kServed
  result->breakdown = model::CostBreakdown();
  result->cost = 0;
  result->unavailable = 0;
  result->refused = 0;

  // Admission pass: validate each event and resolve its (shard, slot) route
  // exactly once, before any shard state changes; a bad event is refused at
  // its own position. Validation reads only registration-time state (the
  // shards' directories, processor bounds) that in-flight batches never
  // mutate — which makes admitting batch n+1 while batch n is still being
  // served safe, and a replay refuse exactly the same events.
  //
  // A directory bucket holds a hash tag, not the id, so admission resolves
  // a candidate slot: no tag match means the id is unregistered, and a
  // match is confirmed against the slot's record where the serve reads
  // that record anyway (ObjectShard::ConfirmSlot, in the in-place loop,
  // FaultPass and the executor's RunTask). Admission itself reads no
  // record line: on the executor path those lines belong to the workers.
  //
  // Each id is hashed once, kPrefetchDistance events ahead of its probe:
  // the hash picks the shard, starts the prefetch of that shard's
  // directory bucket, waits in a ring, and then addresses the probe.
  constexpr size_t kAhead = ObjectShard::kPrefetchDistance;
  static_assert((kAhead & (kAhead - 1)) == 0, "the hash ring is masked");
  uint64_t hashes[kAhead] = {};
  const auto hash_ahead = [&](size_t i) {
    const uint64_t hash = util::FlatDirectory::Hash(events[i].object);
    shards_[ShardOfHash(hash)].PrefetchDirectory(hash);
    hashes[i & (kAhead - 1)] = hash;
  };
  for (size_t i = 0; i < kAhead && i < events.size(); ++i) hash_ahead(i);
  // The in-place serve loops read the routes back; the executor path reads
  // its op lists instead.
  if (context == nullptr) routes_.resize(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t hash = hashes[i & (kAhead - 1)];
    if (i + kAhead < events.size()) hash_ahead(i + kAhead);
    const workload::MultiObjectEvent& event = events[i];
    const size_t shard = ShardOfHash(hash);
    const uint32_t slot = shards_[shard].CandidateSlotHashed(hash);
    if (slot == ObjectShard::kInvalidSlot ||
        !ProcessorInRange(event.request.processor)) [[unlikely]] {
      // Which refusal depends on whether the id is registered: the rule
      // confirms.
      result->outcome[i] = RefusalOf(shards_[shard], slot, event);
      result->refused += 1;
      if (context == nullptr) routes_[i] = Route{0, ObjectShard::kInvalidSlot};
      continue;
    }
    if (context != nullptr) {
      // Partition for the executor while the route is hot: the worker gets
      // everything it needs (slot, id, request, event index) by value.
      context->ops[shard].push_back(ShardOp{static_cast<uint32_t>(i), slot,
                                            event.object, event.request});
    } else {
      routes_[i] = Route{static_cast<uint32_t>(shard), slot};
    }
  }
  return util::Status::Ok();
}

ObjectService::Refusal ObjectService::FirstRefusal(
    std::span<const workload::MultiObjectEvent> events) const {
  // Three stages kPrefetchDistance events apart: hash the id and fetch its
  // directory bucket; read the bucket's candidate slot and fetch its
  // record; apply the rule, whose confirm then reads a line in flight.
  constexpr size_t kAhead = ObjectShard::kPrefetchDistance;
  constexpr size_t kHashRing = 2 * kAhead;
  static_assert((kAhead & (kAhead - 1)) == 0, "the rings are masked");
  uint64_t hashes[kHashRing] = {};
  uint32_t candidates[kAhead] = {};
  const size_t n = events.size();
  const auto hash_ahead = [&](size_t i) {
    const uint64_t hash = util::FlatDirectory::Hash(events[i].object);
    shards_[ShardOfHash(hash)].PrefetchDirectory(hash);
    hashes[i & (kHashRing - 1)] = hash;
  };
  const auto candidate_ahead = [&](size_t i) {
    const uint64_t hash = hashes[i & (kHashRing - 1)];
    const ObjectShard& shard = shards_[ShardOfHash(hash)];
    const uint32_t slot = shard.CandidateSlotHashed(hash);
    if (slot != ObjectShard::kInvalidSlot) shard.PrefetchSlotForRead(slot);
    candidates[i & (kAhead - 1)] = slot;
  };
  for (size_t i = 0; i < kHashRing && i < n; ++i) hash_ahead(i);
  for (size_t i = 0; i < kAhead && i < n; ++i) candidate_ahead(i);
  for (size_t i = 0; i < n; ++i) {
    // Event i's ring entries are reused by the stages ahead: read first.
    const uint64_t hash = hashes[i & (kHashRing - 1)];
    const uint32_t candidate = candidates[i & (kAhead - 1)];
    if (i + kHashRing < n) hash_ahead(i + kHashRing);
    if (i + kAhead < n) candidate_ahead(i + kAhead);
    const EventOutcome outcome =
        RefusalOf(shards_[ShardOfHash(hash)], candidate, events[i]);
    if (outcome != EventOutcome::kServed) [[unlikely]] return {i, outcome};
  }
  return {n, EventOutcome::kServed};
}

bool ObjectService::ParallelServing() const {
  return shards_.size() > 1 && util::GlobalThreads() > 1 &&
         !util::InParallelWorker();
}

void ObjectService::EnsureExecutor() {
  const int workers =
      std::min(util::GlobalThreads(), static_cast<int>(shards_.size()));
  if (executor_ != nullptr && executor_workers_ == workers) return;
  // Thread-count change (ScopedThreads in tests, reconfiguration in
  // benchmarks): finalize whatever the old workers still hold, then let
  // them join before the replacement spawns.
  FenceAsync();
  const int completion_fd =
      executor_ != nullptr ? executor_->ReleaseCompletionFd() : -1;
  executor_.reset();
  executor_ = std::make_unique<ShardExecutor>(
      shards_.data(), shards_.size(), workers, ShardExecutor::kDefaultDepth,
      completion_fd);
  executor_workers_ = workers;
  async_.assign(executor_->depth(), AsyncBatch());
  async_active_ = 0;
}

void ObjectService::MergeAsync(uint32_t index) const {
  AsyncBatch& batch = async_[index];
  BatchContext& context = executor_->context(index);
  // Fixed shard order; integer counts make the sum exact (determinism
  // contract leg 3). Each op carries its event's cost back from the worker
  // that owns its shard; refused events were never ops and keep the 0
  // admission wrote.
  // A worker whose confirm found the op's id unregistered (a false tag
  // match at admission) left it unserved with kInvalidSlot.
  double* costs = batch.result->costs.data();
  for (size_t s = 0; s < context.ops.size(); ++s) {
    for (const ShardOp& op : context.ops[s]) {
      costs[op.index] = op.cost;
      if (op.slot == ObjectShard::kInvalidSlot) [[unlikely]] {
        batch.result->outcome[op.index] = EventOutcome::kUnknownObject;
        batch.result->refused += 1;
      }
    }
    batch.result->breakdown += context.deltas[s];
  }
  batch.result->cost = batch.result->breakdown.Cost(cost_model_);
  batch.result = nullptr;
  batch.active = false;
  --async_active_;
}

void ObjectService::FenceAsync() const {
  if (executor_ == nullptr || async_active_ == 0) return;
  for (uint32_t c = 0; c < static_cast<uint32_t>(async_.size()); ++c) {
    if (!async_[c].active) continue;
    executor_->Wait(c);
    MergeAsync(c);
  }
}

util::Status ObjectService::SubmitBatch(
    std::span<const workload::MultiObjectEvent> events, BatchResult* result,
    BatchTicket* ticket) {
  *ticket = BatchTicket{};  // completed until proven pipelined
  // With one worker (or one shard, or when already inside a parallel
  // worker), or for a batch below kInlineBatchEvents, the executor would be
  // pure overhead: the batch is served in place, in submission order, and
  // never touches a queue. Per-object request order — the only order the
  // algorithms observe — is the same either way, and breakdown counts are
  // integers, so both modes are bit-identical.
  const bool parallel =
      ParallelServing() && events.size() >= kInlineBatchEvents;
  const bool faulty = injector_ != nullptr;
  if (!parallel || faulty) [[unlikely]] {
    // This thread is about to touch shard state directly (the in-place
    // serve, or the serial fault pass): quiesce the pipeline first. Fault
    // time is global serial state (one tick per event in admission order),
    // so a fault batch also finishes before the next is admitted.
    FenceAsync();
  }
  BatchContext* context = nullptr;
  uint32_t index = 0;
  if (parallel) {
    // Acquire a pipeline context, finalizing the batch that last used it
    // if it is still unmerged: with `depth` batches in flight, the oldest
    // is finalized here, which is what bounds queue occupancy.
    EnsureExecutor();
    index = executor_->PeekNextContext();
    if (async_[index].active) {
      executor_->Wait(index);
      MergeAsync(index);
      FinishBatch();
    }
    const uint32_t acquired = executor_->Acquire();
    OBJALLOC_CHECK_EQ(acquired, index);
    context = &executor_->context(index);
  }
  // The plain executor path partitions during admission; fault mode
  // partitions after its fault pass, which decides who is served.
  OBJALLOC_RETURN_IF_ERROR(
      AdmitBatch(events, result, faulty ? nullptr : context));
  if (durability_ != nullptr) [[unlikely]] {
    // Write-ahead: the admitted batch reaches the log at submit, before
    // any shard state changes — the log→serve order is indifferent to how
    // long the pipeline holds the batch afterwards. A persistent IO
    // failure degrades durability and the batch proceeds undurably — see
    // DurableLog::LogBatch.
    durability_->LogBatch(events);
  }
  if (faulty) [[unlikely]] {
    // Every presented event advances fault time, refused ones included.
    util::Status status = FaultPass(events, result, context);
    if (!status.ok() || context == nullptr) {
      result->cost = result->breakdown.Cost(cost_model_);
      // An UNAVAILABLE-rejected batch was logged and consumed fault-time
      // windows, so the checkpoint interval advances for it too.
      FinishBatch();
      return status;
    }
  } else if (context == nullptr) {
    // In-place serve: one pass, costs and traffic accumulated directly.
    for (size_t i = 0; i < events.size(); ++i) {
      PrefetchRoute(i + ObjectShard::kPrefetchDistance);
      const Route route = routes_[i];
      if (route.slot == ObjectShard::kInvalidSlot) [[unlikely]] continue;
      ObjectShard& shard = shards_[route.shard];
      const uint32_t slot = shard.ConfirmSlot(route.slot, events[i].object);
      if (slot == ObjectShard::kInvalidSlot) [[unlikely]] {
        result->outcome[i] = EventOutcome::kUnknownObject;
        result->refused += 1;
        continue;
      }
      result->costs[i] =
          shard.ServeSlot(slot, events[i].request, &result->breakdown);
    }
    result->cost = result->breakdown.Cost(cost_model_);
    FinishBatch();
    return util::Status::Ok();
  }
  async_[index] = AsyncBatch{result, context->sequence, /*active=*/true};
  ++async_active_;
  executor_->Submit(index);
  if (!faulty) [[likely]] {
    *ticket = BatchTicket{index, context->sequence, /*completed=*/false};
    return util::Status::Ok();
  }
  // Fault batches finish before SubmitBatch returns: the context points
  // into service scratch (live_masks_, crash_log_) that the next batch
  // recycles. Per-shard FaultStats merge in fixed shard order (integer
  // counts — exact; repair-latency samples land in shard order, a
  // deterministic multiset), before any auto-checkpoint snapshots them.
  executor_->Wait(index);
  MergeAsync(index);
  for (const FaultStats& stats : context->fault_stats) fault_stats_ += stats;
  FinishBatch();
  return util::Status::Ok();
}

util::Status ObjectService::WaitBatch(BatchTicket* ticket) {
  if (ticket->completed) return util::Status::Ok();
  ticket->completed = true;
  if (executor_ == nullptr || ticket->context >= async_.size()) {
    return util::Status::Ok();
  }
  const AsyncBatch& batch = async_[ticket->context];
  if (!batch.active || batch.sequence != ticket->sequence) {
    // Already finalized — by a drain, a fence, or a later submit reusing
    // the slot. The result was made final then.
    return util::Status::Ok();
  }
  executor_->Wait(ticket->context);
  MergeAsync(ticket->context);
  FinishBatch();
  return util::Status::Ok();
}

util::Status ObjectService::ServeBatchInto(
    std::span<const workload::MultiObjectEvent> events, BatchResult* result) {
  BatchTicket ticket;
  OBJALLOC_RETURN_IF_ERROR(SubmitBatch(events, result, &ticket));
  return WaitBatch(&ticket);
}

util::StatusOr<BatchResult> ObjectService::ServeBatch(
    std::span<const workload::MultiObjectEvent> events) {
  BatchResult result;
  OBJALLOC_RETURN_IF_ERROR(ServeBatchInto(events, &result));
  return result;
}

util::Status ObjectService::FaultPass(
    std::span<const workload::MultiObjectEvent> events, BatchResult* result,
    BatchContext* context) {
  live_masks_.resize(events.size());

  // Serial fault pass: one tick of fault time per event. Scripted and random
  // crash/recover events fire here (in admission order — the only order
  // fault time knows), the live set at each event is recorded for the serve
  // pass, and degraded admission runs: an object needing more live
  // processors than exist rejects the whole batch (fault time keeps the
  // consumed window, so a replay meets the recovered world); a crashed
  // issuer refuses just its own event. Events refused at admission only
  // tick fault time.
  const size_t base_index = injector_->cursor();
  bool reject = false;
  size_t reject_index = 0;
  int reject_live = 0;
  int32_t reject_t = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    fault_buffer_.clear();
    injector_->CollectFaults(live_, &fault_buffer_);
    for (const FaultEvent& fault : fault_buffer_) ApplyFault(fault);
    live_masks_[i] = live_;
    if (reject) continue;  // still ticking fault time for the window
    Route& route = routes_[i];
    if (route.slot == ObjectShard::kInvalidSlot) continue;
    // Confirm admission's candidate before reading the object's threshold;
    // the serve pass below and the executor's ops take the confirmed slot.
    route.slot =
        shards_[route.shard].ConfirmSlot(route.slot, events[i].object);
    if (route.slot == ObjectShard::kInvalidSlot) [[unlikely]] {
      result->outcome[i] = EventOutcome::kUnknownObject;
      result->refused += 1;
      continue;
    }
    const int32_t t = shards_[route.shard].ThresholdAt(route.slot);
    if (live_.Size() < t) {
      reject = true;
      reject_index = i;
      reject_live = live_.Size();
      reject_t = t;
    } else if (!live_.Contains(events[i].request.processor)) {
      result->outcome[i] = EventOutcome::kIssuerDown;
      result->unavailable += 1;
    }
  }
  if (reject) {
    fault_stats_.rejected_batches += 1;
    return util::Status::Unavailable(
        "batch event " + std::to_string(reject_index) + ": only " +
        std::to_string(reject_live) +
        " processor(s) live, object needs t=" + std::to_string(reject_t) +
        "; replay the batch after recovery");
  }

  if (context != nullptr) {
    context->faulty = true;
    context->base_index = base_index;
    context->live_masks = live_masks_.data();
    context->crash_log = &crash_log_;
    context->injector = injector_.get();
    context->check_invariant = check_invariant_;
    for (FaultStats& stats : context->fault_stats) stats = FaultStats();
  }
  for (size_t i = 0; i < events.size(); ++i) {
    // A refused event costs 0, moves no traffic and is never enqueued.
    if (result->outcome[i] != EventOutcome::kServed) continue;
    const Route route = routes_[i];
    if (context != nullptr) {
      context->ops[route.shard].push_back(
          ShardOp{static_cast<uint32_t>(i), route.slot, events[i].object,
                  events[i].request});
    } else {
      PrefetchRoute(i + ObjectShard::kPrefetchDistance);
      result->costs[i] = shards_[route.shard].ServeSlotFaulty(
          route.slot, events[i].request, base_index + i,
          live_masks_[i], crash_log_, *injector_, &result->breakdown,
          &fault_stats_, check_invariant_);
    }
  }
  fault_stats_.unavailable_requests += result->unavailable;
  return util::Status::Ok();
}

void ObjectService::ApplyFault(const FaultEvent& event) {
  if (event.crash) {
    if (!live_.Contains(event.processor)) return;  // already crashed: no-op
    live_.Erase(event.processor);
    fault_stats_.crashes += 1;
    // Scheme eviction is lazy (per-object serve timeline, via the log);
    // only the repair registry is fed eagerly.
    crash_log_.push_back(CrashRecord{event.before_event, event.processor});
    for (ObjectShard& shard : shards_) shard.NoteCrash(event.processor);
  } else {
    if (live_.Contains(event.processor)) return;  // already live: no-op
    live_.Insert(event.processor);
    fault_stats_.recoveries += 1;
    // The recovered copy is stale: it rejoins schemes only through traffic
    // (saving-reads, repairs), never implicitly.
  }
}

util::Status ObjectService::EnableFaults(const FaultInjectorOptions& options,
                                         FaultSchedule schedule) {
  // Arming flushes crash history into the schemes and switches every
  // subsequent batch to the synchronous fault engine: quiesce first. While
  // armed, batches are always synchronous, so the fault path itself never
  // races the pipeline.
  FenceAsync();
  OBJALLOC_RETURN_IF_ERROR(options.Validate(num_processors_));
  OBJALLOC_RETURN_IF_ERROR(
      FaultInjector::ValidateSchedule(schedule, num_processors_));
  if (durability_ != nullptr) [[unlikely]] {
    // All validation passed; from here the arm cannot fail, so the record
    // is safe to write ahead (before `schedule` is moved away).
    std::string payload;
    EncodeEnableFaults(options, schedule, &payload);
    durability_->LogOp(WalRecordType::kEnableFaults, payload);
  }
  // Apply any crash history a previous fault session left pending, so the
  // new session starts from schemes consistent with everything that was
  // ever applied, then restart the log and the per-slot positions.
  for (ObjectShard& shard : shards_) shard.FlushCrashLog(crash_log_);
  crash_log_.clear();
  injector_ = std::make_unique<FaultInjector>(num_processors_, options,
                                              std::move(schedule));
  live_ = ProcessorSet::FirstN(num_processors_);
  fault_stats_ = FaultStats();
  return util::Status::Ok();
}

void ObjectService::DisableFaults() {
  if (durability_ != nullptr) [[unlikely]] {
    // An append failure degrades durability (the on-disk state stays a
    // consistent prefix); the disable itself always proceeds.
    durability_->LogOp(WalRecordType::kDisableFaults, {});
  }
  for (ObjectShard& shard : shards_) shard.FlushCrashLog(crash_log_);
  crash_log_.clear();
  injector_.reset();
  live_ = ProcessorSet::FirstN(num_processors_);
}

util::Status ObjectService::Crash(ProcessorId p) {
  if (injector_ == nullptr) {
    return util::Status::FailedPrecondition(
        "fault mode not enabled (EnableFaults first)");
  }
  if (p < 0 || p >= num_processors_) {
    return util::Status::OutOfRange("processor out of range");
  }
  if (durability_ != nullptr) [[unlikely]] {
    std::string payload;
    EncodeProcessor(p, &payload);
    durability_->LogOp(WalRecordType::kCrash, payload);
  }
  // Stamped at "now": events already served keep the member; every later
  // event evicts it via the log.
  ApplyFault(FaultEvent::Crash(injector_->cursor(), p));
  return util::Status::Ok();
}

util::Status ObjectService::Recover(ProcessorId p) {
  if (injector_ == nullptr) {
    return util::Status::FailedPrecondition(
        "fault mode not enabled (EnableFaults first)");
  }
  if (p < 0 || p >= num_processors_) {
    return util::Status::OutOfRange("processor out of range");
  }
  if (durability_ != nullptr) [[unlikely]] {
    std::string payload;
    EncodeProcessor(p, &payload);
    durability_->LogOp(WalRecordType::kRecover, payload);
  }
  ApplyFault(FaultEvent::Recover(0, p));
  return util::Status::Ok();
}

int64_t ObjectService::RepairDegraded() {
  if (injector_ == nullptr) return 0;
  if (durability_ != nullptr) [[unlikely]] {
    // As in DisableFaults: an append failure degrades durability but never
    // blocks the repair.
    durability_->LogOp(WalRecordType::kRepairDegraded, {});
  }
  int64_t added = 0;
  const size_t index = injector_->cursor();  // repairs happen at "now"
  for (ObjectShard& shard : shards_) {
    added += shard.RepairAllDegraded(live_, index, crash_log_, *injector_,
                                     &fault_stats_, check_invariant_);
  }
  return added;
}

size_t ObjectService::degraded_count() const {
  size_t total = 0;
  for (const ObjectShard& shard : shards_) total += shard.degraded_count();
  return total;
}

util::Status ObjectService::DrainBatches() {
  FenceAsync();
  FinishBatch();
  return util::Status::Ok();
}

bool ObjectService::BatchDone(const BatchTicket& ticket) const {
  if (ticket.completed || executor_ == nullptr ||
      ticket.context >= async_.size()) {
    return true;
  }
  const AsyncBatch& batch = async_[ticket.context];
  return !batch.active || batch.sequence != ticket.sequence ||
         executor_->Done(ticket.context);
}

int ObjectService::CompletionFd() {
  if (!ParallelServing()) return -1;
  EnsureExecutor();
  return executor_->CompletionFd();
}

util::StatusOr<StreamResult> ObjectService::ServeStream(
    workload::EventSource& source, size_t batch_size) {
  if (batch_size == 0) [[unlikely]] {
    return util::Status::InvalidArgument("batch_size must be positive");
  }
  // One buffer, recycled for the whole stream: SubmitBatch copies every
  // event it needs at admission, so the buffer can be refilled while the
  // previous batch is still in flight in the pipeline. Every exit drains
  // it; events of earlier batches stay served. The loop body is
  // allocation-free in steady state.
  std::vector<workload::MultiObjectEvent> buffer(batch_size);
  BatchPipeline<> pipeline(this);
  StreamResult result;
  auto accumulate = [&result](BatchPipeline<>::Slot& slot,
                              const util::Status&) {
    result.breakdown += slot.result.breakdown;
    result.unavailable += slot.result.unavailable;
    result.refused += slot.result.refused;
  };
  while (true) {
    auto filled = source.FillBatch(buffer);
    if (!filled.ok()) return filled.status();
    if (*filled == 0) break;
    OBJALLOC_RETURN_IF_ERROR(pipeline.Submit(
        std::span<const workload::MultiObjectEvent>(buffer.data(), *filled),
        accumulate));
    result.events += static_cast<int64_t>(*filled);
    result.batches += 1;
  }
  OBJALLOC_RETURN_IF_ERROR(pipeline.Drain(accumulate));
  result.cost = result.breakdown.Cost(cost_model_);
  return result;
}

util::StatusOr<ObjectStats> ObjectService::StatsFor(ObjectId id) const {
  FenceAsync();  // per-object accounting is serve-mutated state
  return shards_[ShardOf(id)].StatsFor(id);
}

model::CostBreakdown ObjectService::TotalBreakdown() const {
  FenceAsync();
  model::CostBreakdown total;
  for (const ObjectShard& shard : shards_) total += shard.TotalBreakdown();
  return total;
}

int64_t ObjectService::TotalRequests() const {
  FenceAsync();
  int64_t total = 0;
  for (const ObjectShard& shard : shards_) total += shard.TotalRequests();
  return total;
}

std::vector<ObjectId> ObjectService::SortedObjectIds() const {
  std::vector<ObjectId> ids;
  ids.reserve(object_count());
  for (const ObjectShard& shard : shards_) {
    std::vector<ObjectId> shard_ids = shard.SortedObjectIds();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint32_t ObjectService::SchemeCrc() const {
  FenceAsync();  // schemes are serve-mutated state
  std::vector<ObjectShard::IdScheme> schemes;
  schemes.reserve(object_count());
  for (const ObjectShard& shard : shards_) shard.AppendIdSchemes(&schemes);
  std::sort(schemes.begin(), schemes.end(),
            [](const ObjectShard::IdScheme& a, const ObjectShard::IdScheme& b) {
              return a.id < b.id;
            });
  // Each pair is its id's 8 bytes then its mask's, with no padding, so one
  // CRC of the sorted array is the CRC of every (id, mask) in id order.
  static_assert(sizeof(ObjectShard::IdScheme) ==
                sizeof(ObjectId) + sizeof(uint64_t));
  return util::Crc32(schemes.data(), schemes.size() * sizeof(schemes[0]));
}

// --- Durability ---------------------------------------------------------

ServiceStateImage ObjectService::CaptureServiceState() const {
  ServiceStateImage image;
  image.faults_enabled = injector_ != nullptr;
  if (injector_ != nullptr) {
    image.injector_options = injector_->options();
    image.schedule = injector_->schedule();
    image.injector_cursor = injector_->cursor();
  }
  image.live_mask = live_.mask();
  image.crash_log = crash_log_;
  image.stats = fault_stats_;
  return image;
}

util::Status ObjectService::RestoreServiceState(
    const ServiceStateImage& image) {
  const ProcessorSet world = ProcessorSet::FirstN(num_processors_);
  live_ = ProcessorSet(image.live_mask);
  if (!live_.IsSubsetOf(world)) {
    return util::Status::Internal("service state: live set out of range");
  }
  size_t last = 0;
  for (const CrashRecord& record : image.crash_log) {
    if (record.processor < 0 || record.processor >= num_processors_ ||
        record.index < last) {
      return util::Status::Internal("service state: malformed crash log");
    }
    last = record.index;
  }
  crash_log_ = image.crash_log;
  fault_stats_ = image.stats;
  if (image.faults_enabled) {
    OBJALLOC_RETURN_IF_ERROR(
        image.injector_options.Validate(num_processors_));
    OBJALLOC_RETURN_IF_ERROR(
        FaultInjector::ValidateSchedule(image.schedule, num_processors_));
    injector_ = std::make_unique<FaultInjector>(
        num_processors_, image.injector_options, image.schedule);
    injector_->FastForward(static_cast<size_t>(image.injector_cursor));
  } else {
    injector_.reset();
  }
  return util::Status::Ok();
}

util::Status ObjectService::WriteSnapshot(CheckpointWriter* writer,
                                          bool delta) const {
  OBJALLOC_RETURN_IF_ERROR(writer->AppendServiceState(CaptureServiceState()));
  // Slot ranges are split into bounded pieces so the scratch buffer (not
  // the shard or the dirty span) caps peak memory.
  constexpr uint32_t kSlotsPerAppend = 2048;
  std::string scratch;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  std::vector<std::pair<uint32_t, uint32_t>> pieces;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ObjectShard& shard = shards_[s];
    writer->BeginShard(static_cast<uint32_t>(s));
    if (delta) {
      shard.CollectDirtyRanges(&ranges);
    } else {
      ranges.assign(1, {0, shard.slot_span()});
    }
    pieces.clear();
    for (const auto& [begin, end] : ranges) {
      // 64-bit cursor: begin + kSlotsPerAppend could wrap at the top of
      // the 32-bit slot space.
      for (uint64_t piece = begin; piece < end; piece += kSlotsPerAppend) {
        pieces.emplace_back(
            static_cast<uint32_t>(piece),
            static_cast<uint32_t>(
                std::min<uint64_t>(end, piece + kSlotsPerAppend)));
      }
    }
    scratch.clear();
    if (delta) {
      shard.AppendDeltaHeader(static_cast<uint32_t>(pieces.size()), &scratch);
    } else {
      shard.AppendSnapshotHeader(&scratch);
    }
    OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    for (const auto& [begin, end] : pieces) {
      scratch.clear();
      if (delta) {
        shard.AppendDeltaRange(begin, end, &scratch);
      } else {
        shard.AppendSnapshotSlots(begin, end, &scratch);
      }
      OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    }
    scratch.clear();
    shard.AppendSnapshotFooter(&scratch);
    OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    OBJALLOC_RETURN_IF_ERROR(writer->EndShard());
  }
  return util::Status::Ok();
}

void ObjectService::ResetDirtyTracking(bool track) {
  for (ObjectShard& shard : shards_) {
    if (track) {
      shard.EnableDirtyTracking();
      shard.ClearDirty();
    } else {
      shard.DisableDirtyTracking();
    }
  }
}

util::Status ObjectService::EnableDurability(const std::string& dir,
                                             const DurabilityOptions& options) {
  if (durability_ != nullptr) {
    return util::Status::FailedPrecondition("durability already enabled");
  }
  FenceAsync();  // the generation-1 snapshot reads every shard
  auto log = DurableLog::Start(
      dir, options,
      DurableConfig{num_processors_, static_cast<int32_t>(shards_.size()),
                    cost_model_},
      *this);
  if (!log.ok()) return log.status();
  durability_ = std::move(*log);
  return util::Status::Ok();
}

util::Status ObjectService::DisableDurability() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  util::Status status = durability_->Close();
  durability_.reset();
  return status;
}

util::Status ObjectService::SyncDurable() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  return durability_->Sync();
}

WalCommitStats ObjectService::DurableCommitStats() const {
  return durability_ != nullptr ? durability_->CommitStats()
                                : WalCommitStats();
}

util::Status ObjectService::Checkpoint() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  // Snapshot quiescence: every in-flight batch must be fully applied (and
  // merged) before the shards are serialized — a checkpoint reached from
  // WaitBatch's auto-checkpoint hook may find later pipelined batches
  // still running.
  FenceAsync();
  return durability_->Checkpoint(*this);
}

util::Status ObjectService::ReattachDurability() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  FenceAsync();  // the fresh checkpoint reads every shard
  OBJALLOC_RETURN_IF_ERROR(durability_->Reattach(*this));
  if (durability_->options().verify_reattach) {
    // Verifiable resync: prove the healed directory actually recovers
    // before reporting success. A failure here means the disk is still
    // lying (reads don't match writes) — degrade again.
    RecoveryReport report;
    util::Status verify = VerifyDurableDir(durability_->dir(), &report);
    if (!verify.ok()) return durability_->EnterDegraded(verify);
  }
  return util::Status::Ok();
}

ServiceLoad ObjectService::Load() const {
  ServiceLoad load;
  if (executor_ != nullptr) {
    load.executor_queued_ops = executor_->QueuedOps();
    load.inflight_batches = executor_->InflightBatches();
  }
  if (durability_ != nullptr) {
    load.durability = durability_->state();
    load.wal_backlog_bytes = durability_->BacklogBytes();
  }
  return load;
}

ServiceStats ObjectService::Stats() const {
  ServiceLoad load = Load();
  FenceAsync();
  ServiceStats stats;
  stats.load = load;
  stats.objects = object_count();
  stats.total_requests = TotalRequests();
  stats.total_breakdown = TotalBreakdown();
  if (durability_ != nullptr) {
    const DurableLog& d = *durability_;
    stats.durability = d.state();
    stats.durability_error = d.degraded_error();
    stats.checkpoint_retries = d.checkpoint_retries();
    stats.degraded_batches = d.degraded_batches();
    stats.reattach_count = d.reattach_count();
    stats.wal_write_retries = d.wal_write_retries();
    stats.commit = d.CommitStats();
  }
  return stats;
}

util::Status ObjectService::Scrub(const std::string& dir,
                                  ScrubReport* report) {
  *report = ScrubReport();
  OBJALLOC_RETURN_IF_ERROR(ScrubFiles(dir, report));
  // The semantic pass: would Recover succeed, and what would it do?
  util::Status status = VerifyDurableDir(dir, &report->recovery);
  report->recoverable = status.ok();
  bool files_ok = true;
  for (const ScrubFileReport& file : report->files) {
    files_ok = files_ok && file.verdict == ScrubVerdict::kOk;
  }
  report->clean = report->recoverable && files_ok &&
                  !report->recovery.fell_back && !report->recovery.torn_tail &&
                  !report->recovery.manifest_missing &&
                  !report->recovery.manifest_corrupt;
  return status;
}

util::Status ObjectService::RestoreSnapshot(CheckpointReader* reader,
                                            RecoveryReport* report) {
  OBJALLOC_CHECK_EQ(static_cast<size_t>(reader->config().num_shards),
                    shards_.size());
  const bool delta = reader->is_delta();
  // Slots never move and ids never change once assigned, so a snapshot
  // only ever *extends* each shard's slot span (from 0 for a full one):
  // only the slots past the prior span hold ids not yet checked below.
  std::vector<uint32_t> prior_span(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    prior_span[s] = shards_[s].slot_span();
  }
  if (delta) {
    for (ObjectShard& shard : shards_) shard.BeginDeltaRestore();
  }
  ServiceStateImage state;
  bool saw_state = false;
  CheckpointReader::Piece piece;
  for (;;) {
    OBJALLOC_RETURN_IF_ERROR(reader->Next(&piece));
    if (piece.done) break;
    if (piece.service_state) {
      state = std::move(piece.state);
      saw_state = true;
      continue;
    }
    if (piece.shard >= shards_.size()) {
      return util::Status::Internal("checkpoint: shard index " +
                                    std::to_string(piece.shard) +
                                    " out of range");
    }
    ObjectShard& shard = shards_[piece.shard];
    OBJALLOC_RETURN_IF_ERROR(
        delta ? shard.RestoreDeltaChunk(piece.bytes, piece.last)
              : shard.RestoreSnapshotChunk(piece.bytes, piece.last));
  }
  if (!saw_state) {
    return util::Status::Internal("checkpoint: missing service state record");
  }
  // Verify the partition: an id must live in exactly the shard the hash
  // assigns it, or admission and future AddObject calls would look for it
  // elsewhere. Each shard has already refused its own duplicates, and an id
  // stored in two shards is in a wrong one.
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (uint32_t slot = prior_span[s]; slot < shards_[s].slot_span();
         ++slot) {
      const ObjectId id = shards_[s].IdAt(slot);
      if (ShardOf(id) != s) {
        return util::Status::Internal("checkpoint: object " +
                                      std::to_string(id) +
                                      " stored in the wrong shard");
      }
    }
  }
  report->objects_restored = object_count();
  // The snapshot's service-state image wins outright: fault state, crash
  // journal and injector cursor are small and snapshotted whole in every
  // generation, full or delta.
  return RestoreServiceState(state);
}

}  // namespace objalloc::core
