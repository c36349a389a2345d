#include "objalloc/core/object_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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
    // External-directory mode: the service's route table is the single
    // id -> (shard, slot) map; shards keep no directory of their own.
    shards_.emplace_back(num_processors, cost_model,
                         /*external_directory=*/true);
  }
  const uint64_t n = shards_.size();
  shard_mask_ = (n & (n - 1)) == 0 ? n - 1 : ~uint64_t{0};
  const uint32_t shard_bits =
      static_cast<uint32_t>(std::bit_width(n - 1));
  route_slot_bits_ = 32 - shard_bits;
  route_slot_mask_ =
      static_cast<uint32_t>((uint64_t{1} << route_slot_bits_) - 1);
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

size_t ObjectService::ShardOf(ObjectId id) const {
  // splitmix64 finalizer: a fixed, platform-independent mix so the
  // object -> shard map never depends on std::hash or build flavor.
  uint64_t x = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(shard_mask_ != ~uint64_t{0}
                                 ? x & shard_mask_
                                 : x % shards_.size());
}

util::Status ObjectService::AddObject(ObjectId id,
                                      const ObjectConfig& config) {
  // Registration mutates a shard's slot table (possibly reallocating it):
  // no worker may be serving while that happens.
  FenceAsync();
  if (injector_ != nullptr) [[unlikely]] {
    // Registrations under fault mode must respect the fault layer's two
    // preconditions: inlinable algorithm kind, and no replica born on a
    // crashed processor (scheme ⊆ live is the scrub invariant).
    if (config.algorithm != AlgorithmKind::kStatic &&
        config.algorithm != AlgorithmKind::kDynamic) {
      return util::Status::FailedPrecondition(
          "fault mode supports only the inlined algorithm kinds");
    }
    if (!config.initial_scheme.IsSubsetOf(live_)) {
      return util::Status::FailedPrecondition(
          "initial scheme " + config.initial_scheme.ToString() +
          " includes crashed processors (live " + live_.ToString() + ")");
    }
  }
  if (durability_ != nullptr) [[unlikely]] {
    // Write-ahead: the registration record reaches the log before the shard
    // mutates, so it must be validated *here* — a logged AddObject may never
    // fail on replay.
    if (config.algorithm != AlgorithmKind::kStatic &&
        config.algorithm != AlgorithmKind::kDynamic) {
      return util::Status::FailedPrecondition(
          "durability supports only the inlined algorithm kinds (static, "
          "dynamic)");
    }
  }
  // The shards keep no directory in external mode, so the duplicate check
  // lives here — before the WAL write, which must never log a registration
  // that could fail on replay.
  if (route_directory_.Contains(id)) {
    return util::Status::InvalidArgument("duplicate object id " +
                                         std::to_string(id));
  }
  const size_t shard = ShardOf(id);
  // The slot the shard will hand out is its current span (objects are never
  // removed, so the free list is empty). Reject while it fits neither the
  // packed word's slot field nor the directory's reserved sentinels.
  const uint32_t next_slot = shards_[shard].slot_span();
  if (next_slot > route_slot_mask_ ||
      PackRoute(shard, next_slot) >= 0xFFFFFFFEu) [[unlikely]] {
    return util::Status::InvalidArgument(
        "shard " + std::to_string(shard) + " slot space exhausted (" +
        std::to_string(next_slot) + " objects)");
  }
  if (durability_ != nullptr) [[unlikely]] {
    OBJALLOC_RETURN_IF_ERROR(
        ObjectShard::ValidateConfig(config, num_processors_));
    std::string payload;
    EncodeAddObject(id, config, &payload);
    OBJALLOC_RETURN_IF_ERROR(LogOp(WalRecordType::kAddObject, payload));
  }
  util::StatusOr<uint32_t> slot = shards_[shard].AddObject(id, config);
  if (slot.ok()) {
    route_directory_.Insert(id, PackRoute(shard, *slot));
    if (injector_ != nullptr) [[unlikely]] {
      // Born now: crashes already in the log predate this scheme (it was
      // validated against the current live set above) and must not apply.
      shards_[shard].SetCrashLogStart(*slot, crash_log_.size());
    }
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
  route_directory_.Reserve(expected_total);
}

size_t ObjectService::MemoryUsageBytes() const {
  FenceAsync();
  size_t total = route_directory_.MemoryUsageBytes() +
                 routes_.capacity() * sizeof(routes_[0]) +
                 fault_buffer_.capacity() * sizeof(fault_buffer_[0]) +
                 live_masks_.capacity() * sizeof(live_masks_[0]);
  for (const ObjectShard& shard : shards_) total += shard.MemoryUsageBytes();
  return total;
}

bool ObjectService::HasObject(ObjectId id) const {
  return route_directory_.Contains(id);
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
  result->breakdown = model::CostBreakdown();
  result->cost = 0;
  result->served.clear();
  result->unavailable = 0;

  // Admission pass: validate everything and resolve each event's (shard,
  // slot) route exactly once, before any shard state changes, so a
  // rejected batch leaves the service untouched. Validation reads only
  // registration-time state (the route directory, processor bounds) that
  // in-flight batches never mutate — which is what makes admitting batch
  // n+1 while batch n is still being served safe.
  routes_.resize(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const workload::MultiObjectEvent& event = events[i];
    const uint32_t route = route_directory_.Find(event.object);
    if (route == util::FlatDirectory<uint32_t>::kNotFound) {
      return util::Status::NotFound("batch event " + std::to_string(i) +
                                    ": unknown object " +
                                    std::to_string(event.object));
    }
    if (event.request.processor < 0 ||
        event.request.processor >= num_processors_) {
      return util::Status::OutOfRange(
          "batch event " + std::to_string(i) + ": processor " +
          std::to_string(event.request.processor) + " out of range");
    }
    routes_[i] = route;
    if (context != nullptr) {
      // Partition for the executor while the route is hot: the worker gets
      // everything it needs (slot, request, cost cell index) by value.
      context->ops[RouteShard(route)].push_back(ShardOp{
          static_cast<uint32_t>(i), RouteSlot(route), event.request});
    }
  }
  return util::Status::Ok();
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
  // contract leg 3).
  for (const model::CostBreakdown& delta : context.deltas) {
    batch.result->breakdown += delta;
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
  // worker) the executor would be pure overhead: the batch is served in
  // place, in submission order, and never touches a queue. Per-object
  // request order — the only order the algorithms observe — is the same
  // either way, and breakdown counts are integers, so both modes are
  // bit-identical.
  const bool parallel = ParallelServing();
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
      OBJALLOC_RETURN_IF_ERROR(FinishBatch());
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
    // LogBatch.
    OBJALLOC_RETURN_IF_ERROR(LogBatch(events));
  }
  if (faulty) [[unlikely]] {
    // A batch that failed *validation* above never advances fault time (it
    // is a caller bug, not a fault); from here on, every presented event
    // does.
    util::Status status = FaultPass(events, result, context);
    if (!status.ok() || context == nullptr) {
      result->cost = result->breakdown.Cost(cost_model_);
      // An UNAVAILABLE-rejected batch was logged and consumed fault-time
      // windows, so the checkpoint interval advances for it too; its
      // rejection status outranks a checkpoint error.
      const util::Status finish = FinishBatch();
      return status.ok() ? finish : status;
    }
  } else if (context == nullptr) {
    // In-place serve: one pass, costs and traffic accumulated directly.
    for (size_t i = 0; i < events.size(); ++i) {
      const uint32_t route = routes_[i];
      result->costs[i] = shards_[RouteShard(route)].ServeSlot(
          RouteSlot(route), events[i].request, &result->breakdown);
    }
    result->cost = result->breakdown.Cost(cost_model_);
    return FinishBatch();
  }
  context->costs = result->costs.data();
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
  return FinishBatch();
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
  return FinishBatch();
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
  result->served.assign(events.size(), 1);
  live_masks_.resize(events.size());

  // Serial fault pass: one tick of fault time per event. Scripted and random
  // crash/recover events fire here (in admission order — the only order
  // fault time knows), the live set at each event is recorded for the serve
  // pass, and degraded admission runs: an object needing more live
  // processors than exist rejects the whole batch (fault time keeps the
  // consumed window, so a replay meets the recovered world); a crashed
  // issuer refuses just its own event.
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
    const uint32_t route = routes_[i];
    const int32_t t = shards_[RouteShard(route)].ThresholdAt(RouteSlot(route));
    if (live_.Size() < t) {
      reject = true;
      reject_index = i;
      reject_live = live_.Size();
      reject_t = t;
    } else if (!live_.Contains(events[i].request.processor)) {
      result->served[i] = 0;
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
    if (!result->served[i]) {
      // Refused (issuer crashed): cost 0, no traffic, never enqueued.
      result->costs[i] = 0;
      result->unavailable += 1;
      continue;
    }
    const uint32_t route = routes_[i];
    if (context != nullptr) {
      context->ops[RouteShard(route)].push_back(ShardOp{
          static_cast<uint32_t>(i), RouteSlot(route), events[i].request});
    } else {
      result->costs[i] = shards_[RouteShard(route)].ServeSlotFaulty(
          RouteSlot(route), events[i].request, base_index + i,
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
  for (const ObjectShard& shard : shards_) {
    if (shard.HasFallbackObjects()) {
      return util::Status::FailedPrecondition(
          "fault injection supports only the inlined algorithm kinds "
          "(static, dynamic); a registered object uses a fallback");
    }
  }
  if (durability_ != nullptr) [[unlikely]] {
    // All validation passed; from here the arm cannot fail, so the record
    // is safe to write ahead (before `schedule` is moved away).
    std::string payload;
    EncodeEnableFaults(options, schedule, &payload);
    OBJALLOC_RETURN_IF_ERROR(LogOp(WalRecordType::kEnableFaults, payload));
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
    // Best effort: an append failure detaches durability (the on-disk state
    // stays a consistent prefix); the disable itself always proceeds.
    (void)LogOp(WalRecordType::kDisableFaults, {});
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
    OBJALLOC_RETURN_IF_ERROR(LogOp(WalRecordType::kCrash, payload));
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
    OBJALLOC_RETURN_IF_ERROR(LogOp(WalRecordType::kRecover, payload));
  }
  ApplyFault(FaultEvent::Recover(0, p));
  return util::Status::Ok();
}

int64_t ObjectService::RepairDegraded() {
  if (injector_ == nullptr) return 0;
  if (durability_ != nullptr) [[unlikely]] {
    // Best effort, as in DisableFaults: an append failure detaches
    // durability but never blocks the repair.
    (void)LogOp(WalRecordType::kRepairDegraded, {});
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
  return FinishBatch();
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
  // previous batch is still in flight. Results and tickets are doubled —
  // the one thing that must stay untouched until WaitBatch is the result a
  // pipelined batch writes into. The loop body is allocation-free in
  // steady state.
  std::vector<workload::MultiObjectEvent> buffer(batch_size);
  BatchResult batches[2];
  BatchTicket tickets[2];
  StreamResult result;
  int cur = 0;
  auto accumulate = [&result](const BatchResult& batch) {
    result.breakdown += batch.breakdown;
    result.unavailable += batch.unavailable;
  };
  auto fail = [this](util::Status status) -> util::Status {
    // Leave the service quiescent; events of earlier batches stay served.
    (void)DrainBatches();
    return status;
  };
  while (true) {
    auto filled = source.FillBatch(buffer);
    if (!filled.ok()) return fail(filled.status());
    if (*filled == 0) break;
    if (!tickets[cur].completed) {
      util::Status status = WaitBatch(&tickets[cur]);
      if (!status.ok()) return fail(status);
      accumulate(batches[cur]);
    }
    util::Status status = SubmitBatch(
        std::span<const workload::MultiObjectEvent>(buffer.data(), *filled),
        &batches[cur], &tickets[cur]);
    if (!status.ok()) return fail(status);
    result.events += static_cast<int64_t>(*filled);
    result.batches += 1;
    if (tickets[cur].completed) {
      accumulate(batches[cur]);  // synchronous path: final already
    } else {
      cur ^= 1;  // pipelined: flip so batch n+1 overlaps batch n
    }
  }
  for (int i = 0; i < 2; ++i) {
    if (tickets[i].completed) continue;
    util::Status status = WaitBatch(&tickets[i]);
    if (!status.ok()) return fail(status);
    accumulate(batches[i]);
  }
  result.cost = result.breakdown.Cost(cost_model_);
  return result;
}

util::StatusOr<ObjectStats> ObjectService::StatsFor(ObjectId id) const {
  FenceAsync();  // per-object accounting is serve-mutated state
  const uint32_t route = route_directory_.Find(id);
  if (route == util::FlatDirectory<uint32_t>::kNotFound) {
    return util::Status::NotFound("unknown object " + std::to_string(id));
  }
  return shards_[RouteShard(route)].StatsAt(RouteSlot(route));
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

// --- Durability ---------------------------------------------------------

namespace {

AsyncWalOptions AsyncWalOptionsFrom(const DurabilityOptions& options) {
  AsyncWalOptions out;
  out.group_commit_delay_us = options.group_commit_delay_us;
  out.group_commit_bytes = options.group_commit_bytes;
  out.sync_mode = options.sync_mode;
  out.retry = options.retry;
  return out;
}

}  // namespace

util::Status ObjectService::EnterDegraded(util::Status status) {
  Durability& d = *durability_;
  if (d.state == DurabilityState::kDegraded) return d.degraded_error;
  d.state = DurabilityState::kDegraded;
  d.degraded_error = status;
  // Join the log thread; the writer object stays alive so its final commit
  // stats (and the original sticky error) remain readable until reattach.
  if (d.wal != nullptr) (void)d.wal->Detach();
  return status;
}

util::Status ObjectService::LogBatch(
    std::span<const workload::MultiObjectEvent> events) {
  Durability& d = *durability_;
  if (d.state != DurabilityState::kDurable) [[unlikely]] {
    // Degraded: the disk is gone but the service is not. Serve the batch
    // undurably; the reattach checkpoint will capture its effects.
    ++d.degraded_batches;
    return util::Status::Ok();
  }
  const uint64_t lsn = d.wal->AppendBatch(events);
  // The append itself is in-memory and cannot fail; I/O errors are sticky
  // inside the writer (after its own rollback-and-rewrite retry gave up).
  // sync_every_batch waits the record out (memory and disk never diverge);
  // the default mode only probes for a sticky error so a dead disk is
  // noticed within one batch rather than at the next sync.
  util::Status status = util::Status::Ok();
  if (d.options.sync_every_batch) {
    status = d.wal->WaitDurable(lsn);
  } else if (!d.wal->is_open()) [[unlikely]] {
    status = d.wal->Detach();
    if (status.ok()) status = util::Status::Internal("WAL writer closed");
  }
  if (!status.ok()) {
    // Degrade, don't stop: the writer already rolled the file back to the
    // last durable group boundary, so the on-disk state is a consistent
    // prefix. The batch is served undurably.
    (void)EnterDegraded(status);
    ++d.degraded_batches;
    return util::Status::Ok();
  }
  d.events_since_checkpoint += events.size();
  return util::Status::Ok();
}

util::Status ObjectService::LogOp(WalRecordType type,
                                  std::string_view payload) {
  Durability& d = *durability_;
  if (d.state != DurabilityState::kDurable) [[unlikely]] {
    return util::Status::Ok();  // applies in memory; reattach captures it
  }
  const uint64_t lsn = d.wal->Append(type, payload);
  util::Status status = util::Status::Ok();
  if (d.options.sync_every_batch) {
    status = d.wal->WaitDurable(lsn);
  } else if (!d.wal->is_open()) [[unlikely]] {
    status = d.wal->Detach();
    if (status.ok()) status = util::Status::Internal("WAL writer closed");
  }
  if (!status.ok()) (void)EnterDegraded(status);
  return util::Status::Ok();
}

util::Status ObjectService::FinishBatchDurable() {
  Durability& d = *durability_;
  if (d.state != DurabilityState::kDurable) [[unlikely]] {
    return util::Status::Ok();  // no auto-checkpoints while degraded
  }
  if (d.options.checkpoint_interval_events > 0 &&
      d.events_since_checkpoint >= d.options.checkpoint_interval_events) {
    util::Status status = Checkpoint();
    if (!status.ok() && d.state == DurabilityState::kDegraded) {
      // The auto-checkpoint degraded the service, but the batch that
      // triggered it was served (and logged) fine — don't fail it; the
      // degradation is reported through Stats / the next explicit call.
      return util::Status::Ok();
    }
    return status;
  }
  return util::Status::Ok();
}

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

util::Status ObjectService::WriteCheckpointFile(const std::string& path,
                                                uint64_t sequence) const {
  auto writer = CheckpointWriter::Open(path, sequence, durability_->config);
  if (!writer.ok()) return writer.status();
  OBJALLOC_RETURN_IF_ERROR(writer->AppendServiceState(CaptureServiceState()));
  // Slot records stream out one slab page at a time; the scratch buffer
  // and the writer's chunk buffer bound peak memory regardless of how many
  // objects the shards hold.
  constexpr uint32_t kSlotsPerAppend = 2048;
  std::string scratch;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ObjectShard& shard = shards_[s];
    writer->BeginShard(static_cast<uint32_t>(s));
    scratch.clear();
    shard.AppendSnapshotHeader(&scratch);
    OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    const uint32_t span = shard.slot_span();
    for (uint32_t begin = 0; begin < span; begin += kSlotsPerAppend) {
      scratch.clear();
      shard.AppendSnapshotSlots(begin, std::min(span, begin + kSlotsPerAppend),
                                &scratch);
      OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    }
    scratch.clear();
    shard.AppendSnapshotFooter(&scratch);
    OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    OBJALLOC_RETURN_IF_ERROR(writer->EndShard());
  }
  return writer->Finish(static_cast<uint32_t>(shards_.size()));
}

util::Status ObjectService::WriteDeltaCheckpointFile(const std::string& path,
                                                     uint64_t sequence) const {
  auto writer = CheckpointWriter::OpenDelta(path, sequence, sequence - 1,
                                            durability_->config);
  if (!writer.ok()) return writer.status();
  OBJALLOC_RETURN_IF_ERROR(writer->AppendServiceState(CaptureServiceState()));
  // Dirty ranges are split into bounded pieces so the scratch buffer (not
  // the dirty span) caps peak memory, exactly like the full-snapshot path.
  constexpr uint32_t kSlotsPerAppend = 2048;
  std::string scratch;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  std::vector<std::pair<uint32_t, uint32_t>> pieces;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ObjectShard& shard = shards_[s];
    writer->BeginShard(static_cast<uint32_t>(s));
    shard.CollectDirtyRanges(&ranges);
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
    shard.AppendDeltaHeader(static_cast<uint32_t>(pieces.size()), &scratch);
    OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    for (const auto& [begin, end] : pieces) {
      scratch.clear();
      shard.AppendDeltaRange(begin, end, &scratch);
      OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    }
    scratch.clear();
    shard.AppendSnapshotFooter(&scratch);
    OBJALLOC_RETURN_IF_ERROR(writer->AppendShardBytes(scratch));
    OBJALLOC_RETURN_IF_ERROR(writer->EndShard());
  }
  return writer->Finish(static_cast<uint32_t>(shards_.size()));
}

util::Status ObjectService::EnableDurability(const std::string& dir,
                                             const DurabilityOptions& options) {
  if (durability_ != nullptr) {
    return util::Status::FailedPrecondition("durability already enabled");
  }
  FenceAsync();  // the generation-1 snapshot reads every shard
  OBJALLOC_RETURN_IF_ERROR(options.Validate());
  for (const ObjectShard& shard : shards_) {
    if (shard.HasFallbackObjects()) {
      return util::Status::FailedPrecondition(
          "durability supports only the inlined algorithm kinds (static, "
          "dynamic); a registered object uses a fallback");
    }
  }
  OBJALLOC_RETURN_IF_ERROR(util::EnsureDir(dir));
  // This call *starts* a durable history; durable files left by a previous
  // incarnation (including their temp files) are removed so a manifest-less
  // scan can never resurrect them.
  auto names = util::ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    if (name.rfind(kManifestFileName, 0) == 0 ||
        name.rfind("checkpoint-", 0) == 0 || name.rfind("wal-", 0) == 0) {
      OBJALLOC_RETURN_IF_ERROR(util::RemoveFile(dir + "/" + name));
    }
  }
  auto d = std::make_unique<Durability>();
  d->dir = dir;
  d->options = options;
  d->config =
      DurableConfig{num_processors_, static_cast<int32_t>(shards_.size()),
                    cost_model_};
  d->sequence = 1;
  d->base_sequence = 1;
  durability_ = std::move(d);
  // Generation 1: a snapshot of the current state (empty service or one
  // mid-life — both are just states) + a fresh WAL + the manifest. Each
  // step retries transient IO failures; a persistent failure here is a
  // clean error (durability never armed), not a degradation.
  util::Env* env = util::CurrentEnv();
  uint64_t* retries = &durability_->checkpoint_retries;
  util::Status status = util::RetryIo(options.retry, env, retries, [&] {
    return WriteCheckpointFile(durability_->dir + "/" + CheckpointFileName(1),
                               1);
  });
  if (status.ok()) {
    util::StatusOr<WalWriter> wal{util::Status::Internal("unattempted")};
    status = util::RetryIo(options.retry, env, retries, [&] {
      wal = WalWriter::Create(durability_->dir + "/" + WalFileName(1), 1,
                              durability_->config);
      return wal.status();
    });
    if (status.ok()) {
      durability_->wal = std::make_unique<AsyncWalWriter>();
      status = durability_->wal->Attach(std::move(*wal),
                                        AsyncWalOptionsFrom(options));
      if (status.ok()) {
        status = util::RetryIo(options.retry, env, retries, [&] {
          return WriteManifest(durability_->dir,
                               Manifest{1, 1, durability_->config});
        });
      }
    }
  }
  if (!status.ok()) {
    durability_.reset();
    return status;
  }
  // Delta checkpoints need to know which slab pages each checkpoint window
  // dirties; the generation-1 snapshot is full, so the slate starts clean.
  for (ObjectShard& shard : shards_) {
    if (options.delta_chain_limit > 0) {
      shard.EnableDirtyTracking();
      shard.ClearDirty();
    } else {
      shard.DisableDirtyTracking();
    }
  }
  return util::Status::Ok();
}

util::Status ObjectService::DisableDurability() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  // A degraded detach reports the degrading error — the caller learns that
  // a tail of history never reached disk — but detaches either way.
  util::Status status = durability_->state == DurabilityState::kDegraded
                            ? durability_->degraded_error
                            : durability_->wal->Detach();
  durability_.reset();
  return status;
}

util::Status ObjectService::SyncDurable() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  if (durability_->state == DurabilityState::kDegraded) {
    return durability_->degraded_error;
  }
  util::Status status = durability_->wal->Flush();
  if (!status.ok()) return EnterDegraded(status);
  return status;
}

WalCommitStats ObjectService::DurableCommitStats() const {
  if (durability_ == nullptr || durability_->wal == nullptr) {
    return WalCommitStats();
  }
  return durability_->wal->Stats();
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
  Durability& d = *durability_;
  if (d.state == DurabilityState::kDegraded) {
    return d.degraded_error;
  }
  // (1) Everything the snapshot will contain must be durable under the old
  //     generation first: state(ckpt g+1) == state(ckpt g) + replay(wal-g)
  //     only holds if wal-g is complete on disk.
  util::Status status = d.wal->Flush();
  if (!status.ok()) {
    return EnterDegraded(status);
  }
  const uint64_t next = d.sequence + 1;
  // Delta while the chain has room, full once it hits the limit (the
  // periodic compaction that keeps recovery cost bounded).
  const bool delta = d.options.delta_chain_limit > 0 &&
                     d.delta_chain_length < d.options.delta_chain_limit;
  const std::string ckpt_path =
      d.dir + "/" +
      (delta ? DeltaCheckpointFileName(next) : CheckpointFileName(next));
  const std::string wal_path = d.dir + "/" + WalFileName(next);
  util::Env* env = util::CurrentEnv();
  // (2) The snapshot, streamed to a temp file and atomically published
  //     under its final name. Safe to retry whole: the temp file is
  //     recreated from scratch each attempt.
  status = util::RetryIo(d.options.retry, env, &d.checkpoint_retries, [&] {
    return delta ? WriteDeltaCheckpointFile(ckpt_path, next)
                 : WriteCheckpointFile(ckpt_path, next);
  });
  // (3) The next generation's WAL with a synced header — it must exist
  //     before the manifest can name it. Create truncates, so a retry
  //     rewrites the header cleanly.
  util::StatusOr<WalWriter> wal{status.ok()
                                    ? util::Status::Internal("unattempted")
                                    : status};
  if (status.ok()) {
    status = util::RetryIo(d.options.retry, env, &d.checkpoint_retries, [&] {
      wal = WalWriter::Create(wal_path, next, d.config);
      return wal.status();
    });
  }
  // (4) Commit point: the manifest flips to the new generation (and names
  //     the full snapshot its delta chain stands on).
  if (wal.ok()) {
    status = util::RetryIo(d.options.retry, env, &d.checkpoint_retries, [&] {
      return WriteManifest(
          d.dir, Manifest{next, delta ? d.base_sequence : next, d.config});
    });
  }
  if (!status.ok()) {
    // Roll back the orphans so a manifest-less recovery scan cannot pick a
    // generation whose WAL chain never went live. The current generation
    // stays fully intact and appendable — but the disk just refused a
    // persistent write, so the service degrades rather than pretending the
    // next interval will fare better.
    (void)util::RemoveFile(ckpt_path);
    (void)util::RemoveFile(wal_path);
    return EnterDegraded(status);
  }
  status = d.wal->Rotate(std::move(*wal));
  if (!status.ok()) {
    return EnterDegraded(status);
  }
  d.sequence = next;
  d.events_since_checkpoint = 0;
  if (delta) {
    d.delta_chain_length += 1;
  } else {
    d.base_sequence = next;
    d.delta_chain_length = 0;
  }
  // The published snapshot covers every page dirtied so far; the next
  // delta window starts clean. (Only after the manifest commit — a failed
  // checkpoint must leave the pages marked for the retry.)
  if (d.options.delta_chain_limit > 0) {
    for (ObjectShard& shard : shards_) shard.ClearDirty();
  }
  // (5) GC, best effort: drop generations beyond keep_generations (walking
  //     down until the names stop existing catches backlogs left by
  //     earlier failed GCs). WALs fall at keep_generations exactly;
  //     snapshot files survive further down to the full snapshot the
  //     oldest kept generation's delta chain stands on.
  if (next > static_cast<uint64_t>(d.options.keep_generations)) {
    const uint64_t wal_floor =
        next - static_cast<uint64_t>(d.options.keep_generations);
    uint64_t ckpt_floor = wal_floor + 1;
    while (ckpt_floor > 1 &&
           !util::FileExists(d.dir + "/" + CheckpointFileName(ckpt_floor))) {
      --ckpt_floor;
    }
    for (uint64_t gen = wal_floor;; --gen) {
      const std::string wal_name = d.dir + "/" + WalFileName(gen);
      const std::string full_name = d.dir + "/" + CheckpointFileName(gen);
      const std::string delta_name = d.dir + "/" + DeltaCheckpointFileName(gen);
      bool had_files = util::FileExists(wal_name) ||
                       util::FileExists(full_name) ||
                       util::FileExists(delta_name);
      (void)util::RemoveFile(wal_name);
      if (gen < ckpt_floor) {
        (void)util::RemoveFile(full_name);
        (void)util::RemoveFile(delta_name);
      }
      if (!had_files || gen == 1) break;
    }
  }
  return util::Status::Ok();
}

util::Status ObjectService::ReattachDurability() {
  if (durability_ == nullptr) {
    return util::Status::FailedPrecondition("durability not enabled");
  }
  Durability& d = *durability_;
  if (d.state != DurabilityState::kDegraded) {
    return util::Status::FailedPrecondition(
        "durability is healthy — nothing to reattach");
  }
  // The fresh checkpoint reads every shard; quiesce first.
  FenceAsync();
  // The old writer is already detached (EnterDegraded joined its thread);
  // fold its retry count into the service totals and release it.
  if (d.wal != nullptr) {
    d.wal_retries_detached += d.wal->Stats().write_retries;
    d.wal.reset();
  }
  // Quarantine the failed generation's WAL: its durable prefix is real
  // history, but the new checkpoint supersedes it and it must never be
  // picked up by a manifest-less recovery scan. Renamed, not deleted —
  // forensics beat free disk blocks right after a disk scare. NotFound is
  // fine (the failure may have struck before the file ever existed).
  const std::string failed_wal = d.dir + "/" + WalFileName(d.sequence);
  util::Status status =
      util::RenameFile(failed_wal, failed_wal + ".quarantine");
  if (!status.ok() && status.code() != util::StatusCode::kNotFound) {
    d.degraded_error = status;
    return status;
  }
  // Fresh full generation g+1 capturing the *current* in-memory state —
  // including every batch served while degraded — then the manifest commit
  // names it as both the live generation and the full-snapshot base.
  const uint64_t next = d.sequence + 1;
  const std::string ckpt_path = d.dir + "/" + CheckpointFileName(next);
  const std::string wal_path = d.dir + "/" + WalFileName(next);
  util::Env* env = util::CurrentEnv();
  status = util::RetryIo(d.options.retry, env, &d.checkpoint_retries, [&] {
    return WriteCheckpointFile(ckpt_path, next);
  });
  util::StatusOr<WalWriter> wal{status.ok()
                                    ? util::Status::Internal("unattempted")
                                    : status};
  if (status.ok()) {
    status = util::RetryIo(d.options.retry, env, &d.checkpoint_retries, [&] {
      wal = WalWriter::Create(wal_path, next, d.config);
      return wal.status();
    });
  }
  if (wal.ok()) {
    status = util::RetryIo(d.options.retry, env, &d.checkpoint_retries, [&] {
      return WriteManifest(d.dir, Manifest{next, next, d.config});
    });
  }
  if (status.ok()) {
    d.wal = std::make_unique<AsyncWalWriter>();
    status = d.wal->Attach(std::move(*wal), AsyncWalOptionsFrom(d.options));
    if (!status.ok()) d.wal.reset();
  }
  if (!status.ok()) {
    // Still degraded, now holding the reattach failure; the caller can try
    // again once the disk truly heals.
    (void)util::RemoveFile(ckpt_path);
    (void)util::RemoveFile(wal_path);
    d.degraded_error = status;
    return status;
  }
  d.sequence = next;
  d.base_sequence = next;
  d.delta_chain_length = 0;
  d.events_since_checkpoint = 0;
  d.state = DurabilityState::kDurable;
  d.degraded_error = util::Status::Ok();
  ++d.reattach_count;
  // The published snapshot is full; the next delta window starts clean.
  if (d.options.delta_chain_limit > 0) {
    for (ObjectShard& shard : shards_) {
      shard.EnableDirtyTracking();
      shard.ClearDirty();
    }
  }
  if (d.options.verify_reattach) {
    // Verifiable resync: prove the healed directory actually recovers
    // before reporting success. A failure here means the disk is still
    // lying (reads don't match writes) — degrade again.
    RecoveryReport report;
    util::Status verify = VerifyDurableDir(d.dir, &report);
    if (!verify.ok()) return EnterDegraded(verify);
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
    load.durability = durability_->state;
    if (durability_->wal != nullptr &&
        durability_->state == DurabilityState::kDurable) {
      load.wal_backlog_bytes = durability_->wal->BacklogBytes();
    }
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
    const Durability& d = *durability_;
    stats.durability = d.state;
    stats.durability_error = d.degraded_error;
    stats.checkpoint_retries = d.checkpoint_retries;
    stats.degraded_batches = d.degraded_batches;
    stats.reattach_count = d.reattach_count;
    stats.wal_write_retries = d.wal_retries_detached;
    if (d.wal != nullptr) {
      stats.commit = d.wal->Stats();
      stats.wal_write_retries += stats.commit.write_retries;
    }
  }
  return stats;
}

namespace {

// Generic framing + CRC walk shared by the scrub's WAL and checkpoint
// passes (semantic validation is the recovery dry run's job).
void ScrubRecordFile(const std::string& path, bool torn_tail_legal,
                     ScrubFileReport* file) {
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) {
    file->verdict = ScrubVerdict::kCorrupt;
    file->detail = bytes.status().ToString();
    return;
  }
  file->bytes = bytes->size();
  util::RecordCursor cursor(*bytes);
  util::RecordView record;
  bool first = true;
  while (cursor.Next(&record)) {
    if (first && file->name.rfind("wal-", 0) == 0) {
      // The WAL's first record must be its header; a checkpoint's
      // structure is enforced by the recovery dry run.
      if (record.type != static_cast<uint8_t>(WalRecordType::kWalHeader) ||
          !DecodeWalHeader(record.payload).ok()) {
        file->verdict = ScrubVerdict::kCorrupt;
        file->detail = "first record is not a valid WAL header";
        return;
      }
    }
    first = false;
    ++file->records;
  }
  if (!cursor.status().ok()) {
    file->verdict = ScrubVerdict::kCorrupt;
    file->detail = cursor.status().ToString();
  } else if (cursor.tail_bytes() > 0) {
    if (torn_tail_legal) {
      file->verdict = ScrubVerdict::kTornTail;
      file->detail = std::to_string(cursor.tail_bytes()) +
                     " torn tail byte(s) past the valid prefix";
    } else {
      file->verdict = ScrubVerdict::kCorrupt;
      file->detail = "truncated mid-record (checkpoints publish atomically)";
    }
  }
}

}  // namespace

util::Status ObjectService::Scrub(const std::string& dir,
                                  ScrubReport* report) {
  *report = ScrubReport();
  auto names = util::ListDir(dir);
  if (!names.ok()) return names.status();
  std::sort(names->begin(), names->end());
  for (const std::string& name : *names) {
    ScrubFileReport file;
    file.name = name;
    const std::string path = dir + "/" + name;
    if (auto size = util::FileSize(path); size.ok()) file.bytes = *size;
    if (name == kManifestFileName) {
      auto manifest = ReadManifest(dir);
      if (manifest.ok()) {
        file.records = 1;
        file.detail = "generation " + std::to_string(manifest->sequence) +
                      ", base " + std::to_string(manifest->base_sequence);
      } else {
        file.verdict = ScrubVerdict::kCorrupt;
        file.detail = manifest.status().ToString();
      }
    } else if (name.ends_with(".quarantine")) {
      file.verdict = ScrubVerdict::kQuarantined;
      file.detail = "failed generation set aside by reattach (not replayed)";
    } else if (name.ends_with(".tmp")) {
      file.verdict = ScrubVerdict::kStray;
      file.detail = "abandoned temp file (an interrupted atomic publish)";
    } else if (name.rfind("checkpoint-", 0) == 0) {
      ScrubRecordFile(path, /*torn_tail_legal=*/false, &file);
    } else if (name.rfind("wal-", 0) == 0 && name.ends_with(".log")) {
      ScrubRecordFile(path, /*torn_tail_legal=*/true, &file);
    } else {
      file.verdict = ScrubVerdict::kStray;
      file.detail = "not a durability-layer file";
    }
    report->files.push_back(std::move(file));
  }
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

util::Status ObjectService::RestoreFromCheckpointStream(
    CheckpointReader* reader, RecoveryReport* report) {
  OBJALLOC_CHECK_EQ(static_cast<size_t>(reader->config().num_shards),
                    shards_.size());
  if (reader->is_delta()) {
    return util::Status::Internal(
        "checkpoint: delta snapshot where a full snapshot was expected");
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
    OBJALLOC_RETURN_IF_ERROR(
        shards_[piece.shard].RestoreSnapshotChunk(piece.bytes, piece.last));
  }
  if (!saw_state) {
    return util::Status::Internal("checkpoint: missing service state record");
  }
  // Rebuild the id → route mirror, verifying the partition while at it: an
  // id must live in exactly the shard the hash assigns it, or handles and
  // future AddObject calls would disagree with the restored layout.
  route_directory_.Reserve(object_count());
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (uint32_t slot = 0; slot < shards_[s].slot_span(); ++slot) {
      if (slot > route_slot_mask_ ||
          PackRoute(s, slot) >= 0xFFFFFFFEu) [[unlikely]] {
        return util::Status::Internal(
            "checkpoint: shard " + std::to_string(s) +
            " exceeds the routable slot space");
      }
      const ObjectId id = shards_[s].IdAt(slot);
      if (ShardOf(id) != s) {
        return util::Status::Internal("checkpoint: object " +
                                      std::to_string(id) +
                                      " stored in the wrong shard");
      }
      if (route_directory_.Contains(id)) {
        return util::Status::Internal("checkpoint: object " +
                                      std::to_string(id) +
                                      " appears in two shards");
      }
      route_directory_.Insert(id, PackRoute(s, slot));
    }
  }
  report->objects_restored = object_count();
  return RestoreServiceState(state);
}

util::Status ObjectService::ApplyDeltaCheckpointStream(
    CheckpointReader* reader, RecoveryReport* report) {
  OBJALLOC_CHECK_EQ(static_cast<size_t>(reader->config().num_shards),
                    shards_.size());
  if (!reader->is_delta()) {
    return util::Status::Internal(
        "checkpoint: full snapshot where a delta was expected");
  }
  // Slots never move and ids never change once assigned, so applying a
  // delta only ever *extends* each shard's slot span; the route mirror
  // built by the base restore stays valid and just needs the new slots
  // folded in afterwards.
  std::vector<uint32_t> prior_span(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    prior_span[s] = shards_[s].slot_span();
  }
  ServiceStateImage state;
  bool saw_state = false;
  std::vector<uint8_t> begun(shards_.size(), 0);
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
      return util::Status::Internal("delta checkpoint: shard index " +
                                    std::to_string(piece.shard) +
                                    " out of range");
    }
    if (!begun[piece.shard]) {
      shards_[piece.shard].BeginDeltaRestore();
      begun[piece.shard] = 1;
    }
    OBJALLOC_RETURN_IF_ERROR(
        shards_[piece.shard].RestoreDeltaChunk(piece.bytes, piece.last));
  }
  if (!saw_state) {
    return util::Status::Internal(
        "delta checkpoint: missing service state record");
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (uint32_t slot = prior_span[s]; slot < shards_[s].slot_span();
         ++slot) {
      if (slot > route_slot_mask_ ||
          PackRoute(s, slot) >= 0xFFFFFFFEu) [[unlikely]] {
        return util::Status::Internal(
            "delta checkpoint: shard " + std::to_string(s) +
            " exceeds the routable slot space");
      }
      const ObjectId id = shards_[s].IdAt(slot);
      if (ShardOf(id) != s) {
        return util::Status::Internal("delta checkpoint: object " +
                                      std::to_string(id) +
                                      " stored in the wrong shard");
      }
      if (route_directory_.Contains(id)) {
        return util::Status::Internal("delta checkpoint: object " +
                                      std::to_string(id) +
                                      " appears twice");
      }
      route_directory_.Insert(id, PackRoute(s, slot));
    }
  }
  report->objects_restored = object_count();
  // The delta's service-state image wins outright: fault state, crash
  // journal, and injector cursor are small and snapshotted whole in every
  // generation, full or delta.
  return RestoreServiceState(state);
}

util::Status ObjectService::ReplayWalBuffer(std::string_view buffer,
                                            uint64_t sequence,
                                            const DurableConfig& config,
                                            bool is_last,
                                            size_t replay_batch_events,
                                            RecoveryReport* report,
                                            size_t* valid_prefix) {
  const std::string name = WalFileName(sequence);
  util::RecordCursor cursor(buffer);
  util::RecordView record;
  bool saw_header = false;
  std::vector<workload::MultiObjectEvent> batch;
  // Logged batches replay through the pipelined engine, double-buffered:
  // batch n+1 is decoded and admitted while batch n is still on the shard
  // workers, so recovering a large log uses every executor thread. Two
  // result slots alternate; a slot is waited out before reuse. To amortize
  // per-batch admission over the original run's (often small) batch sizes,
  // consecutive logged batches are coalesced into super-batches of up to
  // `replay_batch_events` events before submission — legal because batch
  // boundaries are invisible to the engine outside fault mode (per-object
  // order is all that matters, and concatenation preserves it). Coalescing
  // stops dead while the fault injector is armed: there, a batch is the
  // admission/rejection unit. Non-batch records (registrations, fault
  // controls) flush the coalesce buffer and fence the pipeline internally,
  // which keeps replay order exactly the admission order of the original
  // run. The serve outcome is re-derived state — results are write-only.
  BatchResult results[2];
  BatchTicket tickets[2];
  int cur = 0;
  std::vector<workload::MultiObjectEvent> pending;
  auto wait_slot = [&](BatchTicket* ticket) -> util::Status {
    util::Status status = WaitBatch(ticket);
    // UNAVAILABLE is a *replayed rejection* — the original run logged the
    // batch because it consumed fault-time windows; the replay consumes
    // the same windows and rejects identically.
    if (!status.ok() && status.code() != util::StatusCode::kUnavailable) {
      return util::Status::Internal(
          name + ": logged batch failed on replay: " + status.ToString());
    }
    return util::Status::Ok();
  };
  auto submit = [&](std::span<const workload::MultiObjectEvent> events)
      -> util::Status {
    OBJALLOC_RETURN_IF_ERROR(wait_slot(&tickets[cur]));
    util::Status status = SubmitBatch(events, &results[cur], &tickets[cur]);
    if (!status.ok() && status.code() != util::StatusCode::kUnavailable) {
      return util::Status::Internal(
          name + ": logged batch failed on replay: " + status.ToString());
    }
    cur ^= 1;
    return util::Status::Ok();
  };
  auto flush_pending = [&]() -> util::Status {
    if (pending.empty()) return util::Status::Ok();
    util::Status status = submit(pending);
    pending.clear();
    return status;
  };
  util::Status replay_status = [&]() -> util::Status {
  while (cursor.Next(&record)) {
    const WalRecordType type = static_cast<WalRecordType>(record.type);
    if (!saw_header) {
      if (type != WalRecordType::kWalHeader) {
        return util::Status::Internal(name +
                                      ": first record is not a WAL header");
      }
      auto header = DecodeWalHeader(record.payload);
      if (!header.ok()) return header.status();
      if (header->sequence != sequence) {
        return util::Status::Internal(
            name + ": header names generation " +
            std::to_string(header->sequence));
      }
      OBJALLOC_RETURN_IF_ERROR(config.CheckMatches(header->config));
      saw_header = true;
      report->records_replayed += 1;
      continue;
    }
    // Any non-batch record is an ordering point against the events logged
    // before it: submit the coalesce buffer first so e.g. a replayed
    // EnableFaults applies after exactly the events it followed on the
    // original run.
    if (type != WalRecordType::kBatch) {
      OBJALLOC_RETURN_IF_ERROR(flush_pending());
    }
    switch (type) {
      case WalRecordType::kWalHeader:
        return util::Status::Internal(name + ": duplicate header record");
      case WalRecordType::kAddObject: {
        auto decoded = DecodeAddObject(record.payload);
        if (!decoded.ok()) return decoded.status();
        util::Status status = AddObject(decoded->id, decoded->config);
        if (!status.ok()) {
          return util::Status::Internal(
              name + ": logged registration failed on replay: " +
              status.ToString());
        }
        break;
      }
      case WalRecordType::kBatch: {
        OBJALLOC_RETURN_IF_ERROR(DecodeBatch(record.payload, &batch));
        report->batches_replayed += 1;
        report->events_replayed += batch.size();
        if (injector_ != nullptr || replay_batch_events == 0) {
          // Fault mode makes batch boundaries observable (a batch is the
          // rejection unit), so replay each logged batch exactly as
          // admitted. SubmitBatch copies the events; `batch` and `pending`
          // are free to take the next record immediately.
          OBJALLOC_RETURN_IF_ERROR(flush_pending());
          OBJALLOC_RETURN_IF_ERROR(submit(batch));
        } else {
          pending.insert(pending.end(), batch.begin(), batch.end());
          if (pending.size() >= replay_batch_events) {
            OBJALLOC_RETURN_IF_ERROR(flush_pending());
          }
        }
        break;
      }
      case WalRecordType::kEnableFaults: {
        auto decoded = DecodeEnableFaults(record.payload);
        if (!decoded.ok()) return decoded.status();
        util::Status status =
            EnableFaults(decoded->options, std::move(decoded->schedule));
        if (!status.ok()) {
          return util::Status::Internal(
              name + ": logged EnableFaults failed on replay: " +
              status.ToString());
        }
        break;
      }
      case WalRecordType::kDisableFaults:
        DisableFaults();
        break;
      case WalRecordType::kCrash:
      case WalRecordType::kRecover: {
        auto processor = DecodeProcessor(record.payload);
        if (!processor.ok()) return processor.status();
        util::Status status = type == WalRecordType::kCrash
                                  ? Crash(*processor)
                                  : Recover(*processor);
        if (!status.ok()) {
          return util::Status::Internal(
              name + ": logged liveness control failed on replay: " +
              status.ToString());
        }
        break;
      }
      case WalRecordType::kRepairDegraded:
        RepairDegraded();
        break;
      default:
        return util::Status::Internal(name + ": unknown record type " +
                                      std::to_string(record.type));
    }
    report->records_replayed += 1;
  }
  // A CRC failure inside the prefix is corruption, never a torn tail.
  OBJALLOC_RETURN_IF_ERROR(cursor.status());
  if (!saw_header) {
    // Generations get a synced header before the manifest ever names them,
    // so a header-less file in a committed chain is corruption.
    return util::Status::Internal(name + ": no complete header record");
  }
  if (cursor.tail_bytes() > 0) {
    if (!is_last) {
      return util::Status::Internal(
          name + ": torn tail in a non-final generation (" +
          std::to_string(cursor.tail_bytes()) + " bytes) — " +
          "this WAL was synced at checkpoint time and must be complete");
    }
    report->torn_tail = true;
    report->torn_bytes_truncated += cursor.tail_bytes();
  }
  OBJALLOC_RETURN_IF_ERROR(flush_pending());
  *valid_prefix = cursor.valid_prefix();
  return util::Status::Ok();
  }();
  // The in-flight tail still references the local result slots above —
  // fence the pipeline before they go out of scope, whatever the loop
  // decided, and surface a serve-side failure the loop didn't see.
  util::Status tail_a = wait_slot(&tickets[0]);
  util::Status tail_b = wait_slot(&tickets[1]);
  OBJALLOC_RETURN_IF_ERROR(replay_status);
  OBJALLOC_RETURN_IF_ERROR(tail_a);
  return tail_b;
}

util::StatusOr<ObjectService> ObjectService::RecoverInternal(
    const std::string& dir, const DurabilityOptions& options,
    RecoveryReport* report, bool read_only) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport();
  OBJALLOC_RETURN_IF_ERROR(options.Validate());

  // The manifest names the committed generation; when it is unreadable,
  // fall back to scanning the directory for snapshot files (every candidate
  // is still fully CRC-verified before use).
  uint64_t top = 0;
  std::vector<uint64_t> candidates;
  DurableConfig manifest_config;
  bool have_manifest = false;
  auto manifest = ReadManifest(dir);
  if (manifest.ok()) {
    have_manifest = true;
    manifest_config = manifest->config;
    top = manifest->sequence;
    rep.manifest_sequence = top;
    candidates.push_back(top);
    if (top > 1) candidates.push_back(top - 1);
  } else {
    if (manifest.status().code() == util::StatusCode::kNotFound) {
      rep.manifest_missing = true;
    } else {
      rep.manifest_corrupt = true;
    }
    rep.warnings.push_back("manifest unreadable (" +
                           manifest.status().ToString() +
                           "); scanning the directory");
    // Deltas count as candidates too: each one is an openable snapshot via
    // its chain, and skipping them down to the newest full would silently
    // drop the WAL generations in between.
    auto fulls = ListCheckpointSequences(dir);
    if (!fulls.ok()) return fulls.status();
    auto deltas = ListDeltaCheckpointSequences(dir);
    if (!deltas.ok()) return deltas.status();
    std::vector<uint64_t> merged = std::move(*fulls);
    merged.insert(merged.end(), deltas->begin(), deltas->end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    if (merged.empty()) {
      return util::Status::NotFound("no durable state in " + dir);
    }
    for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
      candidates.push_back(*it);
    }
    top = candidates.front();
  }

  // Newest full snapshot at or below `g` (0 when none): the bottom of the
  // delta chain that reconstructs generation `g`'s snapshot.
  auto resolve_base = [&dir](uint64_t g) -> uint64_t {
    while (g > 0 && !util::FileExists(dir + "/" + CheckpointFileName(g))) {
      --g;
    }
    return g;
  };

  util::Status last_error =
      util::Status::Internal("no usable checkpoint generation in " + dir);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const uint64_t gen = candidates[c];
    RecoveryReport attempt;
    attempt.manifest_sequence = rep.manifest_sequence;
    attempt.manifest_missing = rep.manifest_missing;
    attempt.manifest_corrupt = rep.manifest_corrupt;
    attempt.warnings = rep.warnings;
    auto attempt_service = [&]() -> util::StatusOr<ObjectService> {
      // Reconstruct generation `gen`'s snapshot: the newest full snapshot
      // at or below it, then the delta chain base+1..gen in order.
      const uint64_t base = resolve_base(gen);
      if (base == 0) {
        return util::Status::Internal(
            "no full snapshot at or below generation " + std::to_string(gen));
      }
      auto reader = CheckpointReader::Open(dir + "/" + CheckpointFileName(base));
      if (!reader.ok()) return reader.status();
      if (reader->sequence() != base) {
        return util::Status::Internal(
            "checkpoint file names generation " +
            std::to_string(reader->sequence()) + ", expected " +
            std::to_string(base));
      }
      if (have_manifest) {
        OBJALLOC_RETURN_IF_ERROR(
            manifest_config.CheckMatches(reader->config()));
      }
      const DurableConfig config = reader->config();
      ServiceOptions service_options;
      service_options.num_shards = config.num_shards;
      auto service =
          Create(config.num_processors, config.cost_model, service_options);
      if (!service.ok()) return service.status();
      OBJALLOC_RETURN_IF_ERROR(
          service->RestoreFromCheckpointStream(&*reader, &attempt));
      for (uint64_t g = base + 1; g <= gen; ++g) {
        auto delta =
            CheckpointReader::Open(dir + "/" + DeltaCheckpointFileName(g));
        if (!delta.ok()) return delta.status();
        if (!delta->is_delta() || delta->sequence() != g ||
            delta->parent() != g - 1) {
          return util::Status::Internal(
              DeltaCheckpointFileName(g) +
              " does not chain onto generation " + std::to_string(g - 1));
        }
        OBJALLOC_RETURN_IF_ERROR(config.CheckMatches(delta->config()));
        OBJALLOC_RETURN_IF_ERROR(
            service->ApplyDeltaCheckpointStream(&*delta, &attempt));
        attempt.delta_checkpoints_applied += 1;
      }
      if (!read_only && options.delta_chain_limit > 0) {
        // Arm page tracking *before* the WAL replay below: the next delta
        // must capture every page the replayed tail re-dirties on top of
        // this snapshot.
        for (auto& shard : service->shards_) {
          shard.EnableDirtyTracking();
          shard.ClearDirty();
        }
      }
      // Replay the WAL chain gen..top; only the final generation may carry
      // a torn tail.
      size_t final_prefix = 0;
      bool final_wal_exists = false;
      for (uint64_t w = gen; w <= top; ++w) {
        auto wal_buffer = util::ReadFileToString(dir + "/" + WalFileName(w));
        if (!wal_buffer.ok()) {
          if (w == top &&
              wal_buffer.status().code() == util::StatusCode::kNotFound) {
            // The snapshot alone is a consistent state; recover to it and
            // warn (a committed generation always has its WAL, so this
            // means outside interference, not a crash window).
            attempt.warnings.push_back(
                WalFileName(w) + " missing; recovered from the snapshot alone");
            break;
          }
          return wal_buffer.status();
        }
        size_t prefix = 0;
        OBJALLOC_RETURN_IF_ERROR(service->ReplayWalBuffer(
            *wal_buffer, w, config, /*is_last=*/w == top,
            options.replay_batch_events, &attempt, &prefix));
        attempt.wal_files_replayed += 1;
        if (w == top) {
          final_prefix = prefix;
          final_wal_exists = true;
        }
      }
      if (!read_only) {
        // Arm durability on generation `top`, physically truncating the
        // torn tail (if any) so appending resumes at the last good record.
        auto d = std::make_unique<Durability>();
        d->dir = dir;
        d->options = options;
        d->config = config;
        d->sequence = top;
        // Force the next checkpoint to be full, whatever the chain policy:
        // if this attempt fell back past a broken snapshot, chaining a
        // delta onto the damaged generation would leave it load-bearing.
        d->base_sequence = base;
        d->delta_chain_length = options.delta_chain_limit;
        auto wal = final_wal_exists
                       ? WalWriter::Reopen(dir + "/" + WalFileName(top),
                                           final_prefix)
                       : WalWriter::Create(dir + "/" + WalFileName(top), top,
                                           config);
        if (!wal.ok()) return wal.status();
        d->wal = std::make_unique<AsyncWalWriter>();
        OBJALLOC_RETURN_IF_ERROR(
            d->wal->Attach(std::move(*wal), AsyncWalOptionsFrom(options)));
        d->events_since_checkpoint = attempt.events_replayed;
        service->durability_ = std::move(d);
        if (!have_manifest) {
          // Republish the commit point the next recovery will need.
          const uint64_t top_base = resolve_base(top);
          OBJALLOC_RETURN_IF_ERROR(WriteManifest(
              dir, Manifest{top, top_base == 0 ? top : top_base, config}));
        }
      }
      return service;
    }();
    if (attempt_service.ok()) {
      attempt.checkpoint_sequence = gen;
      attempt.fell_back = c > 0;
      rep = std::move(attempt);
      return attempt_service;
    }
    last_error = attempt_service.status();
    rep.warnings.push_back("generation " + std::to_string(gen) +
                           " unusable: " + last_error.ToString());
  }
  return last_error;
}

util::StatusOr<ObjectService> ObjectService::Recover(
    const std::string& dir, const DurabilityOptions& options,
    RecoveryReport* report) {
  return RecoverInternal(dir, options, report, /*read_only=*/false);
}

util::Status ObjectService::VerifyDurableDir(const std::string& dir,
                                             RecoveryReport* report) {
  auto service =
      RecoverInternal(dir, DurabilityOptions{}, report, /*read_only=*/true);
  return service.ok() ? util::Status::Ok() : service.status();
}

}  // namespace objalloc::core
