#include "objalloc/core/object_shard.h"

#include <algorithm>
#include <limits>

#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/model/legality.h"
#include "objalloc/util/logging.h"
#include "objalloc/util/record_io.h"

namespace objalloc::core {

namespace {
// Wire size of one snapshot slot record:
// id(8) kind(1) t(4) scheme(8) f(8) p(4) next_f(4) crash_log_pos(8)
// requests(8) breakdown(3×8).
constexpr size_t kSnapshotSlotBytes = 8 + 1 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 3 * 8;
// Two sentinels ride on uint32 slots (kInvalidSlot and the directory
// tombstone), so a shard's slot span stays below them.
constexpr uint64_t kSlotLimit = 0xFFFFFFFEu;
}  // namespace

ObjectShard::ObjectShard(int num_processors,
                         const model::CostModel& cost_model)
    : num_processors_(num_processors), cost_model_(cost_model) {
  OBJALLOC_CHECK_GT(num_processors, 0);
  OBJALLOC_CHECK_LE(num_processors, util::kMaxProcessors);
  OBJALLOC_CHECK(cost_model.Validate().ok()) << cost_model.ToString();
  // Fold the per-(kind, t) cost scalars once. Every expression keeps the
  // association order of the former per-slot precomputation — (ctrl*cc +
  // cd-term) + cio-term, matching CostBreakdown::Cost — so moving the
  // constants from the slot to this table cannot change a single bit.
  cost_table_.resize(3 * (util::kMaxProcessors + 1));
  const double cc = cost_model_.control;
  const double cd = cost_model_.data;
  const double cio = cost_model_.io;
  for (int t = 0; t <= num_processors; ++t) {
    const double q = static_cast<double>(t);
    CostEntry& sa =
        cost_table_[static_cast<size_t>(AlgorithmKind::kStatic) *
                        (util::kMaxProcessors + 1) +
                    t];
    // Q is pinned; every per-pattern cost is a constant of |Q|.
    sa.read_local = cio;                       // {0,0,1}: (0 + 0) + 1*cio
    sa.read_remote = (cc + cd) + cio;          // {1,1,1}
    sa.write_a = (q - 1) * cd + q * cio;       // {0,|Q|-1,|Q|}
    sa.write_b = q * cd + q * cio;             // {0,|Q|,|Q|}
    CostEntry& da =
        cost_table_[static_cast<size_t>(AlgorithmKind::kDynamic) *
                        (util::kMaxProcessors + 1) +
                    t];
    // The scheme after every write has size t, so the data and io terms of
    // a write are constants; only the control term (invalidations of
    // saving-readers) varies per event.
    da.read_local = cio;
    da.read_remote = (cc + cd) + 2 * cio;      // {1,1,2} saving
    da.write_a = (q - 1) * cd;                 // data term
    da.write_b = q * cio;                      // io term
  }
}

util::Status ObjectShard::ValidateConfig(const ObjectConfig& config,
                                         int num_processors) {
  if (!IsInlinableKind(config.algorithm)) {
    return util::Status::InvalidArgument(
        "the engine serves only static and dynamic allocation");
  }
  if (config.initial_scheme.Empty() ||
      !config.initial_scheme.IsSubsetOf(
          ProcessorSet::FirstN(num_processors))) {
    return util::Status::InvalidArgument("bad initial scheme");
  }
  if (config.algorithm == AlgorithmKind::kDynamic &&
      config.initial_scheme.Size() < 2) {
    return util::Status::InvalidArgument(
        "dynamic allocation needs at least two initial copies");
  }
  return util::Status::Ok();
}

void ObjectShard::Reserve(size_t expected_objects) {
  directory_.Reserve(expected_objects, SlotIds());
  GrowPages((expected_objects + kPageSlots - 1) >> kPageShift);
}

void ObjectShard::GrowPages(size_t pages_needed) {
  if (pages_needed <= pages_.size()) return;
  const size_t grow = pages_needed - pages_.size();
  const size_t run_pages = grow >= kMinRunPages ? grow : 1;
  if (grow > 1) pages_.reserve(pages_needed);
  while (pages_.size() < pages_needed) {
    runs_.emplace_back(run_pages * kPageSlots, SlotRecord{});
    SlotRecord* run = runs_.back().data();
    for (size_t page = 0; page < run_pages; ++page) {
      pages_.push_back(run + page * kPageSlots);
    }
  }
}

size_t ObjectShard::MemoryUsageBytes() const {
  size_t bytes = runs_.capacity() * sizeof(runs_[0]) +
                 pages_.capacity() * sizeof(pages_[0]) +
                 pages_.size() * static_cast<size_t>(kPageSlots) *
                     sizeof(SlotRecord);
  bytes += free_slots_.capacity() * sizeof(uint32_t);
  bytes += cost_table_.capacity() * sizeof(CostEntry);
  bytes += directory_.MemoryUsageBytes();
  bytes += degraded_.MemoryUsageBytes();
  bytes += degraded_list_.capacity() * sizeof(uint32_t);
  bytes += dirty_words_.capacity() * sizeof(uint64_t);
  return bytes;
}

uint32_t ObjectShard::AllocateSlot() {
  if (!free_slots_.empty()) [[unlikely]] {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    Slot(slot) = SlotRecord{};
    return slot;
  }
  OBJALLOC_CHECK_LT(slot_count_, kSlotLimit) << "shard slot space exhausted";
  if ((slot_count_ >> kPageShift) == pages_.size()) {
    GrowPages(pages_.size() + 1);
  }
  return slot_count_++;
}

util::StatusOr<uint32_t> ObjectShard::AddObject(ObjectId id,
                                                const ObjectConfig& config) {
  if (directory_.Contains(id, SlotIds())) {
    return util::Status::InvalidArgument("duplicate object id " +
                                         std::to_string(id));
  }
  util::Status valid = ValidateConfig(config, num_processors_);
  if (!valid.ok()) {
    return util::Status(valid.code(),
                        valid.message() + " for object " + std::to_string(id));
  }
  const uint32_t slot = AllocateSlot();
  SlotRecord& record = Slot(slot);
  record.id = id;
  record.scheme_mask = config.initial_scheme.mask();
  int32_t p = -1;
  if (config.algorithm == AlgorithmKind::kDynamic) {
    ProcessorSet f;
    DynamicAllocation::SplitScheme(config.initial_scheme, &f, &p);
    record.f_mask = f.mask();
  }
  record.meta = SlotRecord::PackMeta(config.algorithm,
                                     config.initial_scheme.Size(), p,
                                     /*next_f=*/0, /*crash_log_pos=*/0);
  directory_.Insert(id, slot, SlotIds());  // record.id is set
  MarkDirty(slot);
  return slot;
}

double ObjectShard::ServeSlot(uint32_t slot, const Request& request,
                              model::CostBreakdown* delta) {
  SlotRecord& record = Slot(slot);
  const ProcessorId i = request.processor;
  model::CostBreakdown breakdown;
  double cost;
  const AlgorithmKind kind = record.kind();
  const int32_t t = record.t();
  const CostEntry& costs = CostsFor(kind, t);
  if (kind == AlgorithmKind::kStatic) {
    // StaticAllocation::Decide specialized per branch: the scheme never
    // changes, so the breakdown is a pure function of membership.
    const ProcessorSet scheme(record.scheme_mask);
    if (request.is_read()) {
      if (scheme.Contains(i)) {
        breakdown.io_ops = 1;
        cost = costs.read_local;
      } else {
        breakdown.control_messages = 1;
        breakdown.data_messages = 1;
        breakdown.io_ops = 1;
        cost = costs.read_remote;
      }
    } else {
      // X == Q: no invalidations, |Q \ {i}| transfers, |Q| outputs.
      const bool member = scheme.Contains(i);
      breakdown.data_messages = t - (member ? 1 : 0);
      breakdown.io_ops = t;
      cost = member ? costs.write_a : costs.write_b;
    }
  } else {
    ProcessorSet scheme(record.scheme_mask);
    if (request.is_read()) {
      if (scheme.Contains(i)) {
        breakdown.io_ops = 1;
        cost = costs.read_local;
      } else {
        // Saving-read via the round-robin F member: one request, one
        // transfer, one input at the server plus the saving output at i.
        // Which F member serves is invisible to cost and scheme, but the
        // round-robin index is kept in lockstep with the reference class.
        const uint32_t f_size = static_cast<uint32_t>(t - 1);
        record.set_next_f((record.next_f() + 1) % f_size);
        scheme.Insert(i);
        record.scheme_mask = scheme.mask();
        breakdown.control_messages = 1;
        breakdown.data_messages = 1;
        breakdown.io_ops = 2;
        cost = costs.read_remote;
      }
    } else {
      const ProcessorSet x = DynamicAllocation::WriteSet(
          ProcessorSet(record.f_mask), record.p(), i);
      // Invalidations reach the stale copies other than the writer's own.
      const int64_t control = scheme.Minus(x).WithErased(i).Size();
      breakdown.control_messages = control;
      breakdown.data_messages = t - 1;
      breakdown.io_ops = t;
      cost = (static_cast<double>(control) * cost_model_.control +
              costs.write_a) +
             costs.write_b;
      record.scheme_mask = x.mask();
    }
  }
  record.requests += 1;
  record.breakdown += breakdown;
  total_requests_ += 1;
  total_breakdown_ += breakdown;
  MarkDirty(slot);
  if (delta != nullptr) *delta += breakdown;
  return cost;
}

void ObjectShard::ChargeMessages(bool control, int64_t count,
                                 size_t event_index,
                                 const FaultInjector& injector,
                                 uint64_t* ordinal,
                                 model::CostBreakdown* breakdown,
                                 FaultStats* stats) const {
  int64_t& field =
      control ? breakdown->control_messages : breakdown->data_messages;
  field += count;
  if (!injector.has_message_loss()) return;
  for (int64_t m = 0; m < count; ++m) {
    const uint32_t ord = static_cast<uint32_t>((*ordinal)++);
    const int lost = control ? injector.ControlRetries(event_index, ord)
                             : injector.DataRetries(event_index, ord);
    if (lost == 0) continue;
    field += lost;  // one retransmission per lost attempt
    (control ? stats->lost_control : stats->lost_data) += lost;
    stats->backoff_units += (int64_t{1} << lost) - 1;  // sum of 2^attempt
  }
}

void ObjectShard::MarkDegraded(uint32_t slot) {
  if (degraded_.Contains(slot, SlotKey)) return;
  degraded_.Insert(slot, slot, SlotKey);
  degraded_list_.push_back(slot);
}

void ObjectShard::SyncSlotWithCrashes(SlotRecord* record,
                                      const CrashLog& crash_log,
                                      size_t up_to_index) {
  // Log indices are nondecreasing, so stopping at the first future record
  // consumes exactly the crashes in (previous event, up_to_index]. Erase is
  // idempotent; a processor that crashed, recovered and rejoined is safe
  // because rejoining happens at a serve, which consumed the crash record
  // first.
  size_t pos = record->crash_log_pos();
  ProcessorSet scheme(record->scheme_mask);
  while (pos < crash_log.size() && crash_log[pos].index <= up_to_index) {
    scheme.Erase(crash_log[pos].processor);
    ++pos;
  }
  record->scheme_mask = scheme.mask();
  record->set_crash_log_pos(pos);
}

void ObjectShard::RepairScheme(SlotRecord* record, uint32_t slot,
                               ProcessorSet live, size_t event_index,
                               const FaultInjector& injector,
                               uint64_t* ordinal,
                               model::CostBreakdown* breakdown,
                               FaultStats* stats) {
  const int64_t backoff_before = stats->backoff_units;
  const int32_t t = record->t();
  ProcessorSet scheme(record->scheme_mask);
  // Deterministic re-replication: copy onto the lowest-id live processors
  // outside the scheme until t replicas exist. Each copy is charged as a
  // saving-read ({1 control, 1 data, 2 io} — the cost of creating a replica
  // at a reader), so repair traffic and request traffic share one currency.
  int added = 0;
  ProcessorSet candidates = live.Minus(scheme);
  while (static_cast<int32_t>(scheme.Size()) < t && !candidates.Empty()) {
    const ProcessorId target = candidates.First();
    candidates.Erase(target);
    scheme.Insert(target);
    ChargeMessages(/*control=*/true, 1, event_index, injector, ordinal,
                   breakdown, stats);
    ChargeMessages(/*control=*/false, 1, event_index, injector, ordinal,
                   breakdown, stats);
    breakdown->io_ops += 2;
    ++added;
  }
  OBJALLOC_CHECK_GE(static_cast<int32_t>(scheme.Size()), t)
      << "repair of object " << record->id
      << " could not reach t live replicas (caller must admit |live| >= t)";
  record->scheme_mask = scheme.mask();
  if (added > 0) {
    stats->repairs += 1;
    stats->replicas_added += added;
    // Virtual repair latency: two message hops per replica plus the backoff
    // spent retransmitting them.
    stats->repair_latency.push_back(static_cast<double>(
        2 * added + (stats->backoff_units - backoff_before)));
  }
  if (record->kind() == AlgorithmKind::kDynamic) {
    // Re-derive (F, p) from the t lowest members of the repaired scheme and
    // restart the round-robin read index — the same deterministic split a
    // fresh registration would produce.
    ProcessorSet base;
    int taken = 0;
    for (const ProcessorId member : scheme) {
      if (taken == t) break;
      base.Insert(member);
      ++taken;
    }
    ProcessorSet f;
    int32_t p = -1;
    DynamicAllocation::SplitScheme(base, &f, &p);
    record->f_mask = f.mask();
    record->set_p(p);
    record->set_next_f(0);
  }
  degraded_.Erase(slot, SlotKey);
}

double ObjectShard::ServeSlotFaulty(uint32_t slot, const Request& request,
                                    size_t event_index, ProcessorSet live,
                                    const CrashLog& crash_log,
                                    const FaultInjector& injector,
                                    model::CostBreakdown* delta,
                                    FaultStats* stats, bool check_invariant) {
  SlotRecord& record = Slot(slot);
  const ProcessorId i = request.processor;
  model::CostBreakdown breakdown;
  uint64_t ordinal = 0;
  // Lazy scrub: evict members crashed since the object's previous event.
  SyncSlotWithCrashes(&record, crash_log, event_index);
  const AlgorithmKind kind = record.kind();
  const int32_t t = record.t();
  // Entry repair: those crashes may have left the scheme below t or broken
  // DA's core set. Restore t live replicas before the decision rule runs so
  // it always sees a t-available scheme.
  if (static_cast<int32_t>(ProcessorSet(record.scheme_mask).Size()) < t ||
      (kind == AlgorithmKind::kDynamic &&
       !ProcessorSet(record.f_mask)
            .IsSubsetOf(ProcessorSet(record.scheme_mask)))) [[unlikely]] {
    RepairScheme(&record, slot, live, event_index, injector, &ordinal,
                 &breakdown, stats);
  }
  if (kind == AlgorithmKind::kStatic) {
    const ProcessorSet scheme(record.scheme_mask);
    if (request.is_read()) {
      if (scheme.Contains(i)) {
        breakdown.io_ops += 1;
      } else {
        ChargeMessages(/*control=*/true, 1, event_index, injector, &ordinal,
                       &breakdown, stats);
        ChargeMessages(/*control=*/false, 1, event_index, injector,
                       &ordinal, &breakdown, stats);
        breakdown.io_ops += 1;
      }
    } else {
      // X = the (live) scheme: the lazy scrub evicted crashed members and
      // entry repair restored |Q| = t, so the full-replication write rule
      // is unchanged — only its transmissions can be lost.
      const bool member = scheme.Contains(i);
      const int64_t copies = scheme.Size();
      ChargeMessages(/*control=*/false, copies - (member ? 1 : 0),
                     event_index, injector, &ordinal, &breakdown, stats);
      breakdown.io_ops += copies;
    }
  } else {
    if (request.is_read()) {
      ProcessorSet scheme(record.scheme_mask);
      if (scheme.Contains(i)) {
        breakdown.io_ops += 1;
      } else {
        // Saving-read, as in ServeSlot; the serving F member is live by
        // the scheme ⊆ live invariant.
        const uint32_t f_size = static_cast<uint32_t>(t - 1);
        record.set_next_f((record.next_f() + 1) % f_size);
        scheme.Insert(i);
        record.scheme_mask = scheme.mask();
        ChargeMessages(/*control=*/true, 1, event_index, injector, &ordinal,
                       &breakdown, stats);
        ChargeMessages(/*control=*/false, 1, event_index, injector,
                       &ordinal, &breakdown, stats);
        breakdown.io_ops += 2;
      }
    } else {
      // The rule's execution set intersected with the live world: the
      // floating processor p is not part of the scheme between writes, so
      // it can be dead without a preceding scrub — drop it here.
      const ProcessorSet scheme(record.scheme_mask);
      const ProcessorSet x =
          DynamicAllocation::WriteSet(ProcessorSet(record.f_mask),
                                      record.p(), i)
              .Intersect(live);
      const int64_t control = scheme.Minus(x).WithErased(i).Size();
      ChargeMessages(/*control=*/true, control, event_index, injector,
                     &ordinal, &breakdown, stats);
      ChargeMessages(/*control=*/false,
                     static_cast<int64_t>(x.WithErased(i).Size()),
                     event_index, injector, &ordinal, &breakdown, stats);
      breakdown.io_ops += x.Size();
      record.scheme_mask = x.mask();
      // Exit repair: the write itself may have shrunk the scheme below t
      // (dead floating processor). Re-replicate before the event ends so
      // the invariant holds at every event boundary.
      if (static_cast<int32_t>(x.Size()) < t) [[unlikely]] {
        RepairScheme(&record, slot, live, event_index, injector, &ordinal,
                     &breakdown, stats);
      }
    }
  }
  if (check_invariant) {
    const util::Status avail = model::CheckSchemeAvailable(
        ProcessorSet(record.scheme_mask), live, t);
    OBJALLOC_CHECK(avail.ok())
        << "object " << record.id << ": " << avail.ToString();
  }
  const double cost = breakdown.Cost(cost_model_);
  record.requests += 1;
  record.breakdown += breakdown;
  total_requests_ += 1;
  total_breakdown_ += breakdown;
  MarkDirty(slot);
  if (delta != nullptr) *delta += breakdown;
  return cost;
}

void ObjectShard::NoteCrash(ProcessorId p) {
  // Advisory registry only: membership is tested against the scheme as last
  // synchronized (possibly lagging the crash log), and the scheme is left
  // untouched — eviction belongs to the serve timeline. RepairAllDegraded
  // re-checks after applying pending records, so an over-mark heals to a
  // no-op repair.
  for (uint32_t slot = 0; slot < slot_count_; ++slot) {
    const SlotRecord& record = Slot(slot);
    if (record.id >= 0 && ProcessorSet(record.scheme_mask).Contains(p)) {
      MarkDegraded(slot);
    }
  }
}

void ObjectShard::FlushCrashLog(const CrashLog& crash_log) {
  for (uint32_t slot = 0; slot < slot_count_; ++slot) {
    SlotRecord& record = Slot(slot);
    if (record.id < 0) continue;
    SyncSlotWithCrashes(&record, crash_log,
                        std::numeric_limits<size_t>::max());
    record.set_crash_log_pos(0);
  }
  for (const uint32_t slot : degraded_list_) degraded_.Erase(slot, SlotKey);
  degraded_list_.clear();
  MarkAllDirty();  // every slot's crash-log cursor was rewritten
}

int64_t ObjectShard::RepairAllDegraded(ProcessorSet live, size_t event_index,
                                       const CrashLog& crash_log,
                                       const FaultInjector& injector,
                                       FaultStats* stats,
                                       bool check_invariant) {
  if (degraded_list_.empty()) return 0;
  // Lowest slots first; dedupe re-marks that accumulated after lazy repairs.
  std::sort(degraded_list_.begin(), degraded_list_.end());
  degraded_list_.erase(
      std::unique(degraded_list_.begin(), degraded_list_.end()),
      degraded_list_.end());
  std::vector<uint32_t> remaining;
  const int64_t before = stats->replicas_added;
  for (const uint32_t slot : degraded_list_) {
    if (!degraded_.Contains(slot, SlotKey)) continue;  // repaired lazily
    SlotRecord& record = Slot(slot);
    if (static_cast<int32_t>(live.Size()) < record.t()) {
      remaining.push_back(slot);  // cannot reach t now; stays degraded
      continue;
    }
    // Apply pending crash records first: the mark was taken against a
    // possibly-lagging scheme, and repairing before eviction could top up
    // to t while a dead member lingers.
    SyncSlotWithCrashes(&record, crash_log, event_index);
    model::CostBreakdown breakdown;
    // Ordinal space partitioned by slot: repairs of distinct objects at the
    // same fault-time index draw independent loss samples.
    uint64_t ordinal = static_cast<uint64_t>(slot) * 128;
    RepairScheme(&record, slot, live, event_index, injector, &ordinal,
                 &breakdown, stats);
    record.breakdown += breakdown;
    total_breakdown_ += breakdown;
    MarkDirty(slot);
    if (check_invariant) {
      const util::Status avail = model::CheckSchemeAvailable(
          ProcessorSet(record.scheme_mask), live, record.t());
      OBJALLOC_CHECK(avail.ok())
          << "object " << record.id << ": " << avail.ToString();
    }
  }
  degraded_list_ = std::move(remaining);
  return stats->replicas_added - before;
}

util::StatusOr<double> ObjectShard::Serve(ObjectId id,
                                          const Request& request) {
  const uint32_t slot = SlotOf(id);
  if (slot == kInvalidSlot) {
    return util::Status::NotFound("unknown object " + std::to_string(id));
  }
  if (request.processor < 0 || request.processor >= num_processors_) {
    return util::Status::OutOfRange("processor out of range");
  }
  return ServeSlot(slot, request, nullptr);
}

util::StatusOr<ObjectStats> ObjectShard::StatsFor(ObjectId id) const {
  const uint32_t slot = SlotOf(id);
  if (slot == kInvalidSlot) {
    return util::Status::NotFound("unknown object " + std::to_string(id));
  }
  return StatsAt(slot);
}

ObjectStats ObjectShard::StatsAt(uint32_t slot) const {
  const SlotRecord& record = Slot(slot);
  ObjectStats stats;
  stats.requests = record.requests;
  stats.breakdown = record.breakdown;
  stats.scheme = ProcessorSet(record.scheme_mask);
  return stats;
}

std::vector<ObjectId> ObjectShard::SortedObjectIds() const {
  std::vector<ObjectId> ids;
  ids.reserve(object_count());
  for (uint32_t slot = 0; slot < slot_count_; ++slot) {
    const ObjectId id = Slot(slot).id;
    if (id >= 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ObjectShard::AppendIdSchemes(std::vector<IdScheme>* out) const {
  for (uint32_t slot = 0; slot < slot_count_; ++slot) {
    const SlotRecord& record = Slot(slot);
    if (record.id >= 0) out->push_back({record.id, record.scheme_mask});
  }
}

void ObjectShard::AppendSnapshotHeader(std::string* out) const {
  util::AppendScalar(static_cast<uint64_t>(object_count()), out);
}

void ObjectShard::AppendSlotRecord(const SlotRecord& record,
                                   std::string* out) {
  using util::AppendScalar;
  AppendScalar(record.id, out);
  AppendScalar(static_cast<uint8_t>(record.kind()), out);
  AppendScalar(record.t(), out);
  AppendScalar(record.scheme_mask, out);
  AppendScalar(record.f_mask, out);
  AppendScalar(record.p(), out);
  AppendScalar(record.next_f(), out);
  AppendScalar(static_cast<uint64_t>(record.crash_log_pos()), out);
  AppendScalar(record.requests, out);
  AppendScalar(record.breakdown.control_messages, out);
  AppendScalar(record.breakdown.data_messages, out);
  AppendScalar(record.breakdown.io_ops, out);
}

util::Status ObjectShard::ReadSlotRecord(util::PayloadReader* reader,
                                         const char* what,
                                         SlotRecord* record) const {
  ObjectId id = -1;
  uint8_t kind_raw = 0;
  int32_t t = 0, p = -1;
  uint64_t scheme_mask = 0, f_mask = 0, crash_log_pos = 0;
  uint32_t next_f = 0;
  int64_t requests = 0;
  model::CostBreakdown breakdown;
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&id));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&kind_raw));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&t));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&scheme_mask));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&f_mask));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&p));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&next_f));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&crash_log_pos));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&requests));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&breakdown.control_messages));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&breakdown.data_messages));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&breakdown.io_ops));
  const auto invalid = [what](const std::string& message) {
    return util::Status::Internal(std::string(what) + ": " + message);
  };
  const AlgorithmKind kind = static_cast<AlgorithmKind>(kind_raw);
  if (kind != AlgorithmKind::kStatic && kind != AlgorithmKind::kDynamic) {
    return invalid("non-inlined algorithm kind " + std::to_string(kind_raw));
  }
  if (t < 1 || t > num_processors_) {
    return invalid("bad threshold " + std::to_string(t));
  }
  const ProcessorSet world = ProcessorSet::FirstN(num_processors_);
  if (!ProcessorSet(scheme_mask).IsSubsetOf(world) ||
      !ProcessorSet(f_mask).IsSubsetOf(world)) {
    return invalid("scheme names out-of-range processors");
  }
  if (p < -1 || p >= num_processors_) {
    return invalid("floating processor out of range");
  }
  // Bit-packing bounds: next_f indexes F (< t <= 64) and the crash-log
  // cursor rides the meta word's high half.
  if (next_f > 0x7F) {
    return invalid("round-robin index " + std::to_string(next_f) +
                   " out of range");
  }
  if (crash_log_pos > 0xFFFFFFFFull) {
    return invalid("crash-log cursor " + std::to_string(crash_log_pos) +
                   " out of range");
  }
  *record = SlotRecord{};
  record->id = id;
  record->scheme_mask = scheme_mask;
  record->f_mask = f_mask;
  record->meta = SlotRecord::PackMeta(kind, t, p, next_f,
                                      static_cast<size_t>(crash_log_pos));
  record->requests = requests;
  record->breakdown = breakdown;
  return util::Status::Ok();
}

void ObjectShard::AppendSnapshotSlots(uint32_t begin, uint32_t end,
                                      std::string* out) const {
  for (uint32_t slot = begin; slot < end; ++slot) {
    const SlotRecord& record = Slot(slot);
    if (record.id >= 0) AppendSlotRecord(record, out);  // skip free holes
  }
}

void ObjectShard::AppendSnapshotFooter(std::string* out) const {
  using util::AppendScalar;
  AppendScalar(total_requests_, out);
  AppendScalar(total_breakdown_.control_messages, out);
  AppendScalar(total_breakdown_.data_messages, out);
  AppendScalar(total_breakdown_.io_ops, out);
  // Degraded registry, filtered to the slots still actually registered
  // (the list may hold entries already healed lazily). Order is irrelevant:
  // RepairAllDegraded sorts before every sweep.
  uint32_t degraded = 0;
  for (const uint32_t slot : degraded_list_) {
    if (degraded_.Contains(slot, SlotKey)) ++degraded;
  }
  AppendScalar(degraded, out);
  for (const uint32_t slot : degraded_list_) {
    if (degraded_.Contains(slot, SlotKey)) AppendScalar(slot, out);
  }
}

util::Status ObjectShard::RestoreSnapshotFooter(util::PayloadReader* reader) {
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&total_requests_));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&total_breakdown_.control_messages));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&total_breakdown_.data_messages));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&total_breakdown_.io_ops));
  uint32_t degraded = 0;
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&degraded));
  if (reader->remaining() != static_cast<size_t>(degraded) * 4) {
    return util::Status::Internal("shard snapshot: degraded registry size");
  }
  for (uint32_t d = 0; d < degraded; ++d) {
    uint32_t slot = 0;
    OBJALLOC_RETURN_IF_ERROR(reader->Read(&slot));
    if (slot >= slot_count_) {
      return util::Status::Internal(
          "shard snapshot: degraded slot out of range");
    }
    MarkDegraded(slot);
  }
  return util::Status::Ok();
}

util::Status ObjectShard::RestoreSnapshotChunk(std::string_view chunk,
                                               bool last) {
  if (restore_.done) {
    return util::Status::Internal("shard snapshot: chunk after final chunk");
  }
  if (!restore_.header_done && slot_count_ != 0) {
    return util::Status::Internal(
        "RestoreSnapshot requires a freshly constructed shard");
  }
  std::string_view data = chunk;
  if (!restore_.carry.empty()) {
    restore_.carry.append(chunk.data(), chunk.size());
    data = restore_.carry;
  }
  util::PayloadReader reader(data);
  if (!restore_.header_done && reader.remaining() >= sizeof(uint64_t)) {
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&restore_.expected));
    // Bounded before it sizes the slab and the directory: the count comes
    // from the file, and past the slot limit AllocateSlot would abort and
    // the directory's sizing arithmetic would wrap.
    if (restore_.expected >= kSlotLimit) {
      return util::Status::Internal("shard snapshot: bad slot count " +
                                    std::to_string(restore_.expected));
    }
    restore_.header_done = true;
    Reserve(static_cast<size_t>(restore_.expected));
  }
  if (restore_.header_done) {
    while (restore_.restored < restore_.expected &&
           reader.remaining() >= kSnapshotSlotBytes) {
      SlotRecord record;
      OBJALLOC_RETURN_IF_ERROR(
          ReadSlotRecord(&reader, "shard snapshot", &record));
      if (directory_.Contains(record.id, SlotIds())) {
        return util::Status::Internal("shard snapshot: duplicate object id " +
                                      std::to_string(record.id));
      }
      const uint32_t slot = AllocateSlot();
      Slot(slot) = record;
      directory_.Insert(record.id, slot, SlotIds());
      ++restore_.restored;
    }
  }
  if (last) {
    if (!restore_.header_done || restore_.restored < restore_.expected) {
      return util::Status::Internal("shard snapshot: slot table truncated");
    }
    OBJALLOC_RETURN_IF_ERROR(RestoreSnapshotFooter(&reader));
    restore_.carry.clear();
    restore_.done = true;
    return util::Status::Ok();
  }
  // Carry the incomplete tail (partial slot record or footer prefix) into
  // the next chunk; bounded by one record plus the footer head.
  restore_.carry = std::string(data.substr(data.size() - reader.remaining()));
  return util::Status::Ok();
}

// --- Delta checkpoints --------------------------------------------------

void ObjectShard::EnableDirtyTracking() {
  dirty_tracking_ = true;
  MarkAllDirty();
}

void ObjectShard::DisableDirtyTracking() {
  dirty_tracking_ = false;
  dirty_words_.clear();
  dirty_words_.shrink_to_fit();
}

void ObjectShard::ClearDirty() {
  std::fill(dirty_words_.begin(), dirty_words_.end(), 0);
}

void ObjectShard::MarkAllDirty() {
  if (!dirty_tracking_) return;
  const uint32_t pages =
      (slot_count_ + kPageMask) >> kPageShift;
  const size_t words = (static_cast<size_t>(pages) + 63) / 64;
  if (words > dirty_words_.size()) dirty_words_.resize(words, 0);
  for (uint32_t page = 0; page < pages; ++page) {
    dirty_words_[page >> 6] |= uint64_t{1} << (page & 63);
  }
}

void ObjectShard::CollectDirtyRanges(
    std::vector<std::pair<uint32_t, uint32_t>>* out) const {
  out->clear();
  const uint32_t pages = (slot_count_ + kPageMask) >> kPageShift;
  uint32_t run_begin = 0;
  bool in_run = false;
  for (uint32_t page = 0; page < pages; ++page) {
    const size_t word = page >> 6;
    const bool dirty =
        word < dirty_words_.size() &&
        (dirty_words_[word] & (uint64_t{1} << (page & 63))) != 0;
    if (dirty && !in_run) {
      run_begin = page;
      in_run = true;
    } else if (!dirty && in_run) {
      out->emplace_back(run_begin << kPageShift,
                        static_cast<uint32_t>(std::min<uint64_t>(
                            slot_count_, uint64_t{page} << kPageShift)));
      in_run = false;
    }
  }
  if (in_run) {
    out->emplace_back(run_begin << kPageShift,
                      static_cast<uint32_t>(std::min<uint64_t>(
                          slot_count_, uint64_t{pages} << kPageShift)));
  }
}

void ObjectShard::AppendDeltaHeader(uint32_t range_count,
                                    std::string* out) const {
  util::AppendScalar(static_cast<uint64_t>(slot_count_), out);
  util::AppendScalar(range_count, out);
}

void ObjectShard::AppendDeltaRange(uint32_t begin, uint32_t end,
                                   std::string* out) const {
  util::AppendScalar(begin, out);
  util::AppendScalar(end, out);
  for (uint32_t slot = begin; slot < end; ++slot) {
    const SlotRecord& record = Slot(slot);
    util::AppendScalar(static_cast<uint8_t>(record.id >= 0 ? 1 : 0), out);
    if (record.id >= 0) AppendSlotRecord(record, out);
  }
}

void ObjectShard::BeginDeltaRestore() { delta_restore_ = DeltaProgress{}; }

util::Status ObjectShard::RestoreDeltaSlot(uint32_t slot,
                                           util::PayloadReader* reader) {
  uint8_t present = 0;
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&present));
  SlotRecord& record = Slot(slot);
  if (present == 0) {
    // The slot was empty at snapshot time. With no removal API this only
    // names never-yet-allocated slots, but handle an occupied one anyway:
    // the delta is authoritative for every slot it covers.
    if (record.id >= 0) {
      directory_.Erase(record.id, SlotIds());
      record = SlotRecord{};
      free_slots_.push_back(slot);
    }
    return util::Status::Ok();
  }
  SlotRecord restored;
  OBJALLOC_RETURN_IF_ERROR(ReadSlotRecord(reader, "shard delta", &restored));
  // The directory confirms every probe against the record's id, so the old
  // id leaves the directory before the record is overwritten, and the new
  // one enters it after.
  if (record.id >= 0 && record.id != restored.id) {
    directory_.Erase(record.id, SlotIds());
  }
  const uint32_t existing = directory_.Find(restored.id, SlotIds());
  if (existing != kInvalidSlot && existing != slot) {
    return util::Status::Internal("shard delta: duplicate object id " +
                                  std::to_string(restored.id));
  }
  record = restored;
  if (existing == kInvalidSlot) directory_.Insert(record.id, slot, SlotIds());
  return util::Status::Ok();
}

util::Status ObjectShard::RestoreDeltaChunk(std::string_view chunk,
                                            bool last) {
  DeltaProgress& d = delta_restore_;
  if (d.done) {
    return util::Status::Internal("shard delta: chunk after final chunk");
  }
  std::string_view data = chunk;
  if (!d.carry.empty()) {
    d.carry.append(chunk.data(), chunk.size());
    data = d.carry;
  }
  util::PayloadReader reader(data);
  size_t committed = 0;  // offset of the first byte not yet consumed whole
  if (!d.header_done) {
    if (reader.remaining() >= sizeof(uint64_t) + sizeof(uint32_t)) {
      uint64_t span = 0;
      OBJALLOC_RETURN_IF_ERROR(reader.Read(&span));
      OBJALLOC_RETURN_IF_ERROR(reader.Read(&d.ranges_total));
      if (span < slot_count_ || span >= kSlotLimit) {
        return util::Status::Internal("shard delta: bad slot span " +
                                      std::to_string(span));
      }
      // Grow the slab to the delta's span: the new slots were allocated
      // during the delta window and arrive inside its dirty ranges.
      GrowPages((static_cast<size_t>(span) + kPageSlots - 1) >> kPageShift);
      slot_count_ = static_cast<uint32_t>(span);
      d.header_done = true;
      committed = data.size() - reader.remaining();
    }
  }
  if (d.header_done) {
    while (d.ranges_done < d.ranges_total) {
      if (!d.in_range) {
        if (reader.remaining() < 2 * sizeof(uint32_t)) break;
        uint32_t begin = 0, end = 0;
        OBJALLOC_RETURN_IF_ERROR(reader.Read(&begin));
        OBJALLOC_RETURN_IF_ERROR(reader.Read(&end));
        if (begin > end || end > slot_count_) {
          return util::Status::Internal("shard delta: bad slot range");
        }
        d.cursor = begin;
        d.range_end = end;
        d.in_range = true;
        committed = data.size() - reader.remaining();
      }
      bool need_more = false;
      while (d.cursor < d.range_end) {
        // A unit is 1 presence byte, plus the full record when present;
        // peek the presence byte without consuming a partial unit.
        const size_t avail = reader.remaining();
        if (avail < 1) {
          need_more = true;
          break;
        }
        const uint8_t present =
            static_cast<uint8_t>(data[data.size() - avail]);
        if (present != 0 && avail < 1 + kSnapshotSlotBytes) {
          need_more = true;
          break;
        }
        OBJALLOC_RETURN_IF_ERROR(RestoreDeltaSlot(d.cursor, &reader));
        ++d.cursor;
        committed = data.size() - reader.remaining();
      }
      if (need_more) break;
      if (d.cursor == d.range_end) {
        d.in_range = false;
        ++d.ranges_done;
      }
    }
  }
  if (last) {
    if (!d.header_done || d.ranges_done < d.ranges_total || d.in_range) {
      return util::Status::Internal("shard delta: range table truncated");
    }
    // The footer *replaces* the aggregates and the degraded registry.
    for (const uint32_t slot : degraded_list_) degraded_.Erase(slot, SlotKey);
    degraded_list_.clear();
    OBJALLOC_RETURN_IF_ERROR(RestoreSnapshotFooter(&reader));
    d.carry.clear();
    d.done = true;
    return util::Status::Ok();
  }
  // Keep everything past the last whole unit for the next chunk. When the
  // range table is complete the remainder is the footer, which is parsed
  // only on the final chunk. (`data` may view the carry itself, so the
  // tail is copied out before the assignment.)
  if (d.ranges_done == d.ranges_total && d.header_done) {
    committed = data.size() - reader.remaining();
  }
  d.carry = std::string(data.substr(committed));
  return util::Status::Ok();
}

}  // namespace objalloc::core
