// BatchPipeline — the one driver of ObjectService's pipelined entry
// (SubmitBatch / WaitBatch / BatchDone) for every caller that admits batch
// n+1 while batch n is still on the shard workers (DESIGN.md §11). Two
// slots, each a BatchResult, its BatchTicket and a caller tag. The rules:
//   * a slot's result stays untouched until its batch retires;
//   * every submitted batch retires exactly once, oldest first, through
//     `retire(slot, status)` — status is SubmitBatch's refusal, else
//     WaitBatch's;
//   * a batch completed synchronously (served in place: below
//     ObjectService::kInlineBatchEvents, or on the serial path; or in fault
//     mode) retires inside Submit, after any older batch, and does not
//     flip the slot;
//   * every exit drains: a refused Submit retires the rest before
//     returning, the destructor waits out what is left (without calling
//     back), so no batch outlives its result.
// Callbacks are template parameters: the steady state allocates nothing.

#ifndef OBJALLOC_CORE_BATCH_PIPELINE_H_
#define OBJALLOC_CORE_BATCH_PIPELINE_H_

#include <span>
#include <utility>

#include "objalloc/core/object_service.h"

namespace objalloc::core {

struct NoTag {};

template <typename Tag = NoTag>
class BatchPipeline {
 public:
  struct Slot {
    BatchResult result;
    BatchTicket ticket;
    Tag tag{};
  };

  explicit BatchPipeline(ObjectService* service) : service_(service) {}
  ~BatchPipeline() { (void)Drain([](Slot&, const util::Status&) {}); }
  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  // Both slots in flight: the next Submit first waits out the oldest.
  bool full() const { return busy_[next_]; }

  // Submits `events` (copied at admission) under `tag`, which is swapped
  // into the slot: it returns holding a retired tag's storage for reuse.
  // Returns SubmitBatch's refusal, else the first retire's wait error.
  template <typename Retire>
  util::Status Submit(std::span<const workload::MultiObjectEvent> events,
                      Tag& tag, Retire&& retire) {
    const int i = next_;
    util::Status status = RetireFrom(i, retire, /*block=*/true, /*count=*/1);
    std::swap(slot_[i].tag, tag);
    util::Status admitted =
        service_->SubmitBatch(events, &slot_[i].result, &slot_[i].ticket);
    if (admitted.ok() && !slot_[i].ticket.completed) {
      busy_[i] = true;
      next_ ^= 1;
      return status;
    }
    // Served in place (the service fenced the pipeline first) or refused:
    // the older slot retires first, and the slot stays.
    util::Status older = RetireFrom(i ^ 1, retire, /*block=*/true, /*count=*/1);
    retire(slot_[i], admitted);
    if (!admitted.ok()) return admitted;
    return status.ok() ? older : status;
  }
  template <typename Retire>
  util::Status Submit(std::span<const workload::MultiObjectEvent> events,
                      Retire&& retire) {
    Tag tag{};
    return Submit(events, tag, retire);
  }

  // Retires, oldest first, the batches whose serve has landed; stops at
  // the first still running. Never blocks.
  template <typename Retire>
  util::Status Reap(Retire&& retire) {
    return RetireFrom(next_, retire, /*block=*/false);
  }

  // Waits out and retires every in-flight batch, oldest first.
  template <typename Retire>
  util::Status Drain(Retire&& retire) {
    return RetireFrom(next_, retire, /*block=*/true);
  }

 private:
  // Retires up to `count` in-flight slots in the order oldest, oldest ^ 1.
  template <typename Retire>
  util::Status RetireFrom(int oldest, Retire& retire, bool block,
                          int count = 2) {
    util::Status first = util::Status::Ok();
    for (int k = 0; k < count; ++k) {
      const int i = oldest ^ k;
      if (!busy_[i]) continue;
      if (!block && !service_->BatchDone(slot_[i].ticket)) break;
      util::Status status = service_->WaitBatch(&slot_[i].ticket);
      busy_[i] = false;
      retire(slot_[i], status);
      if (first.ok()) first = status;
    }
    return first;
  }

  ObjectService* service_;
  Slot slot_[2];
  bool busy_[2] = {false, false};
  int next_ = 0;  // the slot the next Submit fills: the oldest when full
};

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_BATCH_PIPELINE_H_
