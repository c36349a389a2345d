// ShardExecutor — long-lived worker threads that *own* shards, replacing the
// fork-join-per-batch fan-out (DESIGN.md §11).
//
// The ParallelFor engine of PRs 1–3 made every ServeBatch a fork-join: wake
// the pool, claim shard chunks, hit a global barrier, merge. At serving
// batch sizes the barrier and wake-up dominate, which is why
// BENCH_service_scaling.json recorded speedup ≤ 1.0 at every shard × thread
// point. This executor inverts the model, following the job-queue design of
// oidadb's worker/jobs split:
//
//   * Each worker thread owns a fixed contiguous range of shards for its
//     whole life. Shard state is touched by exactly one thread, ever — the
//     disjoint-writes leg of the determinism contract becomes structural,
//     and a shard's slots stay warm in one core's cache across batches.
//   * The serving thread partitions a batch once at admission into
//     per-shard sub-batches (ShardOp lists inside a BatchContext) and
//     enqueues one ShardTask per non-empty shard onto that shard's bounded
//     SPSC ring (util/spsc_queue.h). Workers drain their rings in FIFO
//     order; there is no global barrier anywhere.
//   * Results carry sequence numbers (BatchContext::sequence) and per-shard
//     integer deltas that the submitter merges in fixed shard order after
//     the batch's completion count hits zero — bit-identical to the serial
//     engine at any shard × worker count, the same argument as §7.
//
// Cross-batch pipelining falls out of the queues: the executor keeps a small
// ring of `depth` BatchContexts, so while shard j is still serving batch n,
// shard k can already be serving batch n+1 — per-shard FIFO guarantees a
// shard applies batches in submission order, and per-object event order (the
// only order the DOM algorithms observe) is exactly the submission order.
// The ObjectService drives this either synchronously (Submit then Wait — the
// plain ServeBatch contract) or pipelined (SubmitBatch/WaitBatch tickets,
// kept in flight by core/batch_pipeline.h), and fences the pipeline before
// anything that must observe or mutate quiesced shards: registrations,
// stats reads, checkpoints, fault-mode arming.
//
// Parking protocol: a worker that finds all its rings empty takes its own
// mutex and sleeps on its condition variable keyed to a wake epoch; the
// producer bumps the epoch under the same mutex after enqueuing, so wake-ups
// cannot be lost. A short pre-park poll keeps back-to-back pipelined batches
// on the fast path. Steady-state Submit/Wait performs zero heap allocations
// (asserted by tests/serving_engine_test.cc through the operator-new hook).

#ifndef OBJALLOC_CORE_SHARD_EXECUTOR_H_
#define OBJALLOC_CORE_SHARD_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "objalloc/core/fault_injector.h"
#include "objalloc/core/object_shard.h"
#include "objalloc/model/request.h"
#include "objalloc/util/spsc_queue.h"

namespace objalloc::core {

// One admitted event, pre-routed for its home shard's worker: the dense
// slot to serve and its submission index. The worker writes the event's
// cost back into the op; the submitter copies it to costs[index] at merge.
struct ShardOp {
  uint32_t index = 0;  // event index within the batch
  uint32_t slot = 0;   // dense slot in the owning shard
  model::Request request;
  double cost = 0;     // out: filled by the owning worker
};

// One queue entry: "serve batch context `context`'s sub-batch for shard
// `shard`". The payload lives in the BatchContext; the task is 8 bytes.
struct ShardTask {
  uint32_t context = 0;
  uint32_t shard = 0;
};

// Per-batch serving state shared between the submitting thread and the
// workers. The executor owns a fixed ring of these (the pipeline depth);
// all vectors are recycled across batches, so steady-state submission
// never allocates. Shard s's worker writes only ops[s] (each op's cost),
// deltas[s] and fault_stats[s]. Costs return through ops[s], a buffer only
// that worker writes, and not through a submission-order array: with
// events hash-sharded, each line of such an array holds several workers'
// costs and moves between their cores on every write (the paper's
// write-invalidate traffic, replayed in the cache hierarchy). Neighbouring
// deltas[] cells do share lines; storing them once per task instead of per
// event measured no gain (EXPERIMENTS E11).
struct BatchContext {
  uint64_t sequence = 0;                     // submission order stamp
  std::vector<std::vector<ShardOp>> ops;     // per shard: work in, costs out
  std::vector<model::CostBreakdown> deltas;  // per shard: traffic delta
  std::vector<FaultStats> fault_stats;       // per shard (fault mode only)
  // Fault mode (null / unused on the plain path): the per-event live sets
  // recorded by the serial fault pass plus the shared fault machinery, all
  // stable for the batch's lifetime — fault batches run synchronously
  // (submit, wait) so the service scratch they point into cannot be
  // recycled under them. Refused events are simply never emitted as ops.
  const ProcessorSet* live_masks = nullptr;
  const CrashLog* crash_log = nullptr;
  const FaultInjector* injector = nullptr;
  size_t base_index = 0;
  bool faulty = false;
  bool check_invariant = false;
  // Completion: sub-batches still outstanding; in_flight flips false (under
  // the executor's done mutex) when the last one lands.
  std::atomic<uint32_t> pending{0};
  std::atomic<bool> in_flight{false};
};

class ShardExecutor {
 public:
  // Pipeline depth: batches that may be in flight at once. Depth 1 is
  // strictly synchronous; the default keeps a submitted batch, a serving
  // batch, and an admitting batch overlapped with headroom.
  static constexpr size_t kDefaultDepth = 4;

  // `shards` must outlive the executor (the ObjectService's dense shard
  // array; its address is stable because the vector never regrows after
  // construction). Spawns min(num_workers, num_shards) worker threads, each
  // owning a contiguous shard range. `completion_fd` adopts the eventfd a
  // previous executor released (-1: none yet).
  ShardExecutor(ObjectShard* shards, size_t num_shards, int num_workers,
                size_t depth = kDefaultDepth, int completion_fd = -1);

  // Drains every in-flight batch, then stops and joins the workers.
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  size_t depth() const { return contexts_.size(); }

  // Index of the context the next Acquire() will hand out, without blocking
  // or advancing. The service peeks first so it can merge that context's
  // previous (still-unfinalized) batch before Acquire resets the scratch.
  uint32_t PeekNextContext() const { return next_context_; }

  // Hands out the next pipeline slot round-robin, blocking until its
  // previous batch (if any) has fully completed, and resets its scratch
  // (ops cleared, deltas zeroed, fault fields nulled) with a fresh sequence
  // number. Single submitter thread only.
  uint32_t Acquire();

  BatchContext& context(uint32_t index) { return *contexts_[index]; }

  // Enqueues one ShardTask per non-empty ops[s] list of `context` and wakes
  // the owning workers. The caller must have filled ops (and the fault
  // fields when faulty) first; after Wait each op carries its cost. A
  // context with no work completes immediately without touching the
  // queues.
  void Submit(uint32_t context);

  // Blocks until `context`'s batch has fully completed. All shard writes of
  // that batch happen-before the return (acquire on the completion flag).
  void Wait(uint32_t context);

  // True once `context`'s batch has completed: Wait would return at once.
  bool Done(uint32_t context) const {
    return !contexts_[context]->in_flight.load(std::memory_order_acquire);
  }

  // Non-blocking eventfd, created on first call (submitter thread only),
  // that the worker landing a batch's last sub-batch bumps after Done turns
  // true. Until someone asks, no worker touches it.
  int CompletionFd();
  // Gives up ownership of the eventfd (or -1), for a replacement executor.
  int ReleaseCompletionFd();

  // Occupancy introspection (DESIGN.md §15): events enqueued but not yet
  // served, and batches submitted but not yet completed. Relaxed snapshots
  // — readable from any thread without fencing the pipeline, which is what
  // makes them usable as a live backpressure signal (a fencing read would
  // drain the very queues it measures).
  uint64_t QueuedOps() const {
    return queued_ops_.load(std::memory_order_relaxed);
  }
  uint32_t InflightBatches() const {
    return inflight_batches_.load(std::memory_order_relaxed);
  }

  // Waits for every in-flight batch — the pipeline fence. After DrainAll
  // the shards are quiescent: no worker will touch them until the next
  // Submit.
  void DrainAll();

 private:
  struct Worker {
    std::thread thread;
    size_t begin = 0;  // owned shard range [begin, end)
    size_t end = 0;
    // Parking: bumped under `mutex` by the producer after enqueuing.
    std::mutex mutex;
    std::condition_variable wake;
    uint64_t epoch = 0;
  };

  void WorkerLoop(Worker* worker);
  void RunTask(uint32_t context_index, uint32_t shard_index);

  ObjectShard* shards_;
  size_t num_shards_;
  std::vector<std::unique_ptr<util::SpscQueue<ShardTask>>> queues_;
  std::vector<std::unique_ptr<BatchContext>> contexts_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<uint32_t> shard_owner_;  // shard -> worker index
  std::vector<uint8_t> wake_scratch_;  // per worker: needs a wake this submit
  uint32_t next_context_ = 0;
  uint64_t next_sequence_ = 0;
  std::atomic<bool> stop_{false};
  // Occupancy counters (see QueuedOps/InflightBatches). Producer adds at
  // Submit, workers subtract as they serve; both relaxed — readers want a
  // load signal, not a synchronization edge.
  std::atomic<uint64_t> queued_ops_{0};
  std::atomic<uint32_t> inflight_batches_{0};
  // Completion handshake (shared by all contexts; completions are rare —
  // one per sub-batch at most, one contended notify per batch).
  std::mutex done_mutex_;
  std::condition_variable done_;
  std::atomic<int> completion_fd_{-1};  // -1 until requested
};

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_SHARD_EXECUTOR_H_
