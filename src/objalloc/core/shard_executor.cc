#include "objalloc/core/shard_executor.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>

#include "objalloc/util/logging.h"
#include "objalloc/util/parallel.h"

namespace objalloc::core {

ShardExecutor::ShardExecutor(ObjectShard* shards, size_t num_shards,
                             int num_workers, size_t depth, int completion_fd)
    : shards_(shards), num_shards_(num_shards), completion_fd_(completion_fd) {
  OBJALLOC_CHECK_GE(num_shards, size_t{1});
  OBJALLOC_CHECK_GE(num_workers, 1);
  OBJALLOC_CHECK_GE(depth, size_t{1});
  const size_t workers =
      std::min(static_cast<size_t>(num_workers), num_shards);

  // Queue capacity == pipeline depth: each context contributes at most one
  // task per shard and at most `depth` contexts exist, so TryPush can never
  // find a full ring (asserted in Submit).
  queues_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    queues_.push_back(std::make_unique<util::SpscQueue<ShardTask>>(depth));
  }

  contexts_.reserve(depth);
  for (size_t c = 0; c < depth; ++c) {
    auto context = std::make_unique<BatchContext>();
    context->ops.resize(num_shards);
    context->deltas.resize(num_shards);
    context->fault_stats.resize(num_shards);
    contexts_.push_back(std::move(context));
  }

  shard_owner_.resize(num_shards);
  wake_scratch_.assign(workers, 0);
  workers_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->begin = num_shards * w / workers;
    worker->end = num_shards * (w + 1) / workers;
    for (size_t s = worker->begin; s < worker->end; ++s) {
      shard_owner_[s] = static_cast<uint32_t>(w);
    }
    workers_.push_back(std::move(worker));
  }
  // Spawn only after every Worker is constructed: a worker thread never
  // observes a half-built executor.
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

ShardExecutor::~ShardExecutor() {
  DrainAll();
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      ++worker->epoch;
    }
    worker->wake.notify_one();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  const int fd = completion_fd_.load(std::memory_order_relaxed);
  if (fd >= 0) close(fd);
}

int ShardExecutor::CompletionFd() {
  int fd = completion_fd_.load(std::memory_order_relaxed);
  if (fd < 0) {
    fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    OBJALLOC_CHECK_GE(fd, 0) << "eventfd for batch completions";
    completion_fd_.store(fd, std::memory_order_release);
  }
  return fd;
}

int ShardExecutor::ReleaseCompletionFd() {
  return completion_fd_.exchange(-1, std::memory_order_acq_rel);
}

uint32_t ShardExecutor::Acquire() {
  const uint32_t index = next_context_;
  next_context_ =
      (next_context_ + 1) % static_cast<uint32_t>(contexts_.size());
  Wait(index);
  BatchContext& context = *contexts_[index];
  context.sequence = next_sequence_++;
  for (std::vector<ShardOp>& ops : context.ops) ops.clear();
  std::fill(context.deltas.begin(), context.deltas.end(),
            model::CostBreakdown());
  context.live_masks = nullptr;
  context.crash_log = nullptr;
  context.injector = nullptr;
  context.base_index = 0;
  context.faulty = false;
  context.check_invariant = false;
  return index;
}

void ShardExecutor::Submit(uint32_t context_index) {
  BatchContext& context = *contexts_[context_index];
  uint32_t tasks = 0;
  uint64_t total_ops = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (!context.ops[s].empty()) {
      ++tasks;
      total_ops += context.ops[s].size();
    }
  }
  if (tasks == 0) return;  // nothing to do: in_flight stays false
  queued_ops_.fetch_add(total_ops, std::memory_order_relaxed);
  inflight_batches_.fetch_add(1, std::memory_order_relaxed);

  // Completion state before the first push: a worker that races through its
  // sub-batch immediately still decrements from the full count.
  context.pending.store(tasks, std::memory_order_relaxed);
  context.in_flight.store(true, std::memory_order_relaxed);

  std::fill(wake_scratch_.begin(), wake_scratch_.end(), 0);
  for (size_t s = 0; s < num_shards_; ++s) {
    if (context.ops[s].empty()) continue;
    const bool pushed = queues_[s]->TryPush(
        ShardTask{context_index, static_cast<uint32_t>(s)});
    OBJALLOC_CHECK(pushed) << "shard queue " << s
                           << " full despite depth-bounded contexts";
    wake_scratch_[shard_owner_[s]] = 1;
  }
  // One wake per receiving worker, after all of its tasks are visible. The
  // epoch bump is under the worker's mutex, so a worker that just found its
  // rings empty either sees the bump before sleeping or is woken by the
  // notify — never a lost wake-up.
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (!wake_scratch_[w]) continue;
    Worker& worker = *workers_[w];
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      ++worker.epoch;
    }
    worker.wake.notify_one();
  }
}

void ShardExecutor::Wait(uint32_t context_index) {
  BatchContext& context = *contexts_[context_index];
  if (!context.in_flight.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_.wait(lock, [&context] {
    return !context.in_flight.load(std::memory_order_acquire);
  });
}

void ShardExecutor::DrainAll() {
  for (uint32_t c = 0; c < static_cast<uint32_t>(contexts_.size()); ++c) {
    Wait(c);
  }
}

void ShardExecutor::WorkerLoop(Worker* worker) {
  // Long-lived workers *are* the parallelism: anything they call (shard
  // serve paths, future per-shard maintenance) must not fan out again, so
  // they count as pool workers for ParallelFor's nested-serial rule.
  util::MarkParallelWorker();
  uint64_t seen_epoch = 0;
  for (;;) {
    bool served_any = false;
    for (size_t s = worker->begin; s < worker->end; ++s) {
      ShardTask task;
      while (queues_[s]->TryPop(&task)) {
        RunTask(task.context, task.shard);
        served_any = true;
      }
    }
    if (served_any) continue;  // re-sweep: pipelined work may have landed
    std::unique_lock<std::mutex> lock(worker->mutex);
    if (worker->epoch != seen_epoch) {
      // A producer enqueued since the sweep started; its pushes happened
      // before the bump we just observed, so the next sweep finds them.
      seen_epoch = worker->epoch;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    worker->wake.wait(lock, [this, worker, seen_epoch] {
      return worker->epoch != seen_epoch ||
             stop_.load(std::memory_order_acquire);
    });
    seen_epoch = worker->epoch;
  }
}

void ShardExecutor::RunTask(uint32_t context_index, uint32_t shard_index) {
  BatchContext& context = *contexts_[context_index];
  ObjectShard& shard = shards_[shard_index];
  model::CostBreakdown& delta = context.deltas[shard_index];
  std::vector<ShardOp>& ops = context.ops[shard_index];
  // Both branches fetch the record kPrefetchDistance ops ahead of the serve.
  constexpr size_t kAhead = ObjectShard::kPrefetchDistance;
  if (!context.faulty) {
    for (size_t k = 0; k < ops.size(); ++k) {
      if (k + kAhead < ops.size()) shard.PrefetchSlot(ops[k + kAhead].slot);
      ShardOp& op = ops[k];
      op.cost = shard.ServeSlot(op.slot, op.request, &delta);
    }
  } else {
    FaultStats& stats = context.fault_stats[shard_index];
    for (size_t k = 0; k < ops.size(); ++k) {
      if (k + kAhead < ops.size()) shard.PrefetchSlot(ops[k + kAhead].slot);
      ShardOp& op = ops[k];
      op.cost = shard.ServeSlotFaulty(
          op.slot, op.request, context.base_index + op.index,
          context.live_masks[op.index], *context.crash_log, *context.injector,
          &delta, &stats, context.check_invariant);
    }
  }
  queued_ops_.fetch_sub(ops.size(), std::memory_order_relaxed);
  // Last sub-batch completes the batch. The acq_rel decrement chains every
  // worker's writes into the final release of in_flight, which Wait's
  // acquire load picks up — the submitter then reads all shard results.
  if (context.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    inflight_batches_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      context.in_flight.store(false, std::memory_order_release);
      done_.notify_all();
    }
    // After the release above: a reader woken by the fd sees Done().
    const int fd = completion_fd_.load(std::memory_order_acquire);
    if (fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] const ssize_t n = write(fd, &one, sizeof(one));
    }
  }
}

}  // namespace objalloc::core
