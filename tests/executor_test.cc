// Concurrency stress for the shard-owned worker layer, written to be run
// under ThreadSanitizer (CI's tsan job): the SPSC ring under real
// cross-thread traffic, executor submit/wait/shutdown races, and the
// service-level pipeline (SubmitBatch/WaitBatch) against the synchronous
// path. Functional determinism of the executor path is covered by
// object_service_test; this file exists to put the synchronization itself
// under load.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/batch_pipeline.h"
#include "objalloc/core/object_service.h"
#include "objalloc/core/shard_executor.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/spsc_queue.h"
#include "objalloc/workload/event_source.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {
namespace {

using util::ScopedThreads;
using util::SpscQueue;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

// ----------------------------------------------------------- SpscQueue

// One producer, one consumer, a deliberately tiny ring: every item crosses
// the full/empty boundary many times, so both cache-refresh paths and the
// release/acquire pairs are exercised continuously.
TEST(SpscQueueStressTest, CrossThreadFifoUnderBackpressure) {
  constexpr uint64_t kItems = 200000;
  SpscQueue<uint64_t> queue(4);
  std::thread producer([&queue] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!queue.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kItems) {
    uint64_t value = 0;
    if (queue.TryPop(&value)) {
      ASSERT_EQ(value, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(queue.EmptyApprox());
}

// Many disjoint producer/consumer pairs, one ring each — the executor's
// actual topology (every shard queue has exactly one producer, the
// submitter, and one consumer, the owning worker).
TEST(SpscQueueStressTest, ManyPairsStayIndependent) {
  constexpr int kPairs = 8;
  constexpr uint64_t kItems = 50000;
  std::vector<std::unique_ptr<SpscQueue<uint64_t>>> queues;
  for (int p = 0; p < kPairs; ++p) {
    queues.push_back(std::make_unique<SpscQueue<uint64_t>>(2));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    SpscQueue<uint64_t>* queue = queues[p].get();
    // Tag items with the pair id: a cross-queue leak would surface as a
    // mismatched tag, not just a reordering.
    const uint64_t tag = static_cast<uint64_t>(p) << 32;
    threads.emplace_back([queue, tag] {
      for (uint64_t i = 0; i < kItems; ++i) {
        while (!queue->TryPush(tag | i)) std::this_thread::yield();
      }
    });
    threads.emplace_back([queue, tag, &failures] {
      for (uint64_t i = 0; i < kItems; ++i) {
        uint64_t value = 0;
        while (!queue->TryPop(&value)) std::this_thread::yield();
        if (value != (tag | i)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ----------------------------------------------------------- ShardExecutor

ObjectConfig TestConfig() {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
  config.algorithm = AlgorithmKind::kDynamic;
  return config;
}

// Builds shards with `per_shard` objects each, all slots registered.
std::vector<ObjectShard> MakeShards(size_t num_shards, int per_shard) {
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);
  std::vector<ObjectShard> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ObjectShard shard(8, sc);
    for (int i = 0; i < per_shard; ++i) {
      EXPECT_TRUE(
          shard.AddObject(static_cast<ObjectId>(s * 1000 + i), TestConfig())
              .ok());
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

// Deterministic request stream without an RNG: cycles kinds & processors.
model::Request NthRequest(uint64_t n) {
  return n % 3 == 0 ? model::Request::Write(static_cast<int>(n % 8))
                    : model::Request::Read(static_cast<int>(n % 8));
}

// Drives the executor directly, pipelining `depth` contexts back to back
// for many rounds, and checks every cost against an identical serial run.
// Workers keep shard state across batches, so any lost task, duplicated
// task, or reordering shows up as a cost divergence downstream.
TEST(ShardExecutorStressTest, PipelinedRoundsMatchSerialServe) {
  constexpr size_t kShards = 8;
  constexpr int kPerShard = 4;
  constexpr int kRounds = 400;
  constexpr uint32_t kOpsPerShard = 3;

  std::vector<ObjectShard> serial = MakeShards(kShards, kPerShard);
  std::vector<ObjectShard> shards = MakeShards(kShards, kPerShard);
  ShardExecutor executor(shards.data(), shards.size(), 4);
  ASSERT_GE(executor.depth(), size_t{2});

  const uint32_t batch_events =
      static_cast<uint32_t>(kShards) * kOpsPerShard;
  std::vector<std::vector<double>> costs(executor.depth());
  std::vector<std::vector<double>> expected(executor.depth());
  auto fill = [&](BatchContext& context, int round) {
    uint32_t index = 0;
    for (size_t s = 0; s < kShards; ++s) {
      for (uint32_t k = 0; k < kOpsPerShard; ++k) {
        const uint64_t n = static_cast<uint64_t>(round) * batch_events + index;
        const uint32_t slot =
            (index + static_cast<uint32_t>(round)) % kPerShard;
        context.ops[s].push_back(
            ShardOp{index, slot, serial[s].IdAt(slot), NthRequest(n)});
        ++index;
      }
    }
  };

  for (int round = 0; round < kRounds; ++round) {
    const uint32_t slot = executor.Acquire();
    fill(executor.context(slot), round);

    // Serial reference for the same ops, against the twin shard set.
    expected[slot].assign(batch_events, 0.0);
    for (size_t s = 0; s < kShards; ++s) {
      model::CostBreakdown delta;
      for (const ShardOp& op : executor.context(slot).ops[s]) {
        expected[slot][op.index] =
            serial[s].ServeSlot(op.slot, op.request, &delta);
      }
    }
    executor.Submit(slot);
    // No Wait here: up to `depth` rounds ride the pipeline concurrently;
    // Acquire blocks on the oldest context when the ring is full.
  }
  executor.DrainAll();
  // Each context still holds its last round's ops, costs filled in.
  for (uint32_t c = 0; c < executor.depth(); ++c) {
    costs[c].assign(batch_events, 0.0);
    for (const std::vector<ShardOp>& ops : executor.context(c).ops) {
      for (const ShardOp& op : ops) costs[c][op.index] = op.cost;
    }
  }
  for (size_t c = 0; c < executor.depth(); ++c) {
    EXPECT_EQ(costs[c], expected[c]) << "context " << c;
  }
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(shards[s].TotalBreakdown(), serial[s].TotalBreakdown())
        << "shard " << s;
    EXPECT_EQ(shards[s].TotalRequests(), serial[s].TotalRequests())
        << "shard " << s;
  }
}

// Construction/destruction races: executors torn down idle, and torn down
// with a just-submitted batch still on the rings (the destructor must
// drain, then stop, then join — never strand a task or a worker).
TEST(ShardExecutorStressTest, ShutdownRacesSubmittedWork) {
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<ObjectShard> shards = MakeShards(4, 2);
    ShardExecutor executor(shards.data(), shards.size(), 4);
    const uint32_t slot = executor.Acquire();
    BatchContext& context = executor.context(slot);
    uint32_t index = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      for (int k = 0; k < 2; ++k) {
        context.ops[s].push_back(ShardOp{index, index % 2,
                                         shards[s].IdAt(index % 2),
                                         NthRequest(index)});
        ++index;
      }
    }
    executor.Submit(slot);
    // Destructor runs with the batch possibly still in flight.
  }
  // Idle teardown: never submitted anything.
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<ObjectShard> shards = MakeShards(4, 2);
    ShardExecutor idle(shards.data(), shards.size(), 3);
  }
}

// ----------------------------------------------------------- Service pipeline

// The full stack under threads: pipelined SubmitBatch/WaitBatch against the
// synchronous ServeBatch path over the same trace must agree on every
// aggregate. The smallest batches that still go to the executor maximize
// handoff frequency (the racy part): 313 handoffs.
TEST(ServicePipelineStressTest, PipelinedEqualsSynchronous) {
  constexpr size_t kBatch = ObjectService::kInlineBatchEvents;
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 64;
  options.length = 313 * kBatch;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 77);
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);

  ScopedThreads threads(4);
  ServiceOptions service_options;
  service_options.num_shards = 16;

  ObjectService sync_service(trace.num_processors, sc, service_options);
  ObjectService pipe_service(trace.num_processors, sc, service_options);
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(sync_service.AddObject(id, TestConfig()).ok());
    ASSERT_TRUE(pipe_service.AddObject(id, TestConfig()).ok());
  }

  std::span<const MultiObjectEvent> all(trace.events);
  BatchResult results[2];
  BatchTicket tickets[2];
  int cur = 0;
  double sync_cost = 0;
  double pipe_cost = 0;
  for (size_t pos = 0; pos < all.size(); pos += kBatch) {
    auto span = all.subspan(pos, std::min(kBatch, all.size() - pos));
    auto sync_batch = sync_service.ServeBatch(span);
    ASSERT_TRUE(sync_batch.ok());
    sync_cost += sync_batch->cost;

    if (!tickets[cur].completed) {
      ASSERT_TRUE(pipe_service.WaitBatch(&tickets[cur]).ok());
      pipe_cost += results[cur].cost;
    }
    ASSERT_TRUE(
        pipe_service.SubmitBatch(span, &results[cur], &tickets[cur]).ok());
    if (tickets[cur].completed) {
      pipe_cost += results[cur].cost;
    } else {
      cur ^= 1;
    }
  }
  for (int i = 0; i < 2; ++i) {
    if (!tickets[i].completed) {
      ASSERT_TRUE(pipe_service.WaitBatch(&tickets[i]).ok());
      pipe_cost += results[i].cost;
    }
  }

  EXPECT_EQ(pipe_service.TotalBreakdown(), sync_service.TotalBreakdown());
  EXPECT_EQ(pipe_service.TotalRequests(), sync_service.TotalRequests());
  EXPECT_DOUBLE_EQ(pipe_cost, sync_cost);
  for (int id = 0; id < trace.num_objects; ++id) {
    EXPECT_EQ(pipe_service.StatsFor(id)->scheme.mask(),
              sync_service.StatsFor(id)->scheme.mask())
        << "object " << id;
  }

  // Waiting an already-completed (stale) ticket is a harmless no-op.
  BatchTicket stale = tickets[0];
  EXPECT_TRUE(pipe_service.WaitBatch(&stale).ok());
  EXPECT_TRUE(pipe_service.DrainBatches().ok());
}

// The one serving core under every entry at once: pipelined SubmitBatch
// tickets left in flight, interleaved with synchronous ServeBatchInto and
// one-event ServeBatch calls, on a durable service whose small checkpoint
// interval makes auto-checkpoints fire inside WaitBatch (and inside the
// SubmitBatch that recycles a full pipeline) while other batches are still
// on the workers. Every per-call result, every aggregate, and the state
// Recover rebuilds from the directory must equal a 1-thread service fed the
// same calls.
TEST(ServicePipelineStressTest, MixedSyncPipelinedDurableMatchesSerial) {
  // 125 batches of the smallest size the executor takes.
  constexpr size_t kBatch = ObjectService::kInlineBatchEvents;
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 64;
  options.length = 125 * kBatch;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 5);
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);
  ServiceOptions service_options;
  service_options.num_shards = 16;

  // The call sequence: batches of kBatch events; of every four, two are
  // submitted and left in flight, one is served synchronously, and one is
  // split into one-event ServeBatch calls (served in place).
  enum class Entry { kSubmit, kServeInto, kServeOne };
  struct Call {
    std::span<const MultiObjectEvent> events;
    Entry entry;
  };
  std::vector<Call> calls;
  std::span<const MultiObjectEvent> all(trace.events);
  for (size_t pos = 0, n = 0; pos < all.size(); pos += kBatch, ++n) {
    auto batch = all.subspan(pos, std::min(kBatch, all.size() - pos));
    if (n % 4 < 2) {
      calls.push_back({batch, Entry::kSubmit});
    } else if (n % 4 == 2) {
      calls.push_back({batch, Entry::kServeInto});
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        calls.push_back({batch.subspan(i, 1), Entry::kServeOne});
      }
    }
  }

  auto register_all = [&trace](ObjectService& service) {
    for (int id = 0; id < trace.num_objects; ++id) {
      ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
    }
  };
  ObjectService reference(trace.num_processors, sc, service_options);
  std::vector<BatchResult> want(calls.size());
  {
    ScopedThreads serial(1);
    register_all(reference);
    for (size_t c = 0; c < calls.size(); ++c) {
      auto result = reference.ServeBatch(calls[c].events);
      ASSERT_TRUE(result.ok());
      want[c] = *std::move(result);
    }
  }
  auto expect_reference_state = [&](const ObjectService& service) {
    EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
    EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
    for (int id = 0; id < trace.num_objects; ++id) {
      EXPECT_EQ(service.StatsFor(id)->scheme.mask(),
                reference.StatsFor(id)->scheme.mask())
          << "object " << id;
    }
  };

  const std::string dir = ::testing::TempDir() + "/executor_mixed_durable";
  DurabilityOptions durability;
  // About one auto-checkpoint every ten batches.
  durability.checkpoint_interval_events = 10 * kBatch;
  ScopedThreads threads(4);
  {
    ObjectService service(trace.num_processors, sc, service_options);
    ASSERT_TRUE(service.EnableDurability(dir, durability).ok());
    register_all(service);
    // `got` never reallocates, so in-flight results stay addressable.
    std::vector<BatchResult> got(calls.size());
    std::vector<BatchTicket> inflight;
    for (size_t c = 0; c < calls.size(); ++c) {
      switch (calls[c].entry) {
        case Entry::kSubmit: {
          BatchTicket ticket;
          ASSERT_TRUE(
              service.SubmitBatch(calls[c].events, &got[c], &ticket).ok());
          ASSERT_FALSE(ticket.completed);
          inflight.push_back(ticket);
          break;
        }
        case Entry::kServeInto:
          ASSERT_TRUE(service.ServeBatchInto(calls[c].events, &got[c]).ok());
          break;
        case Entry::kServeOne: {
          auto result = service.ServeBatch(calls[c].events);
          ASSERT_TRUE(result.ok());
          got[c] = *std::move(result);
          break;
        }
      }
      // Up to three tickets stay in flight; the oldest is waited only then,
      // often already finalized (stale) by a later submit or a checkpoint's
      // pipeline fence.
      if (inflight.size() > 3) {
        ASSERT_TRUE(service.WaitBatch(&inflight.front()).ok());
        inflight.erase(inflight.begin());
      }
    }
    ASSERT_TRUE(service.DrainBatches().ok());
    for (size_t c = 0; c < calls.size(); ++c) {
      ASSERT_EQ(got[c].costs, want[c].costs) << "call " << c;
      ASSERT_EQ(got[c].breakdown, want[c].breakdown) << "call " << c;
      ASSERT_EQ(got[c].cost, want[c].cost) << "call " << c;
    }
    expect_reference_state(service);
    ASSERT_TRUE(service.SyncDurable().ok());
  }

  RecoveryReport report;
  auto recovered = ObjectService::Recover(dir, durability, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(report.checkpoint_sequence, 1u) << "no auto-checkpoint fired";
  expect_reference_state(*recovered);
}

// The completion eventfd an event loop sleeps on: after a pipelined
// SubmitBatch the fd turns readable, BatchDone then holds, and WaitBatch
// returns without blocking. The fd survives an executor rebuild (thread
// count change), and the serial path has none.
TEST(ServicePipelineStressTest, CompletionFdSignalsEveryPipelinedBatch) {
  // The smallest batch the executor takes, 100 times.
  constexpr size_t kBatch = ObjectService::kInlineBatchEvents;
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 64;
  options.length = 100 * kBatch;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 91);
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);
  ServiceOptions service_options;
  service_options.num_shards = 16;

  ObjectService sync_service(trace.num_processors, sc, service_options);
  ObjectService pipe_service(trace.num_processors, sc, service_options);
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(sync_service.AddObject(id, TestConfig()).ok());
    ASSERT_TRUE(pipe_service.AddObject(id, TestConfig()).ok());
  }

  int fd = -1;
  std::span<const MultiObjectEvent> all(trace.events);
  for (size_t pos = 0; pos < all.size(); pos += kBatch) {
    // Rebuild the executor halfway: the fd an event loop registered must
    // keep signalling.
    ScopedThreads threads(pos < all.size() / 2 ? 4 : 2);
    const int current = pipe_service.CompletionFd();
    ASSERT_GE(current, 0);
    if (fd < 0) fd = current;
    ASSERT_EQ(current, fd);

    auto span = all.subspan(pos, std::min(kBatch, all.size() - pos));
    BatchResult result;
    BatchTicket ticket;
    ASSERT_TRUE(pipe_service.SubmitBatch(span, &result, &ticket).ok());
    ASSERT_FALSE(ticket.completed);
    while (!pipe_service.BatchDone(ticket)) {
      pollfd ready = {fd, POLLIN, 0};
      ASSERT_EQ(poll(&ready, 1, 10000), 1) << "no completion signalled";
      uint64_t counter = 0;
      ASSERT_EQ(read(fd, &counter, sizeof(counter)),
                static_cast<ssize_t>(sizeof(counter)));
    }
    ASSERT_TRUE(pipe_service.WaitBatch(&ticket).ok());

    auto sync_batch = sync_service.ServeBatch(span);
    ASSERT_TRUE(sync_batch.ok());
    ASSERT_EQ(result.costs, sync_batch->costs);
    ASSERT_EQ(result.breakdown, sync_batch->breakdown);
  }
  EXPECT_EQ(pipe_service.TotalBreakdown(), sync_service.TotalBreakdown());

  // Serial path: SubmitBatch always completes synchronously, so no fd.
  ScopedThreads serial(1);
  EXPECT_EQ(pipe_service.CompletionFd(), -1);
  ObjectService one_shard(trace.num_processors, sc,
                          ServiceOptions{.num_shards = 1});
  ScopedThreads parallel(4);
  EXPECT_EQ(one_shard.CompletionFd(), -1);
}

// The dispatch rule under threads: batches of sizes {1, k−1, k, 4k}
// (k = kInlineBatchEvents) in a seeded order, two in flight through a
// BatchPipeline. Only batches of at least k go to the executor (the others
// complete inside SubmitBatch, so they retire inside their own Submit), and
// a small batch served in place right behind a large one still on the
// workers must see every object in submission order: per-batch results,
// totals and schemes equal a 1-thread service fed the same batches.
// Between them run skewed executor batches, built by object so that they
// need no knowledge of the routing: every event on one object (one busy
// shard, the rest empty), on two objects (at most two busy shards), and
// one object's events with a single event of each of 15 others at spread
// indices, the first and the last included (many one-op shards). A worker
// returns each cost through its shard's op list and the merge copies it to
// the event's index, so these shapes exercise that copy at its edges.
TEST(ServicePipelineStressTest, DispatchSwitchMatchesSerial) {
  constexpr size_t k = ObjectService::kInlineBatchEvents;
  constexpr size_t kSizes[] = {1, k - 1, k, 4 * k};
  std::mt19937 rng(2024);
  std::vector<size_t> sizes(48);
  size_t length = 0;
  for (size_t& size : sizes) {
    size = kSizes[rng() % 4];
    length += size;
  }
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 64;
  options.length = length;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 17);
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);

  auto event_of = [&rng](ObjectId id) {
    const int p = static_cast<int>(rng() % 8);
    return MultiObjectEvent{id, rng() % 3 == 0 ? model::Request::Write(p)
                                               : model::Request::Read(p)};
  };
  std::vector<std::vector<MultiObjectEvent>> skewed(4);
  for (size_t i = 0; i < k; ++i) skewed[0].push_back(event_of(0));
  for (size_t i = 0; i < k + 1; ++i) skewed[1].push_back(event_of(63));
  for (size_t i = 0; i < k + 3; ++i) skewed[2].push_back(event_of(5 + i % 2));
  for (size_t i = 0; i < k + 5; ++i) skewed[3].push_back(event_of(1));
  for (size_t j = 0; j < 15; ++j) {
    skewed[3][j * (k + 4) / 14] = event_of(static_cast<ObjectId>(2 + j));
  }
  // One skewed batch after every twelfth random one.
  std::vector<std::span<const MultiObjectEvent>> batches;
  std::span<const MultiObjectEvent> all(trace.events);
  for (size_t pos = 0, b = 0; b < sizes.size(); pos += sizes[b++]) {
    batches.push_back(all.subspan(pos, sizes[b]));
    if (b % 12 == 11) batches.push_back(skewed[b / 12]);
  }

  auto register_all = [&trace](ObjectService& service) {
    for (int id = 0; id < trace.num_objects; ++id) {
      ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
    }
  };
  for (const int shards : {4, 16}) {
    ServiceOptions service_options;
    service_options.num_shards = shards;
    ScopedThreads serial(1);
    ObjectService reference(trace.num_processors, sc, service_options);
    register_all(reference);
    std::vector<BatchResult> want;
    for (std::span<const MultiObjectEvent> batch : batches) {
      auto result = reference.ServeBatch(batch);
      ASSERT_TRUE(result.ok());
      want.push_back(*std::move(result));
    }

    for (const int thread_count : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(thread_count));
      ScopedThreads threads(thread_count);
      ObjectService service(trace.num_processors, sc, service_options);
      register_all(service);
      std::vector<BatchResult> got(batches.size());
      std::vector<bool> in_place(batches.size(), false);
      size_t submitting = 0;
      {
        BatchPipeline<size_t> pipeline(&service);
        auto retire = [&](BatchPipeline<size_t>::Slot& slot,
                          const util::Status& status) {
          ASSERT_TRUE(status.ok());
          got[slot.tag] = slot.result;
          in_place[slot.tag] = slot.tag == submitting;
        };
        for (size_t b = 0; b < batches.size(); ++b) {
          submitting = b;
          size_t tag = b;
          ASSERT_TRUE(pipeline.Submit(batches[b], tag, retire).ok());
        }
        submitting = batches.size();
        ASSERT_TRUE(pipeline.Drain(retire).ok());
      }

      for (size_t b = 0; b < batches.size(); ++b) {
        EXPECT_EQ(in_place[b], batches[b].size() < k)
            << "batch " << b << " of " << batches[b].size() << " events";
        ASSERT_EQ(got[b].costs, want[b].costs) << "batch " << b;
        ASSERT_EQ(got[b].breakdown, want[b].breakdown) << "batch " << b;
        ASSERT_EQ(got[b].cost, want[b].cost) << "batch " << b;
      }
      EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
      EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
      for (int id = 0; id < trace.num_objects; ++id) {
        EXPECT_EQ(service.StatsFor(id)->scheme.mask(),
                  reference.StatsFor(id)->scheme.mask())
            << "object " << id;
      }
    }
  }
}

// ----------------------------------------------------------- BatchPipeline

// Batches of 10^5 events from this trace are still on the workers when
// the submitting thread looks again.
MultiObjectTrace PipelineTrace(size_t length) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 4096;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, 123);
}

// A 4-shard service with every object of `trace` registered.
ObjectService PipelineService(const MultiObjectTrace& trace) {
  ObjectService service(trace.num_processors,
                        model::CostModel::StationaryComputing(0.25, 1.0),
                        ServiceOptions{.num_shards = 4});
  for (int id = 0; id < trace.num_objects; ++id) {
    EXPECT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  return service;
}

int PipelineThreads() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
}

// Reap retires tickets oldest first and only those already done: a Reap
// loop over large pipelined batches keeps returning with a batch still in
// flight (it never waits one out), and the retire order is the submit
// order whether a batch retires in Reap or inside a later Submit.
TEST(BatchPipelineTest, ReapRetiresOldestFirstWithoutBlocking) {
  const MultiObjectTrace trace = PipelineTrace(400000);
  ScopedThreads threads(PipelineThreads());
  ObjectService service = PipelineService(trace);

  BatchPipeline<int> pipeline(&service);
  std::vector<int> retired;
  auto retire = [&retired](BatchPipeline<int>::Slot& slot,
                           const util::Status& status) {
    EXPECT_TRUE(status.ok());
    retired.push_back(slot.tag);
  };
  constexpr size_t kBatch = 100000;
  std::span<const MultiObjectEvent> all(trace.events);
  int submitted = 0;
  int reaps = 0;
  for (size_t pos = 0; pos < all.size(); pos += kBatch) {
    int tag = submitted++;
    ASSERT_TRUE(pipeline.Submit(all.subspan(pos, kBatch), tag, retire).ok());
    if (submitted % 2 == 1) continue;  // two in flight, then reap them
    while (retired.size() < static_cast<size_t>(submitted)) {
      ASSERT_TRUE(pipeline.Reap(retire).ok());
      ++reaps;
    }
  }
  ASSERT_EQ(retired.size(), static_cast<size_t>(submitted));
  for (int i = 0; i < submitted; ++i) EXPECT_EQ(retired[i], i);
  // A blocking Reap would empty the pipeline in one call per pair.
  EXPECT_GT(reaps, submitted / 2)
      << "Reap never returned with a batch in flight";
  EXPECT_EQ(service.TotalRequests(), static_cast<int64_t>(all.size()));
}

// Scope exit with batches in flight: the destructor waits them out, so the
// service is quiescent and every submitted event served.
TEST(BatchPipelineTest, DestructorDrainLeavesServiceQuiescent) {
  const MultiObjectTrace trace = PipelineTrace(200000);
  ScopedThreads threads(PipelineThreads());
  ObjectService service = PipelineService(trace);
  ObjectService reference = PipelineService(trace);
  std::span<const MultiObjectEvent> all(trace.events);
  {
    BatchPipeline<> pipeline(&service);
    auto ignore = [](BatchPipeline<>::Slot&, const util::Status&) {};
    ASSERT_TRUE(pipeline.Submit(all.first(100000), ignore).ok());
    ASSERT_TRUE(pipeline.Submit(all.subspan(100000), ignore).ok());
  }
  const ServiceLoad load = service.Load();
  EXPECT_EQ(load.inflight_batches, 0u);
  EXPECT_EQ(load.executor_queued_ops, 0u);
  ASSERT_TRUE(reference.ServeBatch(all).ok());
  EXPECT_EQ(service.TotalRequests(), static_cast<int64_t>(all.size()));
  EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
}

// Fault mode completes every batch inside SubmitBatch: each one retires
// within its own Submit, in the same slot (no flip), after the pipelined
// batch that was in flight when faults were enabled.
TEST(BatchPipelineTest, SynchronousBatchesRetireInPlace) {
  // Batch 0 must be large enough to go to the executor.
  constexpr size_t kBatch = ObjectService::kInlineBatchEvents;
  const MultiObjectTrace trace = PipelineTrace(20 * kBatch);
  ScopedThreads threads(PipelineThreads());
  ObjectService service = PipelineService(trace);

  BatchPipeline<int> pipeline(&service);
  std::vector<int> retired;
  std::vector<const BatchResult*> slots;
  auto retire = [&](BatchPipeline<int>::Slot& slot, const util::Status&) {
    retired.push_back(slot.tag);
    slots.push_back(&slot.result);
  };
  std::span<const MultiObjectEvent> all(trace.events);
  int tag = 0;
  ASSERT_TRUE(pipeline.Submit(all.first(kBatch), tag, retire).ok());
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
  for (int i = 1; i < 20; ++i) {
    tag = i;
    ASSERT_TRUE(
        pipeline.Submit(all.subspan(size_t(i) * kBatch, kBatch), tag, retire)
            .ok());
    ASSERT_EQ(retired.size(), static_cast<size_t>(i + 1)) << "batch " << i;
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(retired[i], i);
  // Batch 0 was pipelined into one slot; every fault-mode batch after it
  // reused the other one.
  for (size_t i = 2; i < slots.size(); ++i) EXPECT_EQ(slots[i], slots[1]);
  EXPECT_NE(slots[0], slots[1]);
  EXPECT_EQ(service.TotalRequests(), static_cast<int64_t>(20 * kBatch));
}

// A source that yields `full_batches` full batches of its trace, then
// fails.
class FailingSource : public workload::EventSource {
 public:
  FailingSource(const MultiObjectTrace& trace, size_t full_batches)
      : inner_(trace), remaining_(full_batches) {}
  int num_processors() const override { return inner_.num_processors(); }
  util::StatusOr<size_t> FillBatch(std::span<MultiObjectEvent> out) override {
    if (remaining_ == 0) return util::Status::Internal("source broke");
    --remaining_;
    return inner_.FillBatch(out);
  }

 private:
  workload::TraceEventSource inner_;
  size_t remaining_;
};

// ServeStream over a source that fails after k full batches, with the k-th
// still pipelined on the executor: the source's error comes back, the
// pipeline is drained, and exactly the k admitted batches were served.
TEST(ServicePipelineStressTest, StreamFailingMidwayDrains) {
  const MultiObjectTrace trace = PipelineTrace(100000);
  constexpr size_t kBatch = 8192;
  constexpr size_t kFullBatches = 5;
  for (int threads : {1, PipelineThreads()}) {
    ScopedThreads scope(threads);
    ObjectService service = PipelineService(trace);
    FailingSource source(trace, kFullBatches);
    auto result = service.ServeStream(source, kBatch);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
    EXPECT_EQ(result.status().message(), "source broke");
    EXPECT_EQ(service.Load().inflight_batches, 0u) << "threads " << threads;
    EXPECT_EQ(service.TotalRequests(),
              static_cast<int64_t>(kFullBatches * kBatch))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace objalloc::core
