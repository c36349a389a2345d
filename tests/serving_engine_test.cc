// The devirtualized serving engine's contracts (DESIGN.md §8): the inline
// SA/DA dispatch in ObjectShard is bit-identical to the virtual reference
// classes, the batch path is bit-identical to the serial ObjectManager for
// every shard x thread configuration (also at every batch size around the
// prefetch look-ahead), and the steady-state batch path performs zero heap
// allocations (asserted through a global operator-new counting hook) and
// makes zero huge-page mappings (util::HugePageMappingsMade, which the hook
// cannot see).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/batch_pipeline.h"
#include "objalloc/core/dom_algorithm.h"
#include "objalloc/core/object_manager.h"
#include "objalloc/core/object_service.h"
#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_evaluator.h"
#include "objalloc/util/huge_pages.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/rng.h"
#include "objalloc/workload/multi_object.h"

// Global allocation counter: every scalar operator new bumps it (the array
// forms delegate here by default). The zero-allocation test reads the delta
// across a measured region; everything else just pays one relaxed add.
static std::atomic<int64_t> g_heap_allocations{0};

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

// Over-aligned types (the 64-byte-aligned slab records) allocate through
// the aligned forms; they count too.
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* ptr = std::aligned_alloc(alignment, rounded ? rounded : alignment))
    return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace objalloc::core {
namespace {

using model::CostModel;
using util::ScopedThreads;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

MultiObjectTrace TestTrace(size_t length = 4000, uint64_t seed = 77) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 48;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, seed);
}

ObjectConfig TestConfig(AlgorithmKind kind = AlgorithmKind::kDynamic) {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1, 2};
  config.algorithm = kind;
  return config;
}

void RegisterObjects(ObjectService& service, const MultiObjectTrace& trace,
                     const ObjectConfig& config) {
  service.ReserveObjects(static_cast<size_t>(trace.num_objects));
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
}

// The engine's core identity: the inline SA/DA switch in ObjectShard must
// be the same function as the virtual DomAlgorithm reference path, request
// for request — exact double equality, exact breakdowns, exact schemes.
TEST(ServingEngineTest, InlineDispatchMatchesVirtualReference) {
  const MultiObjectTrace trace = TestTrace();
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  for (AlgorithmKind kind : {AlgorithmKind::kStatic, AlgorithmKind::kDynamic}) {
    SCOPED_TRACE(AlgorithmKindToString(kind));
    const ObjectConfig config = TestConfig(kind);

    ObjectShard shard(trace.num_processors, sc);
    // Reference: one virtual algorithm instance per object, stepped through
    // the model-layer cost evaluator exactly as the pre-devirtualization
    // serving path did.
    struct Reference {
      std::unique_ptr<DomAlgorithm> algorithm;
      ProcessorSet scheme;
      model::CostBreakdown breakdown;
    };
    std::vector<Reference> references(trace.num_objects);
    for (int id = 0; id < trace.num_objects; ++id) {
      ASSERT_TRUE(shard.AddObject(id, config).ok());
      references[id].algorithm = CreateAlgorithm(kind, sc);
      references[id].algorithm->Reset(trace.num_processors,
                                      config.initial_scheme);
      references[id].scheme = config.initial_scheme;
    }

    for (const MultiObjectEvent& event : trace.events) {
      Reference& ref = references[event.object];
      Decision decision = ref.algorithm->Step(event.request);
      model::AllocatedRequest entry{event.request, decision.execution_set,
                                    event.request.is_read() &&
                                        decision.saving};
      const model::CostBreakdown expected =
          model::RequestBreakdown(entry, ref.scheme);
      ref.scheme = model::NextScheme(ref.scheme, entry);
      ref.breakdown += expected;

      auto cost = shard.Serve(event.object, event.request);
      ASSERT_TRUE(cost.ok());
      EXPECT_EQ(*cost, expected.Cost(sc));
    }
    for (int id = 0; id < trace.num_objects; ++id) {
      auto stats = shard.StatsFor(id);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->scheme.mask(), references[id].scheme.mask());
      EXPECT_EQ(stats->breakdown, references[id].breakdown);
    }
  }
}

// The engine serves only the paper's SA and DA: every entry point refuses
// any other kind at registration, so no fault-mode or durability path ever
// meets one.
TEST(ServingEngineTest, RegistrationAcceptsOnlySaAndDa) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig adaptive = TestConfig(AlgorithmKind::kAdaptive);
  ObjectShard shard(8, sc);
  ObjectManager manager(8, sc);
  ObjectService service(8, sc);
  EXPECT_EQ(shard.AddObject(1, adaptive).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.AddObject(1, adaptive).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.AddObject(1, adaptive).code(),
            util::StatusCode::kInvalidArgument);
}

// Batched serving must be bit-identical to the serial ObjectManager for
// every shard count and thread count, per-event costs included. Batches
// hold kInlineBatchEvents events, so at threads > 1 they go to the shard
// executor; the shorter last batch is served in place.
TEST(ServingEngineTest, BatchPathMatchesManagerBitForBit) {
  constexpr size_t kBatch = ObjectService::kInlineBatchEvents;
  const MultiObjectTrace trace = TestTrace(7 * kBatch + kBatch / 2);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  ObjectManager reference(trace.num_processors, sc);
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
  }
  std::vector<double> reference_costs;
  reference_costs.reserve(trace.events.size());
  for (const MultiObjectEvent& event : trace.events) {
    auto cost = reference.Serve(event.object, event.request);
    ASSERT_TRUE(cost.ok());
    reference_costs.push_back(*cost);
  }

  for (int shards : {1, 4, 16}) {
    for (int threads : {1, 2, util::GlobalThreads()}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScopedThreads scope(threads);
      ServiceOptions options;
      options.num_shards = shards;

      ObjectService service(trace.num_processors, sc, options);
      RegisterObjects(service, trace, config);

      std::span<const MultiObjectEvent> events(trace.events);
      size_t event_index = 0;
      for (size_t pos = 0; pos < trace.events.size(); pos += kBatch) {
        const size_t n = std::min(kBatch, trace.events.size() - pos);
        auto batch = service.ServeBatch(events.subspan(pos, n));
        ASSERT_TRUE(batch.ok());
        ASSERT_EQ(batch->costs.size(), n);
        for (size_t i = 0; i < n; ++i, ++event_index) {
          ASSERT_EQ(batch->costs[i], reference_costs[event_index]);
        }
      }
      EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
      EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
      for (int id = 0; id < trace.num_objects; ++id) {
        EXPECT_EQ(service.StatsFor(id)->scheme.mask(),
                  reference.StatsFor(id)->scheme.mask());
      }
    }
  }
}

// Every batch loop fetches records ObjectShard::kPrefetchDistance events
// ahead (admission, the in-place serve loops, both executor branches). The
// look-ahead must stop at the end of the batch or sub-batch, and must never
// change a result: batches of every size around the distance and around
// kInlineBatchEvents, served largest first so each smaller batch runs over
// a routes_ / op-list buffer still holding the larger batch's stale tail,
// must match a serial one-event-per-batch reference on per-event costs and
// outcomes, per-object scheme and breakdown, and SchemeCrc. Every batch
// also carries refused events (an unknown id, processor == n, processor
// -1) first, mid-batch, last and within the distance of its end, whose
// routes no loop may follow. Covered in place at one thread and on the
// executor at 3 threads over 16 shards, each plain and in zero-crash-rate
// fault mode.
TEST(ServingEngineTest, PrefetchBoundaryBatchesMatchSerialReference) {
  constexpr size_t kDistance = ObjectShard::kPrefetchDistance;
  constexpr size_t kInline = ObjectService::kInlineBatchEvents;
  std::vector<size_t> sizes = {kInline + kDistance, kInline, kInline - 1};
  for (size_t n = 2 * kDistance + 1;; --n) {
    sizes.push_back(n);
    if (n == 0) break;
  }
  size_t total = 0;
  for (size_t n : sizes) total += n;
  const MultiObjectTrace trace = TestTrace(total, 2024);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();
  std::vector<MultiObjectEvent> stream = trace.events;
  const MultiObjectEvent refused[] = {
      {trace.num_objects, model::Request::Read(0)},
      {0, model::Request::Write(trace.num_processors)},
      {1, model::Request::Read(-1)}};
  size_t kind = 0;
  for (size_t pos = 0, b = 0; b < sizes.size(); pos += sizes[b++]) {
    const size_t n = sizes[b];
    for (size_t at : {size_t{0}, n / 2, n - kDistance / 2, n - 1}) {
      if (at < n) stream[pos + at] = refused[kind++ % 3];
    }
  }
  const std::span<const MultiObjectEvent> events(stream);

  // Serial reference: one shard, one thread, one event per batch — no
  // batch ever has an event kDistance ahead.
  ScopedThreads serial(1);
  ObjectService reference(trace.num_processors, sc);
  RegisterObjects(reference, trace, config);
  std::vector<double> reference_costs;
  std::vector<EventOutcome> reference_outcomes;
  for (size_t i = 0; i < events.size(); ++i) {
    auto batch = reference.ServeBatch(events.subspan(i, 1));
    ASSERT_TRUE(batch.ok());
    reference_costs.push_back(batch->costs[0]);
    reference_outcomes.push_back(batch->outcome[0]);
  }
  const auto served = std::count(reference_outcomes.begin(),
                                 reference_outcomes.end(),
                                 EventOutcome::kServed);
  ASSERT_EQ(reference.TotalRequests(), served);
  ASSERT_LT(static_cast<size_t>(served), events.size());

  struct Setup {
    int threads;
    int shards;
  };
  for (const Setup setup : {Setup{1, 4}, Setup{3, 16}}) {
    for (bool faulty : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(setup.threads) +
                   " shards=" + std::to_string(setup.shards) +
                   (faulty ? " fault mode" : " plain"));
      ScopedThreads scope(setup.threads);
      ObjectService service(trace.num_processors, sc,
                            ServiceOptions{.num_shards = setup.shards});
      RegisterObjects(service, trace, config);
      if (faulty) {
        ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
      }
      size_t pos = 0;
      for (size_t n : sizes) {
        SCOPED_TRACE("batch size " + std::to_string(n));
        // FirstRefusal names the batch's first caller-error refusal.
        size_t first_refused = 0;
        while (first_refused < n &&
               reference_outcomes[pos + first_refused] ==
                   EventOutcome::kServed) {
          ++first_refused;
        }
        const ObjectService::Refusal refusal =
            service.FirstRefusal(events.subspan(pos, n));
        ASSERT_EQ(refusal.index, first_refused);
        ASSERT_EQ(refusal.outcome, first_refused < n
                                       ? reference_outcomes[pos + first_refused]
                                       : EventOutcome::kServed);
        auto batch = service.ServeBatch(events.subspan(pos, n));
        ASSERT_TRUE(batch.ok());
        ASSERT_EQ(batch->costs.size(), n);
        int64_t batch_refused = 0;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batch->costs[i], reference_costs[pos + i]);
          ASSERT_EQ(batch->outcome[i], reference_outcomes[pos + i]);
          batch_refused += batch->outcome[i] != EventOutcome::kServed;
        }
        EXPECT_EQ(batch->refused, batch_refused);
        pos += n;
      }
      EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
      EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
      EXPECT_EQ(service.SchemeCrc(), reference.SchemeCrc());
      for (int id = 0; id < trace.num_objects; ++id) {
        auto stats = service.StatsFor(id);
        auto expected = reference.StatsFor(id);
        ASSERT_TRUE(stats.ok() && expected.ok());
        EXPECT_EQ(stats->scheme.mask(), expected->scheme.mask());
        EXPECT_EQ(stats->breakdown, expected->breakdown);
      }
    }
  }
}

// The scratch-arena contract: after one warm-up batch, repeated batches
// allocate nothing — ServeStream's inner loop equivalent (ServeBatchInto
// with recycled storage) on the serial path.
TEST(ServingEngineTest, SteadyStateBatchesDoNotAllocate) {
  const MultiObjectTrace trace = TestTrace(2048);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ScopedThreads scope(1);  // the serial in-place path (see header comment)

  ObjectService service(trace.num_processors, sc,
                        ServiceOptions{.num_shards = 4});
  RegisterObjects(service, trace, TestConfig());

  std::span<const MultiObjectEvent> id_span(trace.events);
  BatchResult result;
  // Warm-up: sizes routes_ and result->costs to the maximal batch.
  ASSERT_TRUE(service.ServeBatchInto(id_span, &result).ok());

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  const uint64_t mappings = util::HugePageMappingsMade();
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(service.ServeBatchInto(id_span, &result).ok());
    ASSERT_EQ(service.FirstRefusal(id_span).index, id_span.size());
  }
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state ServeBatchInto and FirstRefusal must not touch the "
         "heap";
  EXPECT_EQ(util::HugePageMappingsMade(), mappings);
}

// The same contract on the shard-executor path (threads > 1): once the
// worker pool is up and every pipeline context has served the maximal
// batch, both the synchronous entry and the pipelined entry — driven
// through BatchPipeline, whose slots and callbacks are part of the
// contract — are allocation-free: the per-shard op lists, the per-context
// scratch, and the SPSC rings are all warm fixed-capacity storage.
TEST(ServingEngineTest, SteadyStateExecutorBatchesDoNotAllocate) {
  // Twice the smallest batch the executor takes.
  const MultiObjectTrace trace =
      TestTrace(2 * ObjectService::kInlineBatchEvents);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ScopedThreads scope(2);  // engages the executor path

  ObjectService service(trace.num_processors, sc,
                        ServiceOptions{.num_shards = 4});
  RegisterObjects(service, trace, TestConfig());

  std::span<const MultiObjectEvent> id_span(trace.events);
  BatchResult result;
  BatchPipeline<> pipeline(&service);
  int64_t retired = 0;
  auto retire = [&retired](BatchPipeline<>::Slot&, const util::Status&) {
    ++retired;
  };
  // Warm-up: spin up the executor, then cycle every pipeline context
  // twice through the maximal batch on both entries so each context's
  // per-shard op lists reach steady capacity (contexts are visited
  // round-robin, so 2 x depth batches guarantee two visits each).
  ASSERT_TRUE(service.ServeBatchInto(id_span, &result).ok());
  const size_t rounds = 2 * ShardExecutor::kDefaultDepth;
  for (size_t round = 0; round < rounds; ++round) {
    ASSERT_TRUE(service.ServeBatchInto(id_span, &result).ok());
    ASSERT_TRUE(pipeline.Submit(id_span, retire).ok());
  }
  ASSERT_TRUE(pipeline.Drain(retire).ok());

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  const uint64_t mappings = util::HugePageMappingsMade();
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(service.ServeBatchInto(id_span, &result).ok());
    ASSERT_TRUE(pipeline.Submit(id_span, retire).ok());
    // The TCP server's kBatch check, with a batch in flight.
    ASSERT_EQ(service.FirstRefusal(id_span).index, id_span.size());
    ASSERT_TRUE(pipeline.Reap(retire).ok());
  }
  ASSERT_TRUE(pipeline.Drain(retire).ok());
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state executor batches must not touch the heap";
  EXPECT_EQ(util::HugePageMappingsMade(), mappings);
  EXPECT_EQ(retired, static_cast<int64_t>(rounds) + 10);
}

// ReserveObjects pre-sizes every table a registration touches — each
// shard's directory and slot pages, the free lists — so a registration
// burst inside the reserved envelope never touches the heap. This is the
// contract that makes pre-sized million-object loads O(1) allocations. The
// population is large enough that the reservation maps huge-page tables
// (every shard's directory and slab run), so the gate covers the mapped
// arrays too.
TEST(ServingEngineTest, PostReserveRegistrationDoesNotAllocate) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ScopedThreads scope(1);  // serial path: no executor to spin up

  ObjectService service(8, sc, ServiceOptions{.num_shards = 4});
  const int kObjects = 1 << 19;
  const uint64_t unreserved = util::HugePageMappingsMade();
  service.ReserveObjects(static_cast<size_t>(kObjects));
  const uint64_t mappings = util::HugePageMappingsMade();
  ASSERT_EQ(mappings - unreserved, 8u) << "4 shard directories + 4 slab runs";
  const ObjectConfig config = TestConfig();

  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "a post-reserve registration burst must not touch the heap";
  EXPECT_EQ(util::HugePageMappingsMade(), mappings);
  EXPECT_EQ(service.object_count(), static_cast<size_t>(kObjects));
}

static_assert(!std::is_copy_constructible_v<ObjectShard>,
              "a copy would share the original's slab pages");
static_assert(!std::is_copy_assignable_v<ObjectShard>);

// Slot records never move: a Reserve run followed by single-page growth,
// and moves of the shard itself (construction and assignment), leave every
// slot's state where the next serve finds it. A reference shard grown page
// by page serves the same stream.
TEST(ServingEngineTest, SlabRunsKeepSlotsAcrossGrowthAndMoves) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();
  // 16 pages of 2048 slots: exactly one 2 MiB run.
  constexpr int kReserved = 16 * 2048;
  constexpr int kObjects = kReserved + 3 * 2048 + 5;

  const uint64_t made = util::HugePageMappingsMade();
  const uint64_t live = util::HugePageMappingsLive();
  ObjectShard reference(8, sc);
  ObjectShard shard(8, sc);
  shard.Reserve(kReserved);
  EXPECT_EQ(util::HugePageMappingsMade(), made + 1);
  for (int id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
    ASSERT_TRUE(shard.AddObject(id, config).ok());
  }
  // The growth past the run went page by page: no further mapping.
  EXPECT_EQ(util::HugePageMappingsMade(), made + 1);

  util::Rng rng(91);
  const auto serve_round = [&](ObjectShard& served) {
    for (int i = 0; i < 20000; ++i) {
      const auto id = static_cast<ObjectId>(rng.NextBounded(kObjects));
      const auto p = static_cast<ProcessorId>(rng.NextBounded(8));
      const Request request =
          rng.NextBounded(4) == 0 ? Request::Write(p) : Request::Read(p);
      auto expected = reference.Serve(id, request);
      auto cost = served.Serve(id, request);
      ASSERT_TRUE(expected.ok() && cost.ok());
      ASSERT_EQ(*cost, *expected);
    }
  };
  serve_round(shard);
  ObjectShard moved(std::move(shard));
  serve_round(moved);
  std::optional<ObjectShard> holder(std::in_place, 8, sc);
  *holder = std::move(moved);
  serve_round(*holder);
  for (uint32_t slot = 0; slot < holder->slot_span(); ++slot) {
    const ObjectStats got = holder->StatsAt(slot);
    const ObjectStats want = reference.StatsAt(slot);
    ASSERT_EQ(got.scheme.mask(), want.scheme.mask()) << "slot " << slot;
    ASSERT_EQ(got.breakdown, want.breakdown) << "slot " << slot;
    ASSERT_EQ(got.requests, want.requests) << "slot " << slot;
  }
  EXPECT_EQ(util::HugePageMappingsMade(), made + 1);
  EXPECT_EQ(util::HugePageMappingsLive(), live + 1);
  holder.reset();
  EXPECT_EQ(util::HugePageMappingsLive(), live);
}

// ReserveObjects is a pure capacity hint: identical results with and
// without it.
TEST(ServingEngineTest, ReserveObjectsDoesNotChangeResults) {
  const MultiObjectTrace trace = TestTrace(1500);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  ObjectService reserved(trace.num_processors, sc,
                         ServiceOptions{.num_shards = 4});
  RegisterObjects(reserved, trace, config);
  ObjectService unreserved(trace.num_processors, sc,
                           ServiceOptions{.num_shards = 4});
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(unreserved.AddObject(id, config).ok());
  }

  auto a = reserved.ServeBatch(std::span<const MultiObjectEvent>(trace.events));
  auto b =
      unreserved.ServeBatch(std::span<const MultiObjectEvent>(trace.events));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->breakdown, b->breakdown);
  EXPECT_EQ(a->costs, b->costs);
  for (int id = 0; id < trace.num_objects; ++id) {
    EXPECT_EQ(reserved.StatsFor(id)->scheme.mask(),
              unreserved.StatsFor(id)->scheme.mask());
  }
}

}  // namespace
}  // namespace objalloc::core
