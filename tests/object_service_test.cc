// The service layer's determinism contract: the sharded, batched
// ObjectService must be bit-identical to the serial ObjectManager for every
// shard count and every thread count, the streaming paths must equal the
// materialized path event for event, and admission must refuse a bad event
// on its own.

#include <algorithm>
#include <filesystem>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/object_manager.h"
#include "objalloc/core/object_service.h"
#include "objalloc/util/huge_pages.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/event_source.h"
#include "objalloc/workload/trace_io.h"

namespace objalloc::core {
namespace {

using model::CostModel;
using util::ScopedThreads;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

std::vector<int> ShardCounts() { return {1, 4, 16}; }
std::vector<int> ThreadCounts() { return {1, 2, util::GlobalThreads()}; }

MultiObjectTrace TestTrace(size_t length = 3000, uint64_t seed = 1234) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 64;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, seed);
}

ObjectConfig TestConfig(AlgorithmKind kind = AlgorithmKind::kDynamic) {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
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

TEST(ObjectServiceTest, ShardedBatchedMatchesSerialBitForBit) {
  constexpr size_t k = ObjectService::kInlineBatchEvents;
  const MultiObjectTrace trace = TestTrace(k + 2000);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  // Reference: the serial single-shard ObjectManager, request by request.
  ObjectManager reference(trace.num_processors, sc);
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
  }
  std::vector<double> reference_costs;
  for (const auto& event : trace.events) {
    auto cost = reference.Serve(event.object, event.request);
    ASSERT_TRUE(cost.ok());
    reference_costs.push_back(*cost);
  }

  for (int shards : ShardCounts()) {
    for (int threads : ThreadCounts()) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScopedThreads scope(threads);
      ServiceOptions options;
      options.num_shards = shards;
      ObjectService service(trace.num_processors, sc, options);
      RegisterObjects(service, trace, config);

      // Serve in a few differently sized batches to cross batch boundaries
      // and, at threads > 1, both dispatch paths: batches of at least k
      // events go to the shard executor, smaller ones are served in place.
      std::vector<double> costs;
      size_t position = 0;
      for (size_t batch_size : {k, size_t{700}, size_t{1}, size_t{1299}}) {
        auto result = service.ServeBatch(
            std::span<const MultiObjectEvent>(trace.events)
                .subspan(position, batch_size));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        costs.insert(costs.end(), result->costs.begin(),
                     result->costs.end());
        position += batch_size;
      }
      ASSERT_EQ(position, trace.events.size());

      // Per-event costs, submission order, bit-identical.
      ASSERT_EQ(costs.size(), reference_costs.size());
      for (size_t i = 0; i < costs.size(); ++i) {
        ASSERT_EQ(costs[i], reference_costs[i]) << "event " << i;
      }
      // Aggregates.
      EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
      EXPECT_EQ(service.TotalCost(), reference.TotalCost());
      EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
      // Per-object stats and final schemes.
      for (int id = 0; id < trace.num_objects; ++id) {
        auto got = service.StatsFor(id);
        auto want = reference.StatsFor(id);
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(got->requests, want->requests) << "object " << id;
        EXPECT_EQ(got->breakdown, want->breakdown) << "object " << id;
        EXPECT_EQ(got->scheme, want->scheme) << "object " << id;
      }
    }
  }
}

TEST(ObjectServiceTest, SingleEventBatchesMatchManager) {
  const MultiObjectTrace trace = TestTrace(500);
  const CostModel mc = CostModel::MobileComputing(0.5, 1.0);
  ObjectManager manager(trace.num_processors, mc);
  ServiceOptions options;
  options.num_shards = 7;  // not a divisor of anything interesting
  ObjectService service(trace.num_processors, mc, options);
  const ObjectConfig config = TestConfig();
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(manager.AddObject(id, config).ok());
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  for (const auto& event : trace.events) {
    auto want = manager.Serve(event.object, event.request);
    auto got = service.ServeBatch(std::span<const MultiObjectEvent>(&event, 1));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->costs[0], *want);
  }
  EXPECT_EQ(service.TotalBreakdown(), manager.TotalBreakdown());
}

// Serves `batch` and, on a fresh service with the same registrations, the
// batch without the events at `refused`: the refused events must get
// `outcome` and cost 0, and every other event the cost, and the service the
// state, that it has when the refused events are absent.
void ExpectRefusedAlone(int num_processors,
                        const std::vector<MultiObjectEvent>& batch,
                        const std::vector<size_t>& refused,
                        EventOutcome outcome) {
  const CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  ObjectService service(num_processors, sc);
  ObjectService reference(num_processors, sc);
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  ASSERT_TRUE(reference.AddObject(1, TestConfig()).ok());
  std::vector<MultiObjectEvent> valid;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (std::find(refused.begin(), refused.end(), i) == refused.end()) {
      valid.push_back(batch[i]);
    }
  }
  auto result = service.ServeBatch(batch);
  auto want = reference.ServeBatch(valid);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(result->outcome.size(), batch.size());
  EXPECT_EQ(result->refused, static_cast<int64_t>(refused.size()));
  EXPECT_EQ(result->unavailable, 0);
  size_t next_valid = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    if (std::find(refused.begin(), refused.end(), i) != refused.end()) {
      EXPECT_EQ(result->outcome[i], outcome);
      EXPECT_EQ(result->costs[i], 0.0);
    } else {
      EXPECT_EQ(result->outcome[i], EventOutcome::kServed);
      EXPECT_EQ(result->costs[i], want->costs[next_valid++]);
    }
  }
  EXPECT_EQ(result->breakdown, want->breakdown);
  EXPECT_EQ(service.TotalRequests(), static_cast<int64_t>(valid.size()));
  EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
  EXPECT_EQ(service.SchemeCrc(), reference.SchemeCrc());

  // ServeStream goes on past a refused event and counts it.
  ObjectService streamed(num_processors, sc);
  ASSERT_TRUE(streamed.AddObject(1, TestConfig()).ok());
  const MultiObjectTrace trace{num_processors, 1, batch};
  workload::TraceEventSource source(trace);
  auto stream = streamed.ServeStream(source, /*batch_size=*/2);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream->events, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(stream->refused, static_cast<int64_t>(refused.size()));
  EXPECT_EQ(stream->breakdown, want->breakdown);
  EXPECT_EQ(streamed.SchemeCrc(), reference.SchemeCrc());
}

TEST(ObjectServiceTest, BatchRefusesUnknownObjectPerEvent) {
  // Two valid events surround the unknown id: both are served.
  ExpectRefusedAlone(8,
                     {{1, model::Request::Read(0)},
                      {99, model::Request::Read(0)},
                      {1, model::Request::Write(2)}},
                     {1}, EventOutcome::kUnknownObject);
  // First and last, around a write that moves the scheme.
  ExpectRefusedAlone(8,
                     {{99, model::Request::Write(3)},
                      {1, model::Request::Write(5)},
                      {1, model::Request::Read(6)},
                      {-7, model::Request::Read(0)}},
                     {0, 3}, EventOutcome::kUnknownObject);
}

TEST(ObjectServiceTest, BatchRefusesOutOfRangeProcessorPerEvent) {
  ExpectRefusedAlone(4,
                     {{1, model::Request::Read(0)},
                      {1, model::Request::Write(7)}},
                     {1}, EventOutcome::kProcessorOutOfRange);
  ExpectRefusedAlone(4, {{1, model::Request::Read(-1)}}, {0},
                     EventOutcome::kProcessorOutOfRange);
  // processor == num_processors first, a negative one in the middle.
  ExpectRefusedAlone(4,
                     {{1, model::Request::Write(4)},
                      {1, model::Request::Write(3)},
                      {1, model::Request::Read(-2)},
                      {1, model::Request::Read(2)}},
                     {0, 2}, EventOutcome::kProcessorOutOfRange);
}

// A directory bucket keeps a 32-bit hash tag, not the id: admission takes
// the slot of the first tag match on trust, and the serve confirms it
// against the slot's record. `present` and `absent` share the tag — so the
// shard too, picked by the tag's low bits — and the home bucket of a
// 16-bucket table, every shard's first. With only `present` registered,
// events on `absent` must be refused as unknown, not served against
// `present`; once `absent` is registered behind it, its events must reach
// its own slot. On the in-place path, the executor path and in fault mode.
TEST(ObjectServiceTest, FalseTagMatchesAreRefusedOrRerouted) {
  using util::FlatDirectory;
  std::vector<std::pair<uint32_t, ObjectId>> by_tag;
  by_tag.reserve(size_t{1} << 20);
  for (ObjectId id = 0; id < (ObjectId{1} << 20); ++id) {
    by_tag.emplace_back(FlatDirectory::Tag(FlatDirectory::Hash(id)), id);
  }
  std::sort(by_tag.begin(), by_tag.end());
  ObjectId present = -1;
  ObjectId absent = -1;
  for (size_t i = 1; i < by_tag.size() && present < 0; ++i) {
    const ObjectId a = by_tag[i - 1].second;
    const ObjectId b = by_tag[i].second;
    if (by_tag[i - 1].first == by_tag[i].first &&
        FlatDirectory::Hash(a) >> 60 == FlatDirectory::Hash(b) >> 60) {
      present = a;
      absent = b;
    }
  }
  ASSERT_GE(present, 0) << "no tag-and-home pair among 2^20 ids";

  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  for (const int threads : {1, 4}) {
    for (const bool faulty : {false, true}) {
      for (const size_t length :
           {size_t{8}, ObjectService::kInlineBatchEvents}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " faulty=" + std::to_string(faulty) +
                     " length=" + std::to_string(length));
        ScopedThreads scope(threads);
        ObjectService service(8, sc, ServiceOptions{.num_shards = 4});
        if (faulty) {
          ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
        }
        ASSERT_TRUE(service.AddObject(present, TestConfig()).ok());
        std::vector<MultiObjectEvent> events;
        for (size_t i = 0; i < length; ++i) {
          const int p = static_cast<int>(i % 8);
          events.push_back({i % 2 == 0 ? present : absent,
                            i % 3 == 0 ? model::Request::Write(p)
                                       : model::Request::Read(p)});
        }
        const auto half = static_cast<int64_t>(length / 2);
        auto first = service.ServeBatch(events);
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        EXPECT_EQ(first->refused, half);
        for (size_t i = 1; i < length; i += 2) {
          ASSERT_EQ(first->outcome[i], EventOutcome::kUnknownObject) << i;
          ASSERT_EQ(first->costs[i], 0.0) << i;
        }
        EXPECT_EQ(service.StatsFor(present)->requests, half);

        ASSERT_TRUE(service.AddObject(absent, TestConfig()).ok());
        auto second = service.ServeBatch(events);
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        EXPECT_EQ(second->refused, 0);
        EXPECT_EQ(service.StatsFor(present)->requests, 2 * half);
        EXPECT_EQ(service.StatsFor(absent)->requests, half);
      }
    }
  }
}

TEST(ObjectServiceTest, AddObjectValidationMatchesManagerRules) {
  ObjectService service(8, CostModel::StationaryComputing(0.5, 1.0));
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
  EXPECT_TRUE(service.AddObject(1, config).ok());
  EXPECT_FALSE(service.AddObject(1, config).ok()) << "duplicate id";
  config.initial_scheme = ProcessorSet{};
  EXPECT_FALSE(service.AddObject(2, config).ok()) << "empty scheme";
  config.initial_scheme = ProcessorSet{0, 63};
  EXPECT_FALSE(service.AddObject(3, config).ok()) << "outside the system";
  config.initial_scheme = ProcessorSet{0};
  config.algorithm = AlgorithmKind::kDynamic;
  EXPECT_FALSE(service.AddObject(4, config).ok()) << "DA needs t >= 2";
  EXPECT_EQ(service.object_count(), 1u);
  EXPECT_TRUE(service.HasObject(1));
  EXPECT_FALSE(service.HasObject(4));
}

TEST(EventSourceTest, GeneratorSourceEqualsMaterializedTrace) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 32;
  options.length = 1777;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 42);

  workload::GeneratorEventSource source(options, 42);
  EXPECT_EQ(source.num_processors(), options.num_processors);
  std::vector<MultiObjectEvent> streamed;
  std::vector<MultiObjectEvent> buffer(100);
  while (true) {
    auto filled = source.FillBatch(buffer);
    ASSERT_TRUE(filled.ok());
    if (*filled == 0) break;
    streamed.insert(streamed.end(), buffer.begin(),
                    buffer.begin() + static_cast<ptrdiff_t>(*filled));
  }
  ASSERT_EQ(streamed.size(), trace.events.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].object, trace.events[i].object);
    EXPECT_EQ(streamed[i].request, trace.events[i].request);
  }
  // Exhausted sources stay exhausted.
  auto again = source.FillBatch(buffer);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(EventSourceTest, TraceStreamRoundTripsIdenticallyToMaterializedPath) {
  const MultiObjectTrace trace = TestTrace(800, 77);
  std::ostringstream out;
  workload::WriteMultiObjectTrace(trace, out);

  // Materialized read-back (itself built on the stream source).
  std::istringstream materialized_in(out.str());
  auto materialized = workload::ReadMultiObjectTrace(materialized_in);
  ASSERT_TRUE(materialized.ok());
  ASSERT_EQ(materialized->events.size(), trace.events.size());

  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  // Path A: the whole materialized trace in one batch.
  ObjectService batch_service(trace.num_processors, sc);
  RegisterObjects(batch_service, trace, config);
  auto batch = batch_service.ServeBatch(materialized->events);
  ASSERT_TRUE(batch.ok());

  // Path B: streamed from the text format with a small bounded buffer.
  std::istringstream stream_in(out.str());
  workload::TraceStreamEventSource source(stream_in);
  ASSERT_TRUE(source.ReadHeader().ok());
  EXPECT_EQ(source.num_processors(), trace.num_processors);
  EXPECT_EQ(source.num_objects(), trace.num_objects);
  ObjectService stream_service(trace.num_processors, sc);
  RegisterObjects(stream_service, trace, config);
  auto streamed = stream_service.ServeStream(source, /*batch_size=*/64);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_EQ(streamed->events, static_cast<int64_t>(trace.events.size()));
  EXPECT_EQ(streamed->batches, (trace.events.size() + 63) / 64);
  EXPECT_EQ(streamed->breakdown, batch->breakdown);
  EXPECT_EQ(streamed->cost, batch->cost);
  EXPECT_EQ(stream_service.TotalBreakdown(), batch_service.TotalBreakdown());
  for (int id = 0; id < trace.num_objects; ++id) {
    EXPECT_EQ(stream_service.StatsFor(id)->scheme,
              batch_service.StatsFor(id)->scheme);
  }
}

TEST(EventSourceTest, TraceStreamRejectsMalformedInput) {
  {
    std::istringstream in("garbage header\n");
    workload::TraceStreamEventSource source(in);
    EXPECT_FALSE(source.ReadHeader().ok());
    std::vector<MultiObjectEvent> buffer(4);
    EXPECT_FALSE(source.FillBatch(buffer).ok()) << "failed source stays failed";
  }
  {
    std::istringstream in("multiobject processors 4 objects 2\n5 r0\n");
    workload::TraceStreamEventSource source(in);
    std::vector<MultiObjectEvent> buffer(4);
    auto filled = source.FillBatch(buffer);
    ASSERT_FALSE(filled.ok());
    EXPECT_EQ(filled.status().code(), util::StatusCode::kOutOfRange);
  }
  {
    workload::TraceFileEventSource source("/nonexistent/trace.txt");
    std::vector<MultiObjectEvent> buffer(4);
    auto filled = source.FillBatch(buffer);
    ASSERT_FALSE(filled.ok());
    EXPECT_EQ(filled.status().code(), util::StatusCode::kNotFound);
  }
}

TEST(ObjectServiceTest, StreamingServesGeneratorInBoundedMemory) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = 48;
  options.length = 5000;
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();

  // Materialized reference.
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 9001);
  ObjectService reference(options.num_processors, sc);
  reference.ReserveObjects(static_cast<size_t>(options.num_objects));
  for (int id = 0; id < options.num_objects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, config).ok());
  }
  auto want = reference.ServeBatch(trace.events);
  ASSERT_TRUE(want.ok());

  // Streaming run, never materializing more than 256 events.
  workload::GeneratorEventSource source(options, 9001);
  ServiceOptions sharded;
  sharded.num_shards = 16;
  ObjectService service(options.num_processors, sc, sharded);
  service.ReserveObjects(static_cast<size_t>(options.num_objects));
  for (int id = 0; id < options.num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  auto got = service.ServeStream(source, /*batch_size=*/256);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->events, static_cast<int64_t>(options.length));
  EXPECT_EQ(got->breakdown, want->breakdown);
  EXPECT_EQ(got->cost, want->cost);
}

TEST(ObjectServiceTest, IncrementalTotalsMatchPerObjectSums) {
  const MultiObjectTrace trace = TestTrace(1000, 5);
  const CostModel sc = CostModel::StationaryComputing(0.3, 0.7);
  ServiceOptions options;
  options.num_shards = 4;
  ObjectService service(trace.num_processors, sc, options);
  RegisterObjects(service, trace, TestConfig());
  ASSERT_TRUE(service.ServeBatch(trace.events).ok());

  model::CostBreakdown summed;
  int64_t requests = 0;
  const std::vector<ObjectId> ids = service.SortedObjectIds();
  EXPECT_EQ(ids.size(), static_cast<size_t>(trace.num_objects));
  for (ObjectId id : ids) {
    auto stats = service.StatsFor(id);
    ASSERT_TRUE(stats.ok());
    summed += stats->breakdown;
    requests += stats->requests;
  }
  EXPECT_EQ(service.TotalBreakdown(), summed);
  EXPECT_EQ(service.TotalRequests(), requests);
  EXPECT_EQ(service.TotalCost(), summed.Cost(sc));
}

TEST(ObjectServiceTest, MixedAlgorithmsAcrossShards) {
  const CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  ServiceOptions options;
  options.num_shards = 4;
  ObjectService service(8, sc, options);
  ASSERT_TRUE(service.AddObject(1, TestConfig(AlgorithmKind::kDynamic)).ok());
  ASSERT_TRUE(service.AddObject(2, TestConfig(AlgorithmKind::kStatic)).ok());
  std::vector<MultiObjectEvent> batch = {
      {1, model::Request::Read(6)},
      {2, model::Request::Read(6)},
  };
  ASSERT_TRUE(service.ServeBatch(batch).ok());
  // DA saves at the reader, SA does not; objects stay isolated.
  EXPECT_TRUE(service.StatsFor(1)->scheme.Contains(6));
  EXPECT_FALSE(service.StatsFor(2)->scheme.Contains(6));
}

// Tables of 2 MiB and more sit on huge pages: a shard's directory from about
// 100K objects in that shard, its slab when a Reserve or a snapshot restore
// adds 16 or more pages at once. That is a layout choice only: a service
// whose tables are mapped — reserved up front, then restored from a
// checkpoint — serves bit-identically to one grown page by page.
TEST(ObjectServiceTest, HugePageBackedTablesServeIdentically) {
  workload::MultiObjectOptions trace_options;
  trace_options.num_processors = 8;
  trace_options.num_objects = 200000;
  trace_options.length = 60000;
  const MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(trace_options, 4321);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();
  const ServiceOptions options{.num_shards = 2};

  ObjectService mapped(trace.num_processors, sc, options);
  const uint64_t made = util::HugePageMappingsMade();
  mapped.ReserveObjects(static_cast<size_t>(trace.num_objects));
  EXPECT_EQ(util::HugePageMappingsMade(), made + 4)
      << "one directory and one slab run per shard";
  ObjectService grown(trace.num_processors, sc, options);
  for (int id = 0; id < trace.num_objects; ++id) {
    ASSERT_TRUE(mapped.AddObject(id, config).ok());
    ASSERT_TRUE(grown.AddObject(id, config).ok());
  }
  const std::span<const MultiObjectEvent> events(trace.events);
  const auto serve_both = [&](ObjectService& service,
                               std::span<const MultiObjectEvent> part) {
    auto got = service.ServeBatch(part);
    auto want = grown.ServeBatch(part);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->costs, want->costs);
    EXPECT_EQ(got->breakdown, want->breakdown);
  };
  serve_both(mapped, events.first(40000));
  EXPECT_EQ(mapped.SchemeCrc(), grown.SchemeCrc());

  const std::string dir = ::testing::TempDir() + "/huge_page_restore";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(mapped.EnableDurability(dir).ok());
  ASSERT_TRUE(mapped.DisableDurability().ok());
  const uint64_t before_recover = util::HugePageMappingsMade();
  auto recovered = ObjectService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(util::HugePageMappingsMade(), before_recover + 4)
      << "the restore reserves each shard's directory and run";
  EXPECT_EQ(recovered->SchemeCrc(), grown.SchemeCrc());
  serve_both(*recovered, events.subspan(40000));
  EXPECT_EQ(recovered->SchemeCrc(), grown.SchemeCrc());
  EXPECT_EQ(recovered->TotalBreakdown(), grown.TotalBreakdown());
  ASSERT_TRUE(recovered->DisableDurability().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace objalloc::core
