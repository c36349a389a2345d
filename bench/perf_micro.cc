// Experiment E11 — engineering microbenchmarks (google-benchmark): online
// step throughput of the DOM algorithms, exact-OPT DP scaling in the system
// size and in the thread count, the polynomial brackets, and simulator
// request throughput. Not a paper artifact; documents the library's own
// performance envelope.
//
// Machine-readable runs: pass the standard google-benchmark flags
//   perf_micro --benchmark_out=BENCH_perf.json --benchmark_out_format=json
// and check the artifact into the repo root so the perf trajectory
// accumulates across PRs (see also bench/parallel_scaling.cc).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <benchmark/benchmark.h>

#include "objalloc/core/adaptive_allocation.h"
#include "objalloc/core/batch_pipeline.h"
#include "objalloc/core/checkpoint.h"
#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/object_service.h"
#include "objalloc/core/runner.h"
#include "objalloc/core/shard_executor.h"
#include "objalloc/core/static_allocation.h"
#include "objalloc/opt/exact_opt.h"
#include "objalloc/opt/interval_opt.h"
#include "objalloc/opt/relaxation_lower_bound.h"
#include "objalloc/sim/simulator.h"
#include "objalloc/util/crc32.h"
#include "objalloc/util/flat_directory.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/rng.h"
#include "objalloc/util/spsc_queue.h"
#include "objalloc/workload/multi_object.h"
#include "objalloc/workload/uniform.h"
#include "objalloc/workload/zipf_objects.h"

namespace {

using namespace objalloc;

model::Schedule MakeSchedule(int n, size_t length) {
  workload::UniformWorkload uniform(0.7);
  return uniform.Generate(n, length, 1234);
}

void BM_SaOnlineRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Schedule schedule = MakeSchedule(n, 1000);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    core::StaticAllocation sa;
    benchmark::DoNotOptimize(
        core::RunWithCost(sa, sc, schedule, model::ProcessorSet{0, 1}).cost);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SaOnlineRun)->Arg(8)->Arg(32);

void BM_DaOnlineRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Schedule schedule = MakeSchedule(n, 1000);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    core::DynamicAllocation da;
    benchmark::DoNotOptimize(
        core::RunWithCost(da, sc, schedule, model::ProcessorSet{0, 1}).cost);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DaOnlineRun)->Arg(8)->Arg(32);

void BM_AdaptiveOnlineRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Schedule schedule = MakeSchedule(n, 1000);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    core::AdaptiveAllocation adaptive(sc, core::AdaptiveOptions{});
    benchmark::DoNotOptimize(
        core::RunWithCost(adaptive, sc, schedule, model::ProcessorSet{0, 1})
            .cost);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_AdaptiveOnlineRun)->Arg(8)->Arg(32);

// Exponential in n: the DP over allocation schemes.
void BM_ExactOptDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Schedule schedule = MakeSchedule(n, 200);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::ExactOptCost(sc, schedule, model::ProcessorSet{0, 1}));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ExactOptDp)->DenseRange(6, 14, 2);

// The DP at a size where the per-request transitions split across the pool;
// the argument is the thread count.
void BM_ExactOptDpParallel(benchmark::State& state) {
  util::ScopedThreads threads(static_cast<int>(state.range(0)));
  model::Schedule schedule = MakeSchedule(16, 100);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::ExactOptCost(sc, schedule, model::ProcessorSet{0, 1}));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ExactOptDpParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RelaxationLowerBound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Schedule schedule = MakeSchedule(n, 1000);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::RelaxationLowerBound(sc, schedule, model::ProcessorSet{0, 1}));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RelaxationLowerBound)->Arg(16)->Arg(48);

void BM_IntervalOpt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Schedule schedule = MakeSchedule(n, 1000);
  model::CostModel sc = model::CostModel::StationaryComputing(0.5, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::IntervalOptCost(sc, schedule, model::ProcessorSet{0, 1}));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalOpt)->Arg(16)->Arg(48);

// ---- Hot-path serving engine (DESIGN.md §8) -------------------------------

workload::MultiObjectTrace ServiceTrace(size_t length) {
  workload::MultiObjectOptions options;
  options.num_processors = 16;
  options.num_objects = 256;
  options.length = length;
  options.popularity_skew = 0.9;
  return workload::GenerateMultiObjectTrace(options, 0x5eed);
}

core::ObjectConfig InlineConfig(core::AlgorithmKind kind) {
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet{0, 1};
  config.algorithm = kind;
  return config;
}

// The devirtualized per-request core: inline SA/DA dispatch through
// ObjectShard::ServeSlot, no routing, no batching — the ceiling every
// higher layer is measured against. Arg: 0 = SA, 1 = DA.
void BM_ShardServeInline(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? core::AlgorithmKind::kStatic
                                        : core::AlgorithmKind::kDynamic;
  const workload::MultiObjectTrace trace = ServiceTrace(4096);
  core::ObjectShard shard(16, model::CostModel::StationaryComputing(0.25, 1.0));
  for (int id = 0; id < 256; ++id) {
    if (!shard.AddObject(id, InlineConfig(kind)).ok()) std::abort();
  }
  for (auto _ : state) {
    double total = 0;
    for (const auto& event : trace.events) {
      total += shard.ServeSlot(static_cast<uint32_t>(event.object),
                               event.request, nullptr);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * trace.events.size());
}
BENCHMARK(BM_ShardServeInline)->Arg(0)->Arg(1);

// Id-addressed batch path: admission hashes each event through the route
// directory. Arg: shard count.
void BM_ServiceBatchIdPath(benchmark::State& state) {
  util::ScopedThreads threads(1);
  const workload::MultiObjectTrace trace = ServiceTrace(8192);
  core::ServiceOptions options;
  options.num_shards = static_cast<int>(state.range(0));
  core::ObjectService service(
      16, model::CostModel::StationaryComputing(0.25, 1.0), options);
  service.ReserveObjects(256);
  for (int id = 0; id < 256; ++id) {
    if (!service.AddObject(id, InlineConfig(core::AlgorithmKind::kDynamic))
             .ok()) {
      std::abort();
    }
  }
  core::BatchResult result;
  for (auto _ : state) {
    util::Status status = service.ServeBatchInto(
        std::span<const workload::MultiObjectEvent>(trace.events), &result);
    if (!status.ok()) std::abort();
    benchmark::DoNotOptimize(result.cost);
  }
  state.SetItemsProcessed(state.iterations() * trace.events.size());
}
BENCHMARK(BM_ServiceBatchIdPath)->Arg(1)->Arg(16);

// ---- Shard-owned executor (DESIGN.md §11) ---------------------------------

// Raw SPSC ring cost, single-threaded: push a burst, pop a burst — the
// per-task overhead floor of the per-shard queues, with both counters
// bouncing between the producer and consumer cache lines of one core.
// Arg: burst size (= ring capacity).
void BM_SpscEnqueueDequeue(benchmark::State& state) {
  const size_t burst = static_cast<size_t>(state.range(0));
  util::SpscQueue<core::ShardTask> queue(burst);
  for (auto _ : state) {
    for (size_t i = 0; i < burst; ++i) {
      const bool pushed = queue.TryPush(
          core::ShardTask{static_cast<uint32_t>(i), 0});
      benchmark::DoNotOptimize(pushed);
    }
    core::ShardTask task;
    while (queue.TryPop(&task)) benchmark::DoNotOptimize(task.context);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(burst));
}
BENCHMARK(BM_SpscEnqueueDequeue)->Arg(4)->Arg(64);

// Submit -> Wait round-trip through the executor with one tiny task per
// shard: measures the handoff machinery itself (wake, pop, completion
// countdown), not the serving work — the fixed cost a batch must amortize
// before shard parallelism pays. Arg: shard count (= task fan-out).
void BM_ExecutorBatchHandoff(benchmark::State& state) {
  const size_t shards_n = static_cast<size_t>(state.range(0));
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);
  std::vector<core::ObjectShard> shards;
  shards.reserve(shards_n);
  for (size_t s = 0; s < shards_n; ++s) {
    core::ObjectShard shard(16, sc);
    if (!shard.AddObject(static_cast<core::ObjectId>(s),
                         InlineConfig(core::AlgorithmKind::kDynamic))
             .ok()) {
      std::abort();
    }
    shards.push_back(std::move(shard));
  }
  core::ShardExecutor executor(shards.data(), shards.size(),
                               util::GlobalThreads());
  uint64_t n = 0;
  for (auto _ : state) {
    const uint32_t slot = executor.Acquire();
    core::BatchContext& context = executor.context(slot);
    for (size_t s = 0; s < shards_n; ++s) {
      context.ops[s].push_back(core::ShardOp{
          static_cast<uint32_t>(s), 0, static_cast<core::ObjectId>(s),
          n % 2 == 0 ? model::Request::Read(static_cast<int>(n % 16))
                     : model::Request::Write(static_cast<int>(n % 16))});
      ++n;
    }
    executor.Submit(slot);
    executor.Wait(slot);
    benchmark::DoNotOptimize(context.ops[0][0].cost);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(shards_n));
}
BENCHMARK(BM_ExecutorBatchHandoff)->Arg(4)->Arg(16);

// SubmitBatch's dispatch rule as a pipelining caller sees it: 16 shards,
// 4 threads, two batches in flight through a BatchPipeline. Batches below
// kInlineBatchEvents are served in place on this thread, larger ones on
// the executor, so the rates at kInlineBatchEvents - 1 and
// kInlineBatchEvents check the constant's derivation: a step between them
// means the crossover lies elsewhere. Wall-clock rates, since the
// executor's work runs on other threads. Arg: batch size.
void BM_SubmitBatchDispatch(benchmark::State& state) {
  util::ScopedThreads threads(4);
  const size_t batch = static_cast<size_t>(state.range(0));
  const workload::MultiObjectTrace trace = ServiceTrace(8192);
  core::ServiceOptions options;
  options.num_shards = 16;
  core::ObjectService service(
      16, model::CostModel::StationaryComputing(0.25, 1.0), options);
  service.ReserveObjects(256);
  for (int id = 0; id < 256; ++id) {
    if (!service.AddObject(id, InlineConfig(core::AlgorithmKind::kDynamic))
             .ok()) {
      std::abort();
    }
  }
  core::BatchPipeline<> pipeline(&service);
  auto retire = [](core::BatchPipeline<>::Slot& slot,
                   const util::Status& status) {
    if (!status.ok()) std::abort();
    benchmark::DoNotOptimize(slot.result.cost);
  };
  const std::span<const workload::MultiObjectEvent> all(trace.events);
  size_t pos = 0;
  for (auto _ : state) {
    if (pos + batch > all.size()) pos = 0;
    if (!pipeline.Submit(all.subspan(pos, batch), retire).ok()) std::abort();
    pos += batch;
  }
  if (!pipeline.Drain(retire).ok()) std::abort();
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_SubmitBatchDispatch)
    ->Arg(64)
    ->Arg(256)
    ->Arg(core::ObjectService::kInlineBatchEvents - 1)
    ->Arg(core::ObjectService::kInlineBatchEvents)
    ->Arg(4096)
    ->UseRealTime();

// The serve path on a working set larger than the caches, shaped like the
// perfbench inproc_engine workload: 2^22 objects (~360 MB of slot records
// and shard directories) over 16 processors and 16 shards, Zipf theta 0.6
// object popularity, 4096-event batches pipelined through a BatchPipeline.
// Nearly every event misses cache on its directory bucket and slot record,
// which the hot-object benchmarks above (256 objects) never do — this is
// the benchmark ObjectShard::kPrefetchDistance is chosen on. The service
// is built once and shared by both Args; wall-clock rates, since at 3
// threads the serving runs on executor workers. Arg: threads.
struct ColdObjects {
  static constexpr int64_t kObjects = int64_t{1} << 22;
  static constexpr size_t kPoolEvents = size_t{1} << 20;
  static constexpr size_t kBatch = 4096;

  ColdObjects() {
    core::ServiceOptions options;
    options.num_shards = 16;
    service = std::make_unique<core::ObjectService>(
        16, model::CostModel::StationaryComputing(0.25, 1.0), options);
    workload::ZipfObjectOptions zipf;
    zipf.num_processors = 16;
    zipf.num_objects = kObjects;
    zipf.skew = 0.6;
    workload::ZipfObjectGenerator generator(zipf, 0x5eed);
    service->ReserveObjects(static_cast<size_t>(kObjects));
    core::ObjectConfig config;
    config.algorithm = core::AlgorithmKind::kDynamic;
    for (int64_t id = 0; id < kObjects; ++id) {
      config.initial_scheme = generator.PersonalityFor(id).HomeSet();
      if (!service->AddObject(id, config).ok()) std::abort();
    }
    pool.resize(kPoolEvents);
    for (workload::MultiObjectEvent& event : pool) event = generator.Next();
  }

  std::unique_ptr<core::ObjectService> service;
  std::vector<workload::MultiObjectEvent> pool;
};

void BM_ServiceBatchColdObjects(benchmark::State& state) {
  static ColdObjects cold;
  util::ScopedThreads threads(static_cast<int>(state.range(0)));
  core::BatchPipeline<> pipeline(cold.service.get());
  auto retire = [](core::BatchPipeline<>::Slot& slot,
                   const util::Status& status) {
    if (!status.ok()) std::abort();
    benchmark::DoNotOptimize(slot.result.cost);
  };
  const std::span<const workload::MultiObjectEvent> all(cold.pool);
  size_t pos = 0;
  for (auto _ : state) {
    if (pos + ColdObjects::kBatch > all.size()) pos = 0;
    if (!pipeline.Submit(all.subspan(pos, ColdObjects::kBatch), retire).ok()) {
      std::abort();
    }
    pos += ColdObjects::kBatch;
  }
  if (!pipeline.Drain(retire).ok()) std::abort();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ColdObjects::kBatch));
}
BENCHMARK(BM_ServiceBatchColdObjects)->Arg(1)->Arg(3)->UseRealTime();

// The TCP server's check of a wire kBatch frame
// (ObjectService::FirstRefusal): 32-event batches, the frames
// tcp_durable_ingest sends, of Zipf .9 ids over 10^6 objects in 16 shards
// (about 84 MB of records and directories). Every event is valid, so each
// check runs to the batch's end.
void BM_ServiceFirstRefusal(benchmark::State& state) {
  constexpr int64_t kObjects = 1'000'000;
  constexpr size_t kBatch = 32;
  static const auto* const objects = [] {
    struct Objects {
      std::unique_ptr<core::ObjectService> service;
      std::vector<workload::MultiObjectEvent> pool;
    };
    auto* built = new Objects;
    built->service = std::make_unique<core::ObjectService>(
        16, model::CostModel::StationaryComputing(0.25, 1.0),
        core::ServiceOptions{.num_shards = 16});
    workload::ZipfObjectOptions zipf;
    zipf.num_processors = 16;
    zipf.num_objects = kObjects;
    zipf.skew = 0.9;
    workload::ZipfObjectGenerator generator(zipf, 0x5eed);
    built->service->ReserveObjects(static_cast<size_t>(kObjects));
    core::ObjectConfig config;
    config.algorithm = core::AlgorithmKind::kDynamic;
    for (int64_t id = 0; id < kObjects; ++id) {
      config.initial_scheme = generator.PersonalityFor(id).HomeSet();
      if (!built->service->AddObject(id, config).ok()) std::abort();
    }
    built->pool.resize(size_t{1} << 20);
    for (workload::MultiObjectEvent& event : built->pool) {
      event = generator.Next();
    }
    return built;
  }();
  const std::span<const workload::MultiObjectEvent> all(objects->pool);
  size_t pos = 0;
  for (auto _ : state) {
    if (pos + kBatch > all.size()) pos = 0;
    const core::ObjectService::Refusal refusal =
        objects->service->FirstRefusal(all.subspan(pos, kBatch));
    if (refusal.index != kBatch) std::abort();
    benchmark::DoNotOptimize(refusal);
    pos += kBatch;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ServiceFirstRefusal);

// The directory layer alone, cold: the id → slot probe on a table far
// larger than the caches. 2^22 keys (2^23 8-byte buckets, a 64 MiB table
// on 2 MiB pages; all of inproc_engine's shard directories together),
// probed by uniformly random keys in 4096-key batches. Each key is hashed
// once, ahead of its probe, and the hash starts the bucket's prefetch.
// Arg 0 is admission's probe (ObjectShard::CandidateSlotHashed): the tag
// match alone, the bucket fetched kPrefetchDistance keys ahead. Arg 1 is
// a confirmed FindHashed: a bucket holds no key, so each hit confirms its
// tag match against a 2^22-entry key array (32 MiB) that stands in for the
// slab's SlotRecord::id, fetched in two stages — the bucket 2·D keys ahead;
// then, D keys ahead, the line of the key its tag match names.
void BM_FlatDirectoryFindCold(benchmark::State& state) {
  using Directory = util::FlatDirectory;
  const bool confirm = state.range(0) != 0;
  constexpr int64_t kKeys = int64_t{1} << 22;
  constexpr size_t kBatch = 4096;
  constexpr size_t kAhead = core::ObjectShard::kPrefetchDistance;
  constexpr size_t kRing = 2 * kAhead;
  // Value v stands for the key ids[v]; the directory maps ids[v] → v.
  static const std::vector<int64_t> ids = [] {
    std::vector<int64_t> keys(static_cast<size_t>(kKeys));
    for (int64_t v = 0; v < kKeys; ++v) keys[static_cast<size_t>(v)] = v;
    return keys;
  }();
  const auto key_of = [](uint32_t value) { return ids[value]; };
  static const Directory* directory = [&] {
    auto* table = new Directory();
    table->Reserve(static_cast<size_t>(kKeys), key_of);
    for (int64_t key = 0; key < kKeys; ++key) {
      table->Insert(key, static_cast<uint32_t>(key), key_of);
    }
    return table;
  }();
  static const std::vector<int64_t> probes = [] {
    std::vector<int64_t> keys(size_t{1} << 20);
    util::Rng rng(0xd1ec);
    for (int64_t& key : keys) {
      key = static_cast<int64_t>(rng.NextBounded(kKeys));
    }
    return keys;
  }();
  const size_t bucket_ahead = confirm ? kRing : kAhead;
  size_t pos = 0;
  uint64_t hashes[kRing] = {};
  for (auto _ : state) {
    if (pos + kBatch > probes.size()) pos = 0;
    const int64_t* batch = probes.data() + pos;
    pos += kBatch;
    const auto hash_ahead = [&](size_t i) {
      const uint64_t hash = Directory::Hash(batch[i]);
      directory->PrefetchHash(hash);
      hashes[i % kRing] = hash;
    };
    const auto key_ahead = [&](size_t i) {
      const uint32_t value = directory->CandidateHashed(hashes[i % kRing]);
      if (value != Directory::kNotFound) __builtin_prefetch(&ids[value]);
    };
    for (size_t i = 0; i < bucket_ahead; ++i) hash_ahead(i);
    if (confirm) {
      for (size_t i = 0; i < kAhead; ++i) key_ahead(i);
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t hash = hashes[i % kRing];
      if (i + bucket_ahead < kBatch) hash_ahead(i + bucket_ahead);
      if (confirm) {
        if (i + kAhead < kBatch) key_ahead(i + kAhead);
        sum += directory->FindHashed(batch[i], hash, key_of);
      } else {
        sum += directory->CandidateHashed(hash);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_FlatDirectoryFindCold)->Arg(0)->Arg(1);

// Bulk registration cost with and without ReserveObjects: reserved
// registration does O(1) amortized rehashes across every internal table.
// Arg: 1 = call ReserveObjects first, 0 = grow incrementally.
void BM_ServiceRegistration(benchmark::State& state) {
  const bool reserve = state.range(0) != 0;
  constexpr int kObjects = 4096;
  core::ServiceOptions options;
  options.num_shards = 16;
  for (auto _ : state) {
    core::ObjectService service(
        16, model::CostModel::StationaryComputing(0.25, 1.0), options);
    if (reserve) service.ReserveObjects(kObjects);
    for (int id = 0; id < kObjects; ++id) {
      if (!service.AddObject(id, InlineConfig(core::AlgorithmKind::kDynamic))
               .ok()) {
        std::abort();
      }
    }
    benchmark::DoNotOptimize(service.object_count());
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}
BENCHMARK(BM_ServiceRegistration)->Arg(0)->Arg(1);

// ---- Integrity checksum ---------------------------------------------------

// util::Crc32 over the spans the serving path checksums. A frame's CRC
// covers its 12 header bytes after the CRC field plus the payload: 28 bytes
// for a kRead request, 436 for a 32-event kBatch request (8 + 32 × 13
// payload bytes); a checkpoint chunk is CheckpointWriter::kChunkBytes.
// Arg: bytes per call.
void BM_Crc32(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<unsigned char> buffer(size);
  util::Rng rng(1234);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.Next());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = util::Crc32(buffer.data(), buffer.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_Crc32)
    ->Arg(28)
    ->Arg(63)   // the longest span on the sliced loop alone
    ->Arg(64)   // the shortest the carry-less fold takes
    ->Arg(436)
    ->Arg(core::CheckpointWriter::kChunkBytes);

void BM_SimulatorRequests(benchmark::State& state) {
  const bool dynamic = state.range(0) != 0;
  model::Schedule schedule = MakeSchedule(16, 1000);
  for (auto _ : state) {
    sim::SimulatorOptions options;
    options.protocol =
        dynamic ? sim::ProtocolKind::kDynamic : sim::ProtocolKind::kStatic;
    options.num_processors = 16;
    options.initial_scheme = model::ProcessorSet{0, 1};
    sim::Simulator simulator(options);
    benchmark::DoNotOptimize(simulator.RunSchedule(schedule).served);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorRequests)->Arg(0)->Arg(1);

}  // namespace
