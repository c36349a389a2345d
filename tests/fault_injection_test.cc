// Fault-tolerant serving: the deterministic chaos path of ObjectService.
//
// Covers the four contracts of DESIGN.md §9: (1) the zero-fault chaos path
// is bit-identical to the plain engine at every shard x thread
// configuration; (2) crashes eagerly scrub schemes and repair restores
// t-availability with saving-read-priced re-replication; (3) admission
// degrades gracefully — whole-batch kUnavailable below t live processors
// (replayable after recovery), per-event refusal for crashed issuers —
// matching the simulator's semantics count for count under shared failure
// plans; (4) message loss is charged deterministically. The
// AvailabilityInvariant (|scheme ∩ live| >= t) is armed throughout and a
// randomized crash/recover fuzz hammers it across 10k seeds.

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/object_service.h"
#include "objalloc/sim/failure.h"
#include "objalloc/sim/multi_object_sim.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/event_source.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {
namespace {

using util::ProcessorSet;

const model::CostModel kModel = model::CostModel::StationaryComputing(0.25,
                                                                      1.0);

workload::MultiObjectTrace MakeTrace(int num_processors, int num_objects,
                                     size_t length, uint64_t seed) {
  workload::MultiObjectOptions options;
  options.num_processors = num_processors;
  options.num_objects = num_objects;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, seed);
}

// A mixed SA/DA service: even ids static on {0,1,2} (t=3), odd ids dynamic
// on {0,1} (t=2).
ObjectService MakeMixedService(int num_processors, int num_objects,
                               int num_shards) {
  ServiceOptions options;
  options.num_shards = num_shards;
  ObjectService service(num_processors, kModel, options);
  for (int id = 0; id < num_objects; ++id) {
    ObjectConfig config;
    if (id % 2 == 0) {
      config.algorithm = AlgorithmKind::kStatic;
      config.initial_scheme = ProcessorSet{0, 1, 2};
    } else {
      config.algorithm = AlgorithmKind::kDynamic;
      config.initial_scheme = ProcessorSet{0, 1};
    }
    EXPECT_TRUE(service.AddObject(id, config).ok());
  }
  return service;
}

// Per-object schemes in ascending id order — the full allocation state.
std::vector<ProcessorSet> Schemes(const ObjectService& service) {
  std::vector<ProcessorSet> schemes;
  for (ObjectId id : service.SortedObjectIds()) {
    auto stats = service.StatsFor(id);
    EXPECT_TRUE(stats.ok());
    schemes.push_back(stats->scheme);
  }
  return schemes;
}

TEST(FaultInjectionTest, ZeroFaultPathBitIdenticalAcrossConfigurations) {
  const workload::MultiObjectTrace trace = MakeTrace(8, 48, 20000, 0x5eed);
  util::ScopedThreads serial(1);
  ObjectService baseline = MakeMixedService(8, 48, 1);
  auto want = baseline.ServeBatch(trace.events);
  ASSERT_TRUE(want.ok());
  const std::vector<ProcessorSet> want_schemes = Schemes(baseline);

  for (int shards : {1, 4, 16}) {
    for (int threads : {1, 2, 0}) {  // 0 = hardware concurrency
      util::ScopedThreads scope(threads);
      for (bool submit : {false, true}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     (submit ? " SubmitBatch" : " ServeBatch"));
        ObjectService service = MakeMixedService(8, 48, shards);
        ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
        service.set_check_invariant(true);
        BatchResult got;
        if (submit) {
          // Fault mode serves SubmitBatch synchronously: the ticket comes
          // back completed and the result is already final.
          BatchTicket ticket;
          util::Status status = service.SubmitBatch(trace.events, &got,
                                                    &ticket);
          ASSERT_TRUE(status.ok()) << status.ToString();
          EXPECT_TRUE(ticket.completed);
        } else {
          auto served = service.ServeBatch(trace.events);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          got = *std::move(served);
        }
        EXPECT_EQ(got.costs, want->costs);
        EXPECT_EQ(got.breakdown, want->breakdown);
        EXPECT_EQ(got.cost, want->cost);
        EXPECT_EQ(got.unavailable, 0);
        EXPECT_EQ(Schemes(service), want_schemes);
        const FaultStats& stats = service.fault_stats();
        EXPECT_EQ(stats.crashes, 0);
        EXPECT_EQ(stats.repairs, 0);
        EXPECT_EQ(stats.lost_control + stats.lost_data, 0);
        EXPECT_EQ(stats.unavailable_requests, 0);
      }
    }
  }
}

TEST(FaultInjectionTest, CrashScrubsAndRepairRestoresAvailabilityDynamic) {
  ObjectService service(4, kModel);
  ObjectConfig config;
  config.algorithm = AlgorithmKind::kDynamic;
  config.initial_scheme = ProcessorSet{0, 1};
  ASSERT_TRUE(service.AddObject(7, config).ok());
  FaultSchedule schedule = {FaultEvent::Crash(0, 1)};
  ASSERT_TRUE(
      service.EnableFaults(FaultInjectorOptions{}, schedule).ok());
  service.set_check_invariant(true);

  std::vector<workload::MultiObjectEvent> batch{{7, model::Request::Read(0)}};
  auto result = service.ServeBatch(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The crash scrubbed {0,1} down to {0}; entry repair re-replicated onto
  // the lowest live non-member (2), charged as one saving-read {1,1,2};
  // the member read itself cost one input.
  EXPECT_EQ(result->breakdown.control_messages, 1);
  EXPECT_EQ(result->breakdown.data_messages, 1);
  EXPECT_EQ(result->breakdown.io_ops, 3);
  auto stats = service.StatsFor(7);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->scheme, (ProcessorSet{0, 2}));
  const FaultStats& fs = service.fault_stats();
  EXPECT_EQ(fs.crashes, 1);
  EXPECT_EQ(fs.repairs, 1);
  EXPECT_EQ(fs.replicas_added, 1);
  ASSERT_EQ(fs.repair_latency.size(), 1u);
  EXPECT_EQ(fs.repair_latency[0], 2.0);  // two hops, no retransmissions
  EXPECT_EQ(service.degraded_count(), 0u);
}

TEST(FaultInjectionTest, CrashScrubsAndRepairRestoresAvailabilityStatic) {
  ObjectService service(4, kModel);
  ObjectConfig config;
  config.algorithm = AlgorithmKind::kStatic;
  config.initial_scheme = ProcessorSet{0, 1};
  ASSERT_TRUE(service.AddObject(3, config).ok());
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{},
                                   {FaultEvent::Crash(0, 1)})
                  .ok());
  service.set_check_invariant(true);

  std::vector<workload::MultiObjectEvent> batch{
      {3, model::Request::Write(0)}};
  auto result = service.ServeBatch(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Repair {1,1,2} + member write over the repaired Q = {0,2}: one data
  // transfer, two outputs.
  EXPECT_EQ(result->breakdown.control_messages, 1);
  EXPECT_EQ(result->breakdown.data_messages, 2);
  EXPECT_EQ(result->breakdown.io_ops, 4);
  auto stats = service.StatsFor(3);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->scheme, (ProcessorSet{0, 2}));
}

TEST(FaultInjectionTest, BelowThresholdRejectsAtomicallyAndReplays) {
  ObjectService service(3, kModel);
  ObjectConfig config;
  config.algorithm = AlgorithmKind::kDynamic;
  config.initial_scheme = ProcessorSet{0, 1};
  ASSERT_TRUE(service.AddObject(1, config).ok());
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
  service.set_check_invariant(true);
  ASSERT_TRUE(service.Crash(1).ok());
  ASSERT_TRUE(service.Crash(2).ok());
  ASSERT_EQ(service.live_processors(), ProcessorSet{0});

  std::vector<workload::MultiObjectEvent> batch{
      {1, model::Request::Read(0)}, {1, model::Request::Write(0)}};
  auto rejected = service.ServeBatch(batch);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  // Atomic: nothing was served, nothing charged.
  EXPECT_EQ(service.TotalRequests(), 0);
  EXPECT_EQ(service.TotalBreakdown(), model::CostBreakdown());
  EXPECT_EQ(service.fault_stats().rejected_batches, 1);

  // After recovery the same batch succeeds: entry repair restores two live
  // replicas and both events serve.
  ASSERT_TRUE(service.Recover(1).ok());
  auto replay = service.ServeBatch(batch);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->unavailable, 0);
  EXPECT_EQ(service.TotalRequests(), 2);
  auto stats = service.StatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->scheme.Size(), 2);
}

TEST(FaultInjectionTest, CrashedIssuerIsRefusedIndividually) {
  ObjectService service(4, kModel);
  ObjectConfig config;
  config.algorithm = AlgorithmKind::kDynamic;
  config.initial_scheme = ProcessorSet{0, 1};
  ASSERT_TRUE(service.AddObject(0, config).ok());
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
  ASSERT_TRUE(service.Crash(3).ok());  // three live >= t: batch admitted

  std::vector<workload::MultiObjectEvent> batch{
      {0, model::Request::Read(3)}, {0, model::Request::Read(0)}};
  auto result = service.ServeBatch(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->outcome.size(), 2u);
  EXPECT_EQ(result->outcome[0], EventOutcome::kIssuerDown);
  EXPECT_EQ(result->outcome[1], EventOutcome::kServed);
  EXPECT_EQ(result->costs[0], 0.0);
  EXPECT_EQ(result->unavailable, 1);
  EXPECT_EQ(service.fault_stats().unavailable_requests, 1);
  EXPECT_EQ(service.TotalRequests(), 1);  // the refused event left no trace
}

TEST(FaultInjectionTest, MessageLossIsDeterministicAndCharged) {
  const workload::MultiObjectTrace trace = MakeTrace(8, 48, 4000, 0x10c1);
  util::ScopedThreads serial(1);
  ObjectService plain = MakeMixedService(8, 48, 1);
  auto clean = plain.ServeBatch(trace.events);
  ASSERT_TRUE(clean.ok());
  const std::vector<ProcessorSet> clean_schemes = Schemes(plain);

  FaultInjectorOptions options;
  options.seed = 42;
  options.control_loss_rate = 0.3;
  options.data_loss_rate = 0.2;

  bool first = true;
  BatchResult want;
  for (int shards : {1, 8}) {
    for (int threads : {1, 0}) {
      util::ScopedThreads scope(threads);
      ObjectService service = MakeMixedService(8, 48, shards);
      ASSERT_TRUE(service.EnableFaults(options).ok());
      service.set_check_invariant(true);
      auto got = service.ServeBatch(trace.events);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (first) {
        want = *got;
        first = false;
        // Loss only adds retransmissions: more messages than the clean run,
        // identical I/O, identical schemes.
        EXPECT_GT(want.breakdown.control_messages,
                  clean->breakdown.control_messages);
        EXPECT_GT(want.breakdown.data_messages,
                  clean->breakdown.data_messages);
        EXPECT_EQ(want.breakdown.io_ops, clean->breakdown.io_ops);
        const FaultStats& stats = service.fault_stats();
        EXPECT_GT(stats.lost_control, 0);
        EXPECT_GT(stats.lost_data, 0);
        EXPECT_GT(stats.backoff_units, 0);
        EXPECT_EQ(stats.crashes, 0);
      } else {
        EXPECT_EQ(got->costs, want.costs)
            << "shards=" << shards << " threads=" << threads;
        EXPECT_EQ(got->breakdown, want.breakdown);
        EXPECT_EQ(got->cost, want.cost);
      }
      EXPECT_EQ(Schemes(service), clean_schemes);
    }
  }
}

// Crashed issuers on the executor path: a fault batch of at least
// kInlineBatchEvents is served by the shard workers, and a refused event
// never reaches them, so its cost stays 0 while every served event's cost
// comes back through its shard. Results, schemes and fault counters match
// the one-shard serial run at every configuration; repair-latency samples
// merge in shard order, so they match as a multiset.
TEST(FaultInjectionTest, CrashedIssuersMatchSerialOnTheExecutor) {
  constexpr size_t kBatch = ObjectService::kInlineBatchEvents + 1;
  const workload::MultiObjectTrace trace = MakeTrace(8, 48, 6 * kBatch, 0xc4a5);
  FaultInjectorOptions options;
  options.seed = 7;
  options.control_loss_rate = 0.05;
  options.data_loss_rate = 0.05;
  // Processor 1 is in every initial scheme, so its crash starts repairs.
  const FaultSchedule schedule = {
      FaultEvent::Crash(100, 5), FaultEvent::Crash(kBatch + 50, 1),
      FaultEvent::Recover(3 * kBatch, 5), FaultEvent::Recover(4 * kBatch, 1)};
  struct Run {
    std::vector<BatchResult> batches;
    std::vector<ProcessorSet> schemes;
    FaultStats stats;
  };
  auto serve = [&](int shards, Run* run) {
    ObjectService service = MakeMixedService(8, 48, shards);
    ASSERT_TRUE(service.EnableFaults(options, schedule).ok());
    service.set_check_invariant(true);
    std::span<const workload::MultiObjectEvent> events(trace.events);
    for (size_t pos = 0; pos < events.size(); pos += kBatch) {
      auto result = service.ServeBatch(events.subspan(pos, kBatch));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      run->batches.push_back(*std::move(result));
    }
    run->schemes = Schemes(service);
    run->stats = service.fault_stats();
    std::sort(run->stats.repair_latency.begin(),
              run->stats.repair_latency.end());
  };

  Run want;
  {
    util::ScopedThreads serial(1);
    serve(1, &want);
  }
  int64_t refused = 0;
  for (const BatchResult& batch : want.batches) {
    refused += batch.unavailable;
    for (size_t i = 0; i < batch.outcome.size(); ++i) {
      if (batch.outcome[i] != EventOutcome::kServed) {
        ASSERT_EQ(batch.costs[i], 0.0);
      }
    }
  }
  ASSERT_GT(refused, 0);
  ASSERT_GT(want.stats.repairs, 0);

  for (int shards : {4, 16}) {
    for (int threads : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      util::ScopedThreads scope(threads);
      Run got;
      serve(shards, &got);
      ASSERT_EQ(got.batches.size(), want.batches.size());
      for (size_t b = 0; b < want.batches.size(); ++b) {
        EXPECT_EQ(got.batches[b].costs, want.batches[b].costs) << b;
        EXPECT_EQ(got.batches[b].outcome, want.batches[b].outcome) << b;
        EXPECT_EQ(got.batches[b].breakdown, want.batches[b].breakdown) << b;
        EXPECT_EQ(got.batches[b].unavailable, want.batches[b].unavailable)
            << b;
      }
      EXPECT_EQ(got.schemes, want.schemes);
      EXPECT_EQ(got.stats.repairs, want.stats.repairs);
      EXPECT_EQ(got.stats.replicas_added, want.stats.replicas_added);
      EXPECT_EQ(got.stats.lost_control, want.stats.lost_control);
      EXPECT_EQ(got.stats.lost_data, want.stats.lost_data);
      EXPECT_EQ(got.stats.unavailable_requests,
                want.stats.unavailable_requests);
      EXPECT_EQ(got.stats.repair_latency, want.stats.repair_latency);
    }
  }
}

TEST(FaultInjectionTest, RandomCrashRecoverFuzzKeepsInvariant) {
  // 10k seeds of random crash/recover churn with the min_live floor at t:
  // the AvailabilityInvariant (checked fatally inside the serve path) must
  // hold after every served event, and no batch may be rejected.
  util::ScopedThreads serial(1);
  int64_t total_crashes = 0;
  int64_t total_repairs = 0;
  for (uint64_t seed = 0; seed < 10000; ++seed) {
    const workload::MultiObjectTrace trace = MakeTrace(6, 8, 120, seed);
    ServiceOptions service_options;
    service_options.num_shards = 4;
    ObjectService service(6, kModel, service_options);
    ObjectConfig config;
    config.algorithm = AlgorithmKind::kDynamic;
    config.initial_scheme = ProcessorSet{0, 1};
    for (int id = 0; id < 8; ++id) {
      ASSERT_TRUE(service.AddObject(id, config).ok());
    }
    FaultInjectorOptions options;
    options.seed = seed;
    options.crash_rate = 0.05;
    options.recover_rate = 0.10;
    options.min_live = 2;  // never below t: admission cannot reject
    ASSERT_TRUE(service.EnableFaults(options).ok());
    service.set_check_invariant(true);
    // Two batches: fault time must carry across batch boundaries.
    std::span<const workload::MultiObjectEvent> events(trace.events);
    auto first = service.ServeBatch(events.subspan(0, 60));
    ASSERT_TRUE(first.ok()) << "seed " << seed << ": "
                            << first.status().ToString();
    auto second = service.ServeBatch(events.subspan(60));
    ASSERT_TRUE(second.ok()) << "seed " << seed << ": "
                             << second.status().ToString();
    total_crashes += service.fault_stats().crashes;
    total_repairs += service.fault_stats().repairs;
  }
  // The fuzz must actually exercise the machinery.
  EXPECT_GT(total_crashes, 1000);
  EXPECT_GT(total_repairs, 100);
}

TEST(FaultInjectionTest, ScriptedPlansMatchSimulatorCountForCount) {
  // The same failure plan drives the discrete-event simulator and (via the
  // ToFaultSchedule adapter) the serving engine; both must agree on which
  // requests serve and which go unavailable. The agreement envelope is the
  // simulator's documented one (tests/sim_failure_test.cc): at most one
  // processor down at a time, so the DA protocol always has a live replica
  // to fail over to and every non-crashed issuer is served — overlapping
  // crashes can wipe every holder of the latest version, which the
  // simulator reports as aborted ops while the service repairs from its
  // idealized replica model.
  util::ScopedThreads serial(1);
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const int n = 6;
    const workload::MultiObjectTrace trace = MakeTrace(n, 8, 200, seed);

    // Random state-tracked plan of non-overlapping crash windows — valid by
    // construction (no duplicate transitions).
    util::Rng rng(seed * 977);
    sim::FailurePlan plan;
    ProcessorSet crashed;
    size_t position = 0;
    while (position + 7 < trace.events.size()) {
      position += 7 + rng.NextBounded(23);
      if (position >= trace.events.size()) break;
      const auto p =
          static_cast<util::ProcessorId>(rng.NextBounded(uint64_t{n}));
      if (crashed.Contains(p)) {
        plan.events.push_back(sim::FailureEvent::Recover(position, p));
        crashed.Erase(p);
      } else if (crashed.Empty()) {
        plan.events.push_back(sim::FailureEvent::Crash(position, p));
        crashed.Insert(p);
      }
    }
    ASSERT_TRUE(plan.IsValid(n));

    sim::MultiObjectSimOptions sim_options;
    sim_options.base.protocol = sim::ProtocolKind::kDynamic;
    sim_options.base.num_processors = n;
    sim_options.base.initial_scheme = ProcessorSet{0, 1};
    sim_options.num_objects = 8;
    sim::MultiObjectSimulator simulator(sim_options);
    auto report = simulator.RunTrace(trace, plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ObjectService service(n, kModel);
    ObjectConfig config;
    config.algorithm = AlgorithmKind::kDynamic;
    config.initial_scheme = ProcessorSet{0, 1};
    for (int id = 0; id < 8; ++id) {
      ASSERT_TRUE(service.AddObject(id, config).ok());
    }
    ASSERT_TRUE(service
                    .EnableFaults(FaultInjectorOptions{},
                                  sim::ToFaultSchedule(plan))
                    .ok());
    service.set_check_invariant(true);
    auto batch = service.ServeBatch(trace.events);
    ASSERT_TRUE(batch.ok()) << "seed " << seed << ": "
                            << batch.status().ToString();
    EXPECT_EQ(report->unavailable, batch->unavailable) << "seed " << seed;
    EXPECT_EQ(report->served,
              static_cast<int64_t>(trace.events.size()) - batch->unavailable)
        << "seed " << seed;
    EXPECT_EQ(report->stale_reads, 0) << "seed " << seed;
  }
}

TEST(FaultInjectionTest, RepairDegradedEagerlyHealsEveryObject) {
  ObjectService service(6, kModel);
  ObjectConfig config;
  config.algorithm = AlgorithmKind::kDynamic;
  config.initial_scheme = ProcessorSet{0, 1};
  for (int id = 0; id < 10; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
  service.set_check_invariant(true);
  ASSERT_TRUE(service.Crash(1).ok());
  EXPECT_EQ(service.degraded_count(), 10u);
  EXPECT_EQ(service.RepairDegraded(), 10);  // one replica per object
  EXPECT_EQ(service.degraded_count(), 0u);
  EXPECT_EQ(service.fault_stats().repairs, 10);
  for (int id = 0; id < 10; ++id) {
    auto stats = service.StatsFor(id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->scheme, (ProcessorSet{0, 2})) << "object " << id;
  }
  // Recover does not rejoin schemes: the copy at 1 is stale.
  ASSERT_TRUE(service.Recover(1).ok());
  auto stats = service.StatsFor(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->scheme, (ProcessorSet{0, 2}));
}

TEST(FaultInjectionTest, FaultModeGuardsAndStatusBoundaries) {
  ObjectService service(4, kModel);
  // Fault controls require fault mode.
  EXPECT_EQ(service.Crash(1).code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Recover(1).code(),
            util::StatusCode::kFailedPrecondition);

  ObjectConfig config;
  config.algorithm = AlgorithmKind::kDynamic;
  config.initial_scheme = ProcessorSet{0, 1};
  ASSERT_TRUE(service.AddObject(0, config).ok());
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}).ok());
  EXPECT_EQ(service.Crash(9).code(), util::StatusCode::kOutOfRange);

  // A one-event batch is served through fault time like any other.
  const std::vector<workload::MultiObjectEvent> one{
      {0, model::Request::Read(0)}};
  EXPECT_TRUE(service.ServeBatch(one).ok());

  // Registration under fault mode: schemes born on crashed processors are
  // refused.
  ASSERT_TRUE(service.Crash(3).ok());
  ObjectConfig dead = config;
  dead.initial_scheme = ProcessorSet{0, 3};
  EXPECT_EQ(service.AddObject(1, dead).code(),
            util::StatusCode::kFailedPrecondition);

  // Invalid injector options are reported, not CHECKed.
  FaultInjectorOptions bad;
  bad.crash_rate = 1.5;
  EXPECT_EQ(service.EnableFaults(bad).code(),
            util::StatusCode::kInvalidArgument);
  FaultSchedule unsorted = {FaultEvent::Crash(5, 0),
                            FaultEvent::Crash(2, 1)};
  EXPECT_EQ(service.EnableFaults(FaultInjectorOptions{}, unsorted).code(),
            util::StatusCode::kInvalidArgument);

  service.DisableFaults();
  EXPECT_FALSE(service.faults_enabled());
  EXPECT_TRUE(service.ServeBatch(one).ok());
}

TEST(FaultInjectionTest, CreateAndBatchBoundariesReturnStatus) {
  EXPECT_FALSE(ObjectService::Create(0, kModel).ok());
  ServiceOptions bad_options;
  bad_options.num_shards = 0;
  EXPECT_FALSE(ObjectService::Create(4, kModel, bad_options).ok());
  auto created = ObjectService::Create(4, kModel);
  ASSERT_TRUE(created.ok());

  // Zero-sized stream batches are an error, not a CHECK.
  const workload::MultiObjectTrace trace = MakeTrace(4, 4, 10, 1);
  workload::TraceEventSource source(trace);
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
  for (int id = 0; id < 4; ++id) {
    ASSERT_TRUE(created->AddObject(id, config).ok());
  }
  EXPECT_EQ(created->ServeStream(source, 0).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(FaultInjectionTest, StreamAccumulatesUnavailableEvents) {
  const workload::MultiObjectTrace trace = MakeTrace(6, 8, 400, 11);
  ObjectService service(6, kModel);
  ObjectConfig config;
  config.algorithm = AlgorithmKind::kDynamic;
  config.initial_scheme = ProcessorSet{0, 1};
  for (int id = 0; id < 8; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
  // Crash processor 5 for the middle half of the stream.
  FaultSchedule schedule = {FaultEvent::Crash(100, 5),
                            FaultEvent::Recover(300, 5)};
  ASSERT_TRUE(service.EnableFaults(FaultInjectorOptions{}, schedule).ok());
  service.set_check_invariant(true);
  workload::TraceEventSource source(trace);
  auto result = service.ServeStream(source, 64);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t expected = 0;
  for (size_t k = 100; k < 300; ++k) {
    if (trace.events[k].request.processor == 5) ++expected;
  }
  EXPECT_EQ(result->unavailable, expected);
  EXPECT_EQ(result->events, static_cast<int64_t>(trace.events.size()));
}

}  // namespace
}  // namespace objalloc::core
