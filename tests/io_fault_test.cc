// Surviving a bad disk (DESIGN.md §14): the Env seam, the deterministic
// FaultyEnv, retry/backoff, degrade-and-reattach durability, and the
// error-at-every-op sweep — for every IO operation a durable workload
// performs, and for a spread of seeds and fault kinds, the service must
// either ride the fault out (retry) or degrade, keep serving bit-identically
// in memory, and heal through ReattachDurability into a directory whose
// recovery is bit-identical again.
//
// Also here: the record_io corruption taxonomy (torn header vs torn payload
// vs CRC mismatch, at every truncation offset and bit position), driven
// through the same FaultyEnv that the durability layer sees.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/checkpoint.h"
#include "objalloc/core/object_service.h"
#include "objalloc/core/wal.h"
#include "objalloc/util/env.h"
#include "objalloc/util/faulty_env.h"
#include "objalloc/util/io.h"
#include "objalloc/util/record_io.h"
#include "objalloc/workload/multi_object.h"
#include "objalloc/workload/trace_io.h"

namespace objalloc::core {
namespace {

using model::CostModel;
using util::FaultKind;
using util::FaultPlan;
using util::FaultyEnv;
using util::FaultyEnvOptions;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

namespace fs = std::filesystem;

// --- Helpers (same idioms as durability_test.cc) ------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct StateImage {
  std::vector<std::tuple<ObjectId, int64_t, int64_t, int64_t, int64_t,
                         uint64_t>>
      objects;  // id, requests, control, data, io, scheme mask
  int64_t total_requests = 0;
  model::CostBreakdown total;

  bool operator==(const StateImage&) const = default;
};

StateImage Capture(const ObjectService& service) {
  StateImage image;
  for (ObjectId id : service.SortedObjectIds()) {
    auto stats = service.StatsFor(id);
    EXPECT_TRUE(stats.ok());
    image.objects.emplace_back(id, stats->requests,
                               stats->breakdown.control_messages,
                               stats->breakdown.data_messages,
                               stats->breakdown.io_ops,
                               stats->scheme.mask());
  }
  image.total_requests = service.TotalRequests();
  image.total = service.TotalBreakdown();
  return image;
}

MultiObjectTrace TestTrace(size_t length, uint64_t seed = 99,
                           int num_objects = 24) {
  workload::MultiObjectOptions options;
  options.num_processors = 8;
  options.num_objects = num_objects;
  options.length = length;
  return workload::GenerateMultiObjectTrace(options, seed);
}

ObjectConfig TestConfig() {
  ObjectConfig config;
  config.initial_scheme = ProcessorSet{0, 1};
  config.algorithm = AlgorithmKind::kDynamic;
  return config;
}

void RegisterObjects(ObjectService& service, int num_objects) {
  service.ReserveObjects(static_cast<size_t>(num_objects));
  for (int id = 0; id < num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
}

DurabilityOptions SweepOptions(size_t delta_chain_limit = 0) {
  DurabilityOptions options;
  options.sync_every_batch = true;  // memory and disk never diverge
  options.checkpoint_interval_events = 400;
  options.retry.initial_backoff_us = 10;  // virtual time anyway
  options.delta_chain_limit = delta_chain_limit;
  return options;
}

// --- Env seam unit tests ------------------------------------------------

TEST(EnvTest, DefaultEnvRoundTripsAFile) {
  const std::string dir = FreshDir("env_roundtrip");
  const std::string path = dir + "/file";
  ASSERT_TRUE(util::WriteFileAtomic(path, "hello env", util::Env::Default())
                  .ok());
  auto read = util::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello env");
}

TEST(EnvTest, ScopedEnvInstallsAndRestores) {
  util::Env* original = util::CurrentEnv();
  FaultyEnv faulty;
  {
    util::ScopedEnv scoped(&faulty);
    EXPECT_EQ(util::CurrentEnv(), &faulty);
  }
  EXPECT_EQ(util::CurrentEnv(), original);
}

TEST(EnvTest, ErrnoClassification) {
  // EIO-class errnos map to kUnavailable (transient, retryable); ENOSPC and
  // friends to kInternal (persistent); a missing file stays kNotFound.
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  const std::string dir = FreshDir("env_classify");

  faulty.SetPlan({0, FaultKind::kEio, FaultPlan::kForever});
  util::Status eio = util::WriteFileAtomic(dir + "/a", "x");
  EXPECT_EQ(eio.code(), util::StatusCode::kUnavailable) << eio.ToString();
  EXPECT_TRUE(util::IsTransientIoError(eio));

  // op_count() is the upcoming Open; +1 lands the fault on the Write, which
  // is where ENOSPC is meaningful (it specializes to EIO elsewhere).
  faulty.SetPlan({faulty.op_count() + 1, FaultKind::kEnospc, 1});
  util::Status enospc = util::WriteFileAtomic(dir + "/b", "x");
  EXPECT_EQ(enospc.code(), util::StatusCode::kInternal) << enospc.ToString();
  EXPECT_FALSE(util::IsTransientIoError(enospc));

  faulty.ClearPlan();
  auto missing = util::ReadFileToString(dir + "/never-written");
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(util::IsTransientIoError(missing.status()));
}

TEST(EnvTest, RetryIoRetriesTransientOnly) {
  FaultyEnv faulty;  // virtual clock: backoff sleeps cost nothing
  util::RetryPolicy policy;
  policy.max_attempts = 4;

  int calls = 0;
  uint64_t retries = 0;
  // Fails transiently twice, then succeeds.
  util::Status status = util::RetryIo(policy, &faulty, &retries, [&] {
    return ++calls <= 2 ? util::Status::Unavailable("flaky")
                        : util::Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);

  // A persistent error is never retried.
  calls = 0;
  retries = 0;
  status = util::RetryIo(policy, &faulty, &retries, [&] {
    ++calls;
    return util::Status::Internal("disk full");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);

  // Exhaustion returns the last transient failure.
  calls = 0;
  status = util::RetryIo(policy, &faulty, &retries, [&] {
    ++calls;
    return util::Status::Unavailable("still flaky");
  });
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries, 3u);
}

TEST(EnvTest, RetryPolicyValidates) {
  util::RetryPolicy policy;
  EXPECT_TRUE(policy.Validate().ok());
  policy.max_attempts = 0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = {};
  policy.backoff_multiplier = 0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = {};
  policy.max_backoff_us = policy.initial_backoff_us - 1;
  EXPECT_FALSE(policy.Validate().ok());
}

// --- FaultyEnv behavior -------------------------------------------------

TEST(FaultyEnvTest, DeterministicAcrossRuns) {
  // Same seed, same plan, same op sequence -> same outcome, op for op.
  auto run = [](uint64_t seed) {
    const std::string dir =
        FreshDir("faulty_det_" + std::to_string(seed & 1));
    FaultyEnvOptions options;
    options.seed = seed;
    options.error_rate = 0.3;
    FaultyEnv faulty(options);
    std::vector<bool> outcomes;
    for (int i = 0; i < 50; ++i) {
      outcomes.push_back(
          util::WriteFileAtomic(dir + "/f", "payload", &faulty).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed matters
}

TEST(FaultyEnvTest, ScriptedPlanFiresAtExactIndex) {
  const std::string dir = FreshDir("faulty_exact");
  FaultyEnv faulty;
  // Fault-free pass: count the ops one atomic write costs.
  ASSERT_TRUE(util::WriteFileAtomic(dir + "/probe", "x", &faulty).ok());
  const uint64_t per_write = faulty.op_count();
  ASSERT_GT(per_write, 0u);

  // Fail exactly the first op of the second write; the first is untouched.
  faulty.SetPlan({per_write, FaultKind::kEio, 1});
  EXPECT_FALSE(util::WriteFileAtomic(dir + "/second", "x", &faulty).ok());
  EXPECT_EQ(faulty.faults_injected(), 1u);
  // Plan exhausted: the next write sails through.
  EXPECT_TRUE(util::WriteFileAtomic(dir + "/third", "x", &faulty).ok());
}

TEST(FaultyEnvTest, ShortWriteIsAbsorbedByTheWriteLoop) {
  // POSIX allows short writes; util/io's WriteAll must loop, so a scripted
  // short write is invisible to the caller and the bytes land intact.
  const std::string dir = FreshDir("faulty_short");
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  const std::string payload(1000, 'A');
  auto file = util::AppendFile::Open(dir + "/log");
  ASSERT_TRUE(file.ok());
  faulty.SetPlan({faulty.op_count(), FaultKind::kShortWrite, 1});
  ASSERT_TRUE(file->Append(payload).ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_GE(faulty.faults_injected(), 1u);
  auto read = util::ReadFileToString(dir + "/log");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(FaultyEnvTest, TornWriteLeavesPartialBytes) {
  const std::string dir = FreshDir("faulty_torn");
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  const std::string payload(1000, 'B');
  auto file = util::AppendFile::Open(dir + "/log");
  ASSERT_TRUE(file.ok());
  faulty.SetPlan({faulty.op_count(), FaultKind::kTornWrite, 1});
  util::Status status = file->Append(payload);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  auto size = util::FileSize(dir + "/log");
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 0u);               // some bytes landed...
  EXPECT_LT(*size, payload.size());   // ...but not all — the torn hazard
}

TEST(FaultyEnvTest, BitFlipReadIsCaughtByRecordCrc) {
  const std::string dir = FreshDir("faulty_flip");
  std::string framed;
  util::AppendRecord(7, "the payload that must not silently change", &framed);
  ASSERT_TRUE(util::WriteFileAtomic(dir + "/rec", framed).ok());

  FaultyEnv faulty;
  auto clean = util::ReadFileToString(dir + "/rec", &faulty);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(*clean, framed);
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    FaultyEnvOptions options;
    options.seed = seed;
    FaultyEnv flipper(options);
    // Op 0 is the Open; op 1 is the data-carrying Read. The seed picks
    // which bit of the returned buffer flips.
    flipper.SetPlan({1, FaultKind::kBitFlipRead, FaultPlan::kForever});
    auto flipped = util::ReadFileToString(dir + "/rec", &flipper);
    ASSERT_TRUE(flipped.ok());  // the read "succeeds" — silent corruption
    ASSERT_EQ(flipped->size(), framed.size());
    ASSERT_NE(*flipped, framed);
    util::RecordCursor cursor(*flipped);
    util::RecordView record;
    size_t records = 0;
    while (cursor.Next(&record)) ++records;
    // One flipped bit must never parse as the original record: either the
    // CRC trips, or the length field grew and the record looks torn.
    EXPECT_TRUE(!cursor.status().ok() || records == 0)
        << "seed " << seed << " parsed a corrupted record";
  }
}

TEST(FaultyEnvTest, VirtualClockAdvancesOnLatency) {
  FaultyEnv faulty;
  const uint64_t before = faulty.NowMicros();
  faulty.SetPlan({0, FaultKind::kLatency, 1, /*latency_us=*/5000});
  const std::string dir = FreshDir("faulty_latency");
  ASSERT_TRUE(util::WriteFileAtomic(dir + "/f", "x", &faulty).ok());
  EXPECT_GE(faulty.NowMicros(), before + 5000);
}

// --- Record corruption taxonomy (every offset, every bit) ---------------

// Builds a small "log": three framed records of distinct sizes.
std::string ThreeRecords() {
  std::string buffer;
  util::AppendRecord(1, "first-payload", &buffer);
  util::AppendRecord(2, std::string(100, 'x'), &buffer);
  util::AppendRecord(3, "tail", &buffer);
  return buffer;
}

TEST(RecordTaxonomyTest, TruncationAtEveryOffsetIsTornNeverCorrupt) {
  const std::string buffer = ThreeRecords();
  // Record boundaries, for classifying each truncation point.
  std::vector<size_t> boundaries = {0};
  {
    util::RecordCursor cursor(buffer);
    util::RecordView record;
    while (cursor.Next(&record)) boundaries.push_back(cursor.valid_prefix());
  }
  ASSERT_EQ(boundaries.size(), 4u);

  const std::string dir = FreshDir("taxonomy_truncate");
  const std::string path = dir + "/log";
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    ASSERT_TRUE(util::WriteFileAtomic(path, buffer).ok());
    ASSERT_TRUE(util::TruncateFile(path, cut).ok());
    auto read = util::ReadFileToString(path);
    ASSERT_TRUE(read.ok());
    util::RecordCursor cursor(*read);
    util::RecordView record;
    size_t records = 0;
    while (cursor.Next(&record)) ++records;
    // Truncation — whether it cut a header or a payload — is always a torn
    // tail (or a clean end exactly at a boundary), never corruption: the
    // valid prefix is intact and recovery may truncate there.
    EXPECT_TRUE(cursor.status().ok()) << "cut at " << cut << ": "
                                      << cursor.status().ToString();
    size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(records, whole) << "cut at " << cut;
    EXPECT_EQ(cursor.valid_prefix(), boundaries[whole]) << "cut at " << cut;
    EXPECT_EQ(cursor.tail_bytes(), cut - boundaries[whole])
        << "cut at " << cut;
  }
}

TEST(RecordTaxonomyTest, BitFlipAtEveryPositionNeverParsesClean) {
  const std::string buffer = ThreeRecords();
  std::vector<size_t> boundaries = {0};
  {
    util::RecordCursor cursor(buffer);
    util::RecordView record;
    while (cursor.Next(&record)) boundaries.push_back(cursor.valid_prefix());
  }
  for (size_t bit = 0; bit < buffer.size() * 8; ++bit) {
    std::string flipped = buffer;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    util::RecordCursor cursor(flipped);
    util::RecordView record;
    size_t records = 0;
    while (cursor.Next(&record)) ++records;
    // Whichever field the flip hit — length, type, CRC, payload — the
    // parse must stop at or before the damaged record: CRC mismatch
    // (corruption), an inflated length (torn tail), or a shrunk length
    // (CRC over the wrong span). Records before the flip parse intact.
    const size_t damaged =
        std::upper_bound(boundaries.begin(), boundaries.end(), bit / 8) -
        boundaries.begin() - 1;
    EXPECT_LE(records, damaged) << "bit " << bit;
    EXPECT_LE(cursor.valid_prefix(), boundaries[damaged]) << "bit " << bit;
    const bool clean_full_parse =
        cursor.status().ok() && cursor.tail_bytes() == 0 &&
        records == boundaries.size() - 1;
    EXPECT_FALSE(clean_full_parse) << "bit " << bit;
  }
}

// --- Service-level: retry rides out transient faults --------------------

TEST(IoFaultServiceTest, TransientWalFaultIsRetriedNotDegraded) {
  const std::string dir = FreshDir("svc_transient");
  const MultiObjectTrace trace = TestTrace(600);
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);

  ObjectService service(trace.num_processors,
                        CostModel::StationaryComputing(0.25, 1.0));
  ASSERT_TRUE(service.EnableDurability(dir, SweepOptions()).ok());
  RegisterObjects(service, trace.num_objects);

  // One transient EIO on the next write: the WAL group rolls back, backs
  // off (virtual time), rewrites, and stays durable.
  std::span<const MultiObjectEvent> events(trace.events);
  ASSERT_TRUE(service.ServeBatch(events.first(100)).ok());
  faulty.SetPlan({faulty.op_count(), FaultKind::kEio, 1});
  ASSERT_TRUE(service.ServeBatch(events.subspan(100, 100)).ok());
  ASSERT_TRUE(service.ServeBatch(events.subspan(200)).ok());
  ASSERT_TRUE(service.SyncDurable().ok());

  EXPECT_EQ(service.durability_state(), DurabilityState::kDurable);
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.wal_write_retries + stats.checkpoint_retries, 0u)
      << "the transient fault should have been absorbed by a retry";
  EXPECT_EQ(stats.degraded_batches, 0u);

  const StateImage expected = Capture(service);
  { ObjectService drop = std::move(service); }
  auto recovered = ObjectService::Recover(dir, SweepOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Capture(*recovered), expected);
}

// --- Service-level: degrade, report, reattach ---------------------------

TEST(IoFaultServiceTest, PersistentFaultDegradesAndKeepsServing) {
  const std::string dir = FreshDir("svc_degrade");
  const MultiObjectTrace trace = TestTrace(1000);
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);

  ObjectService service(trace.num_processors,
                        CostModel::StationaryComputing(0.25, 1.0));
  ASSERT_TRUE(service.EnableDurability(dir, SweepOptions()).ok());
  RegisterObjects(service, trace.num_objects);

  std::span<const MultiObjectEvent> events(trace.events);
  ASSERT_TRUE(service.ServeBatch(events.first(200)).ok());

  // The disk dies for good.
  faulty.SetPlan({faulty.op_count(), FaultKind::kEio, FaultPlan::kForever});
  for (size_t at = 200; at < events.size(); at += 100) {
    ASSERT_TRUE(service.ServeBatch(events.subspan(at, 100)).ok())
        << "a degraded service must keep serving";
  }
  EXPECT_EQ(service.durability_state(), DurabilityState::kDegraded);
  EXPECT_FALSE(service.durability_enabled());

  // Satellite regression: the *original* failure status is sticky — every
  // probe returns the same error, not Ok and not a second-order error.
  const util::Status first = service.SyncDurable();
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(service.SyncDurable(), first);
  EXPECT_EQ(service.durability_error(), first);
  EXPECT_EQ(service.Checkpoint(), first);

  // Stats surface the degradation instead of silently dropping durability.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.durability, DurabilityState::kDegraded);
  EXPECT_EQ(stats.durability_error, first);
  EXPECT_GT(stats.degraded_batches, 0u);

  // Reattach while the disk is still bad: fails, stays degraded.
  EXPECT_FALSE(service.ReattachDurability().ok());
  EXPECT_EQ(service.durability_state(), DurabilityState::kDegraded);

  // Replace the disk; reattach heals and the gap is captured.
  faulty.ClearPlan();
  ASSERT_TRUE(service.ReattachDurability().ok());
  EXPECT_EQ(service.durability_state(), DurabilityState::kDurable);
  EXPECT_TRUE(service.durability_enabled());
  EXPECT_TRUE(service.durability_error().ok());
  EXPECT_EQ(service.Stats().reattach_count, 1u);

  // The healed directory recovers to exactly the live state, including
  // every batch served while degraded.
  ASSERT_TRUE(service.SyncDurable().ok());
  const StateImage expected = Capture(service);
  { ObjectService drop = std::move(service); }
  auto recovered = ObjectService::Recover(dir, SweepOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Capture(*recovered), expected);

  // And the quarantined generation is visible to the scrub, which still
  // calls the directory recoverable.
  ScrubReport scrub;
  EXPECT_TRUE(ObjectService::Scrub(dir, &scrub).ok());
  EXPECT_TRUE(scrub.recoverable);
  EXPECT_FALSE(scrub.clean);  // the quarantine is an anomaly worth flagging
  bool saw_quarantine = false;
  for (const ScrubFileReport& file : scrub.files) {
    saw_quarantine |= file.verdict == ScrubVerdict::kQuarantined;
  }
  EXPECT_TRUE(saw_quarantine);
}

TEST(IoFaultServiceTest, DisableDurabilityReportsTheDegradedError) {
  const std::string dir = FreshDir("svc_disable_degraded");
  const MultiObjectTrace trace = TestTrace(300);
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);

  ObjectService service(trace.num_processors,
                        CostModel::StationaryComputing(0.25, 1.0));
  ASSERT_TRUE(service.EnableDurability(dir, SweepOptions()).ok());
  RegisterObjects(service, trace.num_objects);
  faulty.SetPlan({faulty.op_count(), FaultKind::kEio, FaultPlan::kForever});
  std::span<const MultiObjectEvent> events(trace.events);
  ASSERT_TRUE(service.ServeBatch(events).ok());
  ASSERT_EQ(service.durability_state(), DurabilityState::kDegraded);
  const util::Status degraded = service.durability_error();
  EXPECT_EQ(service.DisableDurability(), degraded);
  EXPECT_EQ(service.durability_state(), DurabilityState::kDetached);
}

// --- Scrub --------------------------------------------------------------

TEST(ScrubTest, CleanDirectoryThenEachAnomaly) {
  const std::string dir = FreshDir("scrub_clean");
  // 300 events < the 400-event checkpoint interval, so the live WAL holds
  // the header plus real batch records (a truncation tears a data record,
  // not the WAL header).
  const MultiObjectTrace trace = TestTrace(300);
  {
    ObjectService service(trace.num_processors,
                          CostModel::StationaryComputing(0.25, 1.0));
    ASSERT_TRUE(service.EnableDurability(dir, SweepOptions()).ok());
    RegisterObjects(service, trace.num_objects);
    ASSERT_TRUE(
        service.ServeBatch(std::span<const MultiObjectEvent>(trace.events))
            .ok());
    ASSERT_TRUE(service.SyncDurable().ok());
    ASSERT_TRUE(service.DisableDurability().ok());
  }
  ScrubReport clean;
  ASSERT_TRUE(ObjectService::Scrub(dir, &clean).ok());
  EXPECT_TRUE(clean.recoverable);
  EXPECT_TRUE(clean.clean) << clean.ToString();
  for (const ScrubFileReport& file : clean.files) {
    EXPECT_EQ(file.verdict, ScrubVerdict::kOk) << file.name;
    EXPECT_GT(file.records, 0u) << file.name;
  }

  // A stray temp file: recoverable, not clean.
  ASSERT_TRUE(util::WriteFileAtomic(dir + "/junk.tmp", "debris").ok());
  ScrubReport stray;
  ASSERT_TRUE(ObjectService::Scrub(dir, &stray).ok());
  EXPECT_TRUE(stray.recoverable);
  EXPECT_FALSE(stray.clean);
  ASSERT_TRUE(util::RemoveFile(dir + "/junk.tmp").ok());

  // A torn WAL tail: recoverable, flagged on the right file.
  auto names = util::ListDir(dir);
  ASSERT_TRUE(names.ok());
  std::string wal_name;
  for (const std::string& name : *names) {
    if (name.rfind("wal-", 0) == 0 && name.ends_with(".log")) wal_name = name;
  }
  ASSERT_FALSE(wal_name.empty());
  auto wal_size = util::FileSize(dir + "/" + wal_name);
  ASSERT_TRUE(wal_size.ok());
  ASSERT_TRUE(util::TruncateFile(dir + "/" + wal_name, *wal_size - 3).ok());
  ScrubReport torn;
  ASSERT_TRUE(ObjectService::Scrub(dir, &torn).ok());
  EXPECT_TRUE(torn.recoverable);
  EXPECT_FALSE(torn.clean);
  for (const ScrubFileReport& file : torn.files) {
    if (file.name == wal_name) {
      EXPECT_EQ(file.verdict, ScrubVerdict::kTornTail) << file.detail;
    }
  }

  // Corrupt the manifest: a fallback-only directory, still recoverable by
  // scan, but the manifest is called out.
  ASSERT_TRUE(util::WriteFileAtomic(dir + "/" + kManifestFileName,
                                    "not a manifest")
                  .ok());
  ScrubReport corrupt;
  util::Status status = ObjectService::Scrub(dir, &corrupt);
  for (const ScrubFileReport& file : corrupt.files) {
    if (file.name == kManifestFileName) {
      EXPECT_EQ(file.verdict, ScrubVerdict::kCorrupt);
    }
  }
  EXPECT_FALSE(corrupt.clean);
  // Recoverability is the recovery pipeline's call (manifest-less scan);
  // either way the report and status must agree.
  EXPECT_EQ(status.ok(), corrupt.recoverable);
}

TEST(ScrubTest, EmptyDirectoryIsUnrecoverable) {
  const std::string dir = FreshDir("scrub_empty");
  ScrubReport report;
  EXPECT_FALSE(ObjectService::Scrub(dir, &report).ok());
  EXPECT_FALSE(report.recoverable);
  EXPECT_FALSE(report.clean);
}

// --- Trace IO through the Env seam --------------------------------------

TEST(TraceIoEnvTest, TraceFilesRouteThroughTheEnv) {
  const std::string dir = FreshDir("trace_env");
  const MultiObjectTrace trace = TestTrace(200);
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);

  // A dead disk fails the write; the file never appears (atomic publish).
  faulty.SetPlan({0, FaultKind::kEio, FaultPlan::kForever});
  EXPECT_FALSE(
      workload::WriteMultiObjectTraceFile(trace, dir + "/t.trace").ok());
  EXPECT_FALSE(util::FileExists(dir + "/t.trace"));

  faulty.ClearPlan();
  ASSERT_TRUE(
      workload::WriteMultiObjectTraceFile(trace, dir + "/t.trace").ok());
  auto read = workload::ReadMultiObjectTraceFile(dir + "/t.trace");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->events.size(), trace.events.size());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(read->events[i].object, trace.events[i].object);
  }

  // The streaming source sees injected read faults as real errors.
  faulty.SetPlan({faulty.op_count(), FaultKind::kEio, FaultPlan::kForever});
  workload::TraceFileEventSource source(dir + "/t.trace");
  std::vector<MultiObjectEvent> buffer(64);
  auto filled = source.FillBatch(buffer);
  EXPECT_FALSE(filled.ok());
  faulty.ClearPlan();

  // Missing files still read as NotFound.
  auto missing = workload::ReadMultiObjectTraceFile(dir + "/absent.trace");
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

// --- The error-at-every-op sweep ----------------------------------------
//
// A fault-free run under FaultyEnv counts the N data-path IO operations the
// durable workload performs and captures the golden in-memory state. Then,
// for every op index and a rotation of fault kinds and seeds, one run
// injects there. Whatever happens to the disk, the run must (a) serve the
// whole trace, (b) land bit-identically on the golden in-memory state, and
// (c) either remain durable (recovery reproduces the golden state) or be
// degraded-and-reported, in which case healing the env and reattaching must
// yield a directory whose recovery is bit-identical again.

struct SweepWorkload {
  size_t delta_chain_limit = 0;
  MultiObjectTrace trace;
  StateImage golden;
  uint64_t fault_free_ops = 0;
};

SweepWorkload BuildSweepWorkload(size_t delta_chain_limit) {
  SweepWorkload workload;
  workload.delta_chain_limit = delta_chain_limit;
  workload.trace = TestTrace(1200);
  const std::string dir = FreshDir("sweep_fault_free");
  FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  ObjectService service(workload.trace.num_processors,
                        CostModel::StationaryComputing(0.25, 1.0));
  EXPECT_TRUE(
      service.EnableDurability(dir, SweepOptions(delta_chain_limit)).ok());
  service.ReserveObjects(
      static_cast<size_t>(workload.trace.num_objects));
  for (int id = 0; id < workload.trace.num_objects; ++id) {
    EXPECT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  std::span<const MultiObjectEvent> events(workload.trace.events);
  for (size_t at = 0; at < events.size(); at += 100) {
    EXPECT_TRUE(service.ServeBatch(events.subspan(at, 100)).ok());
  }
  EXPECT_TRUE(service.SyncDurable().ok());
  EXPECT_TRUE(service.DisableDurability().ok());
  workload.golden = Capture(service);
  workload.fault_free_ops = faulty.op_count();
  EXPECT_GT(workload.fault_free_ops, 0u);
  return workload;
}

// One sweep run: inject `kind` starting at `index` (with `count` coverage)
// under `seed`, then assert the contract above.
void SweepOne(const SweepWorkload& workload, const std::string& dir,
              uint64_t index, FaultKind kind, uint64_t count, uint64_t seed) {
  SCOPED_TRACE("op " + std::to_string(index) + " kind " +
               std::to_string(static_cast<int>(kind)) + " count " +
               std::to_string(count) + " seed " + std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  FaultyEnvOptions env_options;
  env_options.seed = seed;
  FaultyEnv faulty(env_options);
  faulty.SetPlan({index, kind, count});
  util::ScopedEnv scoped(&faulty);

  ObjectService service(workload.trace.num_processors,
                        CostModel::StationaryComputing(0.25, 1.0));
  const DurabilityOptions options = SweepOptions(workload.delta_chain_limit);
  const util::Status enabled = service.EnableDurability(dir, options);
  service.ReserveObjects(static_cast<size_t>(workload.trace.num_objects));
  for (int id = 0; id < workload.trace.num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  // (a) The trace is served end to end no matter what the disk does.
  std::span<const MultiObjectEvent> events(workload.trace.events);
  for (size_t at = 0; at < events.size(); at += 100) {
    ASSERT_TRUE(service.ServeBatch(events.subspan(at, 100)).ok());
  }
  // (b) Bit-identical in-memory state.
  ASSERT_EQ(Capture(service), workload.golden);

  if (!enabled.ok()) {
    // The fault struck while durability was being *started* — a clean
    // refusal, nothing on disk to recover. The service served plain.
    ASSERT_EQ(service.durability_state(), DurabilityState::kDetached);
    return;
  }

  // (c) Durable or degraded-and-reported; both must recover bit-identically.
  if (service.durability_state() == DurabilityState::kDegraded) {
    ASSERT_FALSE(service.durability_error().ok());
    faulty.ClearPlan();  // the disk is replaced
    ASSERT_TRUE(service.ReattachDurability().ok())
        << service.durability_error().ToString();
    ASSERT_EQ(service.durability_state(), DurabilityState::kDurable);
    // One more generation on top of the reattach's full snapshot — with
    // delta chains on, a delta — so recovery below restores through it.
    ASSERT_TRUE(service.ServeBatch(events.subspan(100, 100)).ok());
    ASSERT_TRUE(service.Checkpoint().ok());
  } else {
    ASSERT_EQ(service.durability_state(), DurabilityState::kDurable);
    faulty.ClearPlan();  // a lingering transient window must not outlive (a)
    ASSERT_TRUE(service.SyncDurable().ok());
  }
  // Prove the (possibly reattached) WAL accepts appends, then kill.
  ASSERT_TRUE(service.ServeBatch(events.first(100)).ok());
  ASSERT_TRUE(service.SyncDurable().ok());
  const StateImage expected = Capture(service);
  { ObjectService drop = std::move(service); }
  auto recovered = ObjectService::Recover(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(Capture(*recovered), expected);
}

TEST(IoFaultSweepTest, ErrorAtEveryOpEverySeed) {
  const std::string dir = ::testing::TempDir() + "/sweep_run";
  // Kinds rotate per (index, seed): transient glitch, dead disk, full disk,
  // tearing disk — every op index sees each of them.
  struct KindCase {
    FaultKind kind;
    uint64_t count;
  };
  const KindCase kinds[] = {
      {FaultKind::kEio, 1},
      {FaultKind::kEio, FaultPlan::kForever},
      {FaultKind::kEnospc, FaultPlan::kForever},
      {FaultKind::kTornWrite, FaultPlan::kForever},
  };
  // Full checkpoints only (>= 20 seeds), then delta chains: with
  // delta_chain_limit = 3 the trace's three checkpoints (generations 2-4)
  // are all deltas and the final recovery restores through every one of
  // them, so a fault inside a delta write must leave the dirty pages
  // marked for the retry and a failed delta's orphans removed. (With a
  // limit of 2, generation 4 would be a full snapshot masking any damage
  // in 2 and 3.)
  struct SweepCase {
    size_t delta_chain_limit;
    uint64_t seeds;
  };
  for (const SweepCase& sweep : {SweepCase{0, 20}, SweepCase{3, 6}}) {
    SCOPED_TRACE("delta_chain_limit " +
                 std::to_string(sweep.delta_chain_limit));
    const SweepWorkload workload = BuildSweepWorkload(sweep.delta_chain_limit);
    for (uint64_t index = 0; index < workload.fault_free_ops; ++index) {
      for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
        const KindCase& c = kinds[(index + seed) % std::size(kinds)];
        SweepOne(workload, dir, index, c.kind, c.count, seed + 1);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace objalloc::core
