// The durability layer's contract (DESIGN.md §10): recovery from any crash
// point reproduces a bit-identical prefix of history. The WAL logs the
// admission stream, the checkpoint snapshots the full state, and because
// the serving engine is deterministic, snapshot + replayed tail == the
// state the crashed process held. These tests drive the whole pipeline —
// truncate-at-every-offset sweeps, bit flips, manifest loss, fault-mode
// histories — and assert exact state equality, never "close enough".

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/checkpoint.h"
#include "objalloc/core/object_service.h"
#include "objalloc/core/wal.h"
#include "objalloc/util/io.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {
namespace {

using model::CostModel;
using util::ScopedThreads;
using workload::MultiObjectEvent;
using workload::MultiObjectTrace;

namespace fs = std::filesystem;

// --- Helpers ------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy(entry.path(), fs::path(to) / entry.path().filename());
  }
}

// The complete observable state of a service, captured exactly: per-object
// traffic and schemes, lifetime totals, liveness, and the integer fault
// counters. Two services are interchangeable iff their images are equal.
struct StateImage {
  std::vector<std::tuple<ObjectId, int64_t, int64_t, int64_t, int64_t,
                         uint64_t>>
      objects;  // id, requests, control, data, io, scheme mask
  int64_t total_requests = 0;
  model::CostBreakdown total;
  uint64_t live_mask = 0;
  size_t degraded = 0;
  bool faults_enabled = false;
  int64_t crashes = 0, recoveries = 0, repairs = 0, replicas_added = 0;
  int64_t lost_control = 0, lost_data = 0, backoff_units = 0;
  int64_t unavailable_requests = 0, rejected_batches = 0;

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
  image.live_mask = service.live_processors().mask();
  image.degraded = service.degraded_count();
  image.faults_enabled = service.faults_enabled();
  const FaultStats& fault_stats = service.fault_stats();
  image.crashes = fault_stats.crashes;
  image.recoveries = fault_stats.recoveries;
  image.repairs = fault_stats.repairs;
  image.replicas_added = fault_stats.replicas_added;
  image.lost_control = fault_stats.lost_control;
  image.lost_data = fault_stats.lost_data;
  image.backoff_units = fault_stats.backoff_units;
  image.unavailable_requests = fault_stats.unavailable_requests;
  image.rejected_batches = fault_stats.rejected_batches;
  return image;
}

MultiObjectTrace TestTrace(size_t length, uint64_t seed = 99,
                           int num_objects = 32) {
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

void RegisterObjects(ObjectService& service, int num_objects,
                     const ObjectConfig& config) {
  service.ReserveObjects(static_cast<size_t>(num_objects));
  for (int id = 0; id < num_objects; ++id) {
    ASSERT_TRUE(service.AddObject(id, config).ok());
  }
}

// Serves one event as a one-event batch.
util::Status ServeOne(ObjectService& service, const MultiObjectEvent& event) {
  return service.ServeBatch(std::span<const MultiObjectEvent>(&event, 1))
      .status();
}

// --- Round trips --------------------------------------------------------

TEST(DurabilityTest, RecoverReproducesStateBitForBit) {
  const std::string dir = FreshDir("durability_roundtrip");
  const MultiObjectTrace trace = TestTrace(4000);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);

  StateImage expected;
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    // Mixed batch sizes, a checkpoint mid-stream, a tail past it.
    std::span<const MultiObjectEvent> events(trace.events);
    ASSERT_TRUE(service.ServeBatch(events.subspan(0, 1500)).ok());
    ASSERT_TRUE(service.Checkpoint().ok());
    ASSERT_TRUE(service.ServeBatch(events.subspan(1500, 2000)).ok());
    ASSERT_TRUE(ServeOne(service, {3, trace.events[3500].request}).ok());
    ASSERT_TRUE(service.ServeBatch(events.subspan(3501)).ok());
    expected = Capture(service);
    // No Sync, no clean shutdown: the destructor is the crash.
  }

  RecoveryReport report;
  auto recovered = ObjectService::Recover(dir, {}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Capture(*recovered), expected);
  EXPECT_EQ(report.checkpoint_sequence, 2u);
  EXPECT_FALSE(report.fell_back);
  EXPECT_TRUE(recovered->durability_enabled());

  // The recovered service keeps appending: serve more, recover again.
  ASSERT_TRUE(recovered->ServeBatch(
                  std::span<const MultiObjectEvent>(trace.events).first(500))
                  .ok());
  const StateImage continued = Capture(*recovered);
  { ObjectService drop = std::move(*recovered); }
  auto again = ObjectService::Recover(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Capture(*again), continued);
}

TEST(DurabilityTest, BitIdenticalAcrossShardAndThreadCounts) {
  const MultiObjectTrace trace = TestTrace(3000);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);

  // Reference: one undurable serial run of the whole trace.
  ObjectService reference(trace.num_processors, sc);
  RegisterObjects(reference, trace.num_objects, TestConfig());
  ASSERT_TRUE(
      reference.ServeBatch(std::span<const MultiObjectEvent>(trace.events))
          .ok());
  const StateImage expected = Capture(reference);

  for (int shards : {1, 3, 4, 16}) {
    for (int threads : {1, 2, util::GlobalThreads()}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScopedThreads scope(threads);
      const std::string dir =
          FreshDir("durability_grid_" + std::to_string(shards) + "_" +
                   std::to_string(threads));
      ServiceOptions options;
      options.num_shards = shards;
      DurabilityOptions durability;
      durability.checkpoint_interval_events = 1100;  // auto-checkpoints
      {
        ObjectService service(trace.num_processors, sc, options);
        ASSERT_TRUE(service.EnableDurability(dir, durability).ok());
        RegisterObjects(service, trace.num_objects, TestConfig());
        // Crash after 1700 of 3000 events.
        ASSERT_TRUE(
            service
                .ServeBatch(std::span<const MultiObjectEvent>(trace.events)
                                .first(1700))
                .ok());
      }
      auto recovered = ObjectService::Recover(dir, durability);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ASSERT_TRUE(recovered
                      ->ServeBatch(
                          std::span<const MultiObjectEvent>(trace.events)
                              .subspan(1700))
                      .ok());
      EXPECT_EQ(Capture(*recovered), expected);
    }
  }
}

// --- Torn-write sweep ---------------------------------------------------

// Truncate the final WAL at *every* byte offset and recover. Each offset
// must yield exactly the state after some event prefix — never a mix, never
// silent acceptance of garbage — and the prefix length must be monotone in
// the offset.
// Admission looks an id up only in the shard its hash picks, so a snapshot
// whose shard streams hold an object in another shard describes a service
// that could never serve it. Recovery refuses it (a generation with an
// older snapshot would fall back; here there is none).
TEST(DurabilityTest, ObjectStoredInTheWrongShardIsRefused) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const std::string dir = FreshDir("durability_wrong_shard");
  {
    ObjectService service(8, sc, ServiceOptions{.num_shards = 2});
    RegisterObjects(service, 64, TestConfig());
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    ASSERT_TRUE(service.DisableDurability().ok());
  }
  // Rewrite the generation-1 snapshot with its two shard streams swapped.
  const std::string path = dir + "/" + CheckpointFileName(1);
  ServiceStateImage state;
  std::string shard_bytes[2];
  DurableConfig config;
  {
    auto reader = CheckpointReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    config = reader->config();
    CheckpointReader::Piece piece;
    while (true) {
      ASSERT_TRUE(reader->Next(&piece).ok());
      if (piece.done) break;
      if (piece.service_state) {
        state = piece.state;
      } else {
        shard_bytes[piece.shard].append(piece.bytes);
      }
    }
  }
  ASSERT_FALSE(shard_bytes[0].empty());
  ASSERT_FALSE(shard_bytes[1].empty());
  auto writer = CheckpointWriter::Open(path, 1, config);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->AppendServiceState(state).ok());
  for (uint32_t s = 0; s < 2; ++s) {
    writer->BeginShard(s);
    ASSERT_TRUE(writer->AppendShardBytes(shard_bytes[1 - s]).ok());
    ASSERT_TRUE(writer->EndShard().ok());
  }
  ASSERT_TRUE(writer->Finish(2).ok());

  auto recovered = ObjectService::Recover(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), util::StatusCode::kInternal);
  EXPECT_NE(recovered.status().message().find("stored in the wrong shard"),
            std::string::npos)
      << recovered.status().ToString();
}

// --- The shard snapshot codec -------------------------------------------

// The shard's snapshot over `ranges`, as one byte string.
std::string SnapshotBytes(
    const ObjectShard& shard,
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges) {
  std::string bytes;
  const util::Status status =
      shard.StreamSnapshot(ranges, [&bytes](std::string_view piece) {
        bytes.append(piece);
        return util::Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return bytes;
}

std::string FullSnapshotBytes(const ObjectShard& shard) {
  return SnapshotBytes(shard, {{0, shard.slot_span()}});
}

// Restores `bytes` as the chunks that the ascending offsets `cuts` cut.
util::Status RestoreInChunks(ObjectShard& shard, std::string_view bytes,
                             const std::vector<size_t>& cuts = {}) {
  shard.BeginRestore();
  size_t at = 0;
  for (const size_t cut : cuts) {
    OBJALLOC_RETURN_IF_ERROR(
        shard.RestoreChunk(bytes.substr(at, cut - at), /*last=*/false));
    at = cut;
  }
  return shard.RestoreChunk(bytes.substr(at), /*last=*/true);
}

// Byte offsets inside a snapshot stream: the header, then per range its
// 8-byte header and 64-byte records, then the footer.
constexpr size_t kHeaderBytes = 12;
constexpr size_t kRangeBytes = 8;
constexpr size_t kRecordBytes = 64;

// A snapshot's span comes from the file; one at or past the shard's slot
// limit is refused before it sizes the slab or the directory, so Recover
// can fall back instead of aborting on the allocation.
TEST(DurabilityTest, OversizedSnapshotSlotCountIsRefused) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  for (const uint64_t span : {uint64_t{0xFFFFFFFE}, uint64_t{1} << 62}) {
    SCOPED_TRACE("span=" + std::to_string(span));
    ObjectShard shard(8, sc);
    std::string header;
    util::AppendScalar(span, &header);
    util::AppendScalar(uint32_t{1}, &header);
    shard.BeginRestore();
    const util::Status status = shard.RestoreChunk(header, false);
    EXPECT_EQ(status.code(), util::StatusCode::kInternal) << status.ToString();
    EXPECT_EQ(shard.slot_span(), 0u);
  }
}

// A delta is authoritative for every slot it covers, occupied ones too: a
// slot restored under a different id drops its old id. The directory
// confirms every probe against the record's id, so an id must leave the
// directory before its record is overwritten, or a stale bucket survives
// that names the slot. Every slot below the span holds an object, so a
// record whose id is -1 is refused rather than read as a free slot.
TEST(DurabilityTest, DeltaOverOccupiedSlotsReKeys) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();
  ObjectShard shard(8, sc);
  for (const ObjectId id : {10, 11, 12}) {
    ASSERT_TRUE(shard.AddObject(id, config).ok());  // slots 0, 1, 2
  }

  // The delta re-keys slot 1 from id 11 to id 20.
  ObjectShard rekeyed(8, sc);
  for (const ObjectId id : {10, 20, 12}) {
    ASSERT_TRUE(rekeyed.AddObject(id, config).ok());
  }
  const std::string delta = SnapshotBytes(rekeyed, {{1, 2}});

  // The same delta with slot 1's id set to -1 changes nothing.
  std::string freed = delta;
  const ObjectId no_id = -1;
  std::memcpy(freed.data() + kHeaderBytes + kRangeBytes, &no_id,
              sizeof(no_id));
  const util::Status refused = RestoreInChunks(shard, freed);
  EXPECT_EQ(refused.code(), util::StatusCode::kInternal);
  EXPECT_EQ(refused.message(), "shard snapshot: bad object id -1");
  EXPECT_EQ(shard.SlotOf(11), 1u);
  EXPECT_EQ(shard.object_count(), 3u);

  ASSERT_TRUE(RestoreInChunks(shard, delta).ok());
  EXPECT_EQ(shard.SlotOf(11), ObjectShard::kInvalidSlot);
  EXPECT_FALSE(shard.HasObject(11));
  // No bucket still carries the old id's tag.
  EXPECT_EQ(shard.CandidateSlotHashed(util::FlatDirectory::Hash(11)),
            ObjectShard::kInvalidSlot);
  EXPECT_EQ(shard.SlotOf(20), 1u);
  EXPECT_TRUE(shard.HasObject(20));
  EXPECT_EQ(shard.SlotOf(10), 0u);
  EXPECT_EQ(shard.SlotOf(12), 2u);
  EXPECT_EQ(shard.object_count(), 3u);

  // The old id registers again, in a new slot.
  auto slot = shard.AddObject(11, config);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  EXPECT_EQ(*slot, 3u);
  EXPECT_EQ(shard.SlotOf(11), 3u);
  EXPECT_EQ(shard.object_count(), 4u);
}

// Every slot from the span before the restore up to the snapshot's span
// must arrive in some range. A slot that does not would count as an object
// with no record, and the next full snapshot would carry it as id -1.
TEST(DurabilityTest, SnapshotThatSkipsANewSlotIsRefused) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectConfig config = TestConfig();
  ObjectShard source(8, sc);
  for (const ObjectId id : {10, 11, 12}) {
    ASSERT_TRUE(source.AddObject(id, config).ok());  // span 3
  }
  using Ranges = std::vector<std::pair<uint32_t, uint32_t>>;
  const struct {
    uint32_t prior_span;  // slots registered before the restore
    Ranges ranges;
    uint32_t missing;     // 3 when nothing is missing
  } cases[] = {
      {0, {{0, 1}}, 1},
      {0, {{0, 1}, {2, 3}}, 1},
      {0, {{1, 3}}, 0},
      {1, {{2, 3}}, 1},
      {1, {{1, 3}}, 3},
      {1, {{0, 1}, {1, 3}}, 3},
      {2, {{0, 1}, {2, 3}}, 3},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("prior span " + std::to_string(c.prior_span) + ", " +
                 std::to_string(c.ranges.size()) + " ranges from slot " +
                 std::to_string(c.ranges[0].first));
    ObjectShard shard(8, sc);
    for (uint32_t slot = 0; slot < c.prior_span; ++slot) {
      ASSERT_TRUE(shard.AddObject(source.IdAt(slot), config).ok());
    }
    const util::Status status =
        RestoreInChunks(shard, SnapshotBytes(source, c.ranges));
    if (c.missing == 3) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(shard.object_count(), 3u);
      for (uint32_t slot = 0; slot < 3; ++slot) {
        EXPECT_EQ(shard.SlotOf(source.IdAt(slot)), slot);
      }
      continue;
    }
    EXPECT_EQ(status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(status.message(), "shard snapshot: slot " +
                                    std::to_string(c.missing) +
                                    " below the span did not arrive");
    EXPECT_EQ(shard.object_count(), c.prior_span);
  }
}

// A record arrives as the slab's raw 64 bytes, so each field is range
// checked before it touches the slab: a refused record leaves the shard's
// objects and directory as they were.
TEST(DurabilityTest, CorruptSlotRecordsAreRefusedAndChangeNothing) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  constexpr int kProcessors = 8;
  const ObjectConfig config = TestConfig();
  ObjectShard rekeyed(kProcessors, sc);
  for (const ObjectId id : {10, 20, 12}) {
    ASSERT_TRUE(rekeyed.AddObject(id, config).ok());
  }
  const std::string valid = SnapshotBytes(rekeyed, {{1, 2}});
  // Field offsets of the one record: id, scheme, F, then the meta word.
  constexpr size_t kRecord = kHeaderBytes + kRangeBytes;
  constexpr size_t kScheme = kRecord + 8, kF = kRecord + 16;
  constexpr size_t kMeta = kRecord + 24;
  uint64_t meta = 0;
  std::memcpy(&meta, valid.data() + kMeta, sizeof(meta));
  const auto with = [&valid](size_t offset, uint64_t value) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const auto with_bits = [&](int shift, uint64_t value) {
    return with(kMeta, (meta & ~(uint64_t{0x7F} << shift)) | value << shift);
  };
  uint64_t scheme = 0, f = 0;
  std::memcpy(&scheme, valid.data() + kScheme, sizeof(scheme));
  std::memcpy(&f, valid.data() + kF, sizeof(f));
  const uint64_t bit_n = uint64_t{1} << kProcessors;
  std::vector<std::pair<std::string, std::string>> cases = {
      {with(kMeta, (meta & ~uint64_t{0xF}) | 2),
       "non-inlined algorithm kind 2"},
      {with(kMeta, meta | 0xF), "non-inlined algorithm kind 15"},
      {with_bits(4, 0), "bad threshold 0"},
      {with_bits(4, kProcessors + 1), "bad threshold 9"},
      {with(kScheme, scheme | bit_n), "scheme names out-of-range processors"},
      {with(kF, f | bit_n), "scheme names out-of-range processors"},
      {with_bits(11, kProcessors + 1), "floating processor out of range"},
      {with(kRecord, static_cast<uint64_t>(-1)), "bad object id -1"},
  };
  for (int bit = 25; bit < 32; ++bit) {
    cases.emplace_back(with(kMeta, meta | uint64_t{1} << bit),
                       "reserved meta bits set");
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c) + ": " + cases[c].second);
    ObjectShard shard(kProcessors, sc);
    for (const ObjectId id : {10, 11, 12}) {
      ASSERT_TRUE(shard.AddObject(id, config).ok());
    }
    const util::Status status = RestoreInChunks(shard, cases[c].first);
    EXPECT_EQ(status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(status.message(), "shard snapshot: " + cases[c].second);
    EXPECT_EQ(shard.object_count(), 3u);
    EXPECT_EQ(shard.SlotOf(10), 0u);
    EXPECT_EQ(shard.SlotOf(11), 1u);
    EXPECT_EQ(shard.SlotOf(12), 2u);
    EXPECT_EQ(shard.SlotOf(20), ObjectShard::kInvalidSlot);
  }
  // The uncorrupted record applies.
  ObjectShard shard(kProcessors, sc);
  for (const ObjectId id : {10, 11, 12}) {
    ASSERT_TRUE(shard.AddObject(id, config).ok());
  }
  ASSERT_TRUE(RestoreInChunks(shard, valid).ok());
  EXPECT_EQ(shard.SlotOf(20), 1u);
}

// The checkpoint writer cuts a shard's stream into chunks regardless of
// record boundaries, so a restore must give the same shard however the
// stream is cut: here at every offset inside the header, each range
// header, the first and last record and the footer, and into 1-byte
// chunks, for a full stream and for a two-range delta that also extends
// the span.
TEST(DurabilityTest, SnapshotRestoresIdenticallyUnderAnyChunking) {
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  constexpr int kProcessors = 8;
  ObjectShard source(kProcessors, sc);
  const auto add = [&source](ObjectId first, ObjectId last) {
    for (ObjectId id = first; id < last; ++id) {
      ObjectConfig config;
      config.algorithm =
          id % 3 == 0 ? AlgorithmKind::kStatic : AlgorithmKind::kDynamic;
      config.initial_scheme = id % 2 == 0 ? ProcessorSet{0, 1, 2}
                                          : ProcessorSet{3, 5};
      ASSERT_TRUE(source.AddObject(id * 7 + 1, config).ok());
    }
  };
  // Requests on the objects in `slots`, seeded by `seed`.
  const auto serve = [&source](uint32_t begin, uint32_t end, uint64_t seed) {
    uint64_t x = seed;
    for (int e = 0; e < 2000; ++e) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint32_t slot = begin + static_cast<uint32_t>((x >> 33) %
                                                          (end - begin));
      const ProcessorId p = static_cast<ProcessorId>((x >> 20) % kProcessors);
      const Request request =
          (x >> 40) % 3 == 0 ? Request::Write(p) : Request::Read(p);
      ASSERT_TRUE(source.Serve(source.IdAt(slot), request).ok());
    }
  };
  add(0, 250);
  serve(0, 250, 1);
  source.NoteCrash(3);  // a non-empty degraded registry for the footer
  ASSERT_GT(source.degraded_count(), 0u);
  const std::string full = FullSnapshotBytes(source);
  const size_t footer = 36 + 4 * source.degraded_count();
  ASSERT_EQ(full.size(),
            kHeaderBytes + kRangeBytes + kRecordBytes * 250 + footer);

  // Then the delta: the slots that change after the full snapshot.
  add(250, 300);
  serve(20, 50, 2);
  serve(250, 300, 3);
  const std::vector<std::pair<uint32_t, uint32_t>> ranges = {{20, 50},
                                                             {200, 300}};
  const std::string delta = SnapshotBytes(source, ranges);
  ASSERT_EQ(delta.size(), kHeaderBytes + (kRangeBytes + kRecordBytes * 30) +
                              (kRangeBytes + kRecordBytes * 100) + footer);
  const std::string expected = FullSnapshotBytes(source);

  // Every cut of `bytes` at an offset in one of `spans` (inclusive).
  const auto cuts_in =
      [](const std::vector<std::pair<size_t, size_t>>& spans) {
        std::vector<size_t> cuts;
        for (const auto& [first, last] : spans) {
          for (size_t cut = first; cut <= last; ++cut) cuts.push_back(cut);
        }
        return cuts;
      };
  const size_t full_records = kHeaderBytes + kRangeBytes;
  const size_t full_footer = full.size() - footer;
  const std::vector<size_t> full_cuts = cuts_in({
      {0, kHeaderBytes},
      {kHeaderBytes, full_records},
      {full_records, full_records + kRecordBytes},
      {full_footer - kRecordBytes, full_footer},
      {full_footer, full.size()},
  });
  const size_t range2 = full_records + kRecordBytes * 30;
  const size_t delta_footer = delta.size() - footer;
  const std::vector<size_t> delta_cuts = cuts_in({
      {0, kHeaderBytes},
      {kHeaderBytes, full_records},
      {full_records, full_records + kRecordBytes},
      {range2, range2 + kRangeBytes},
      {delta_footer - kRecordBytes, delta_footer},
      {delta_footer, delta.size()},
  });
  const auto bytewise = [&cuts_in](const std::string& bytes) {
    return cuts_in({{1, bytes.size() - 1}});
  };

  // `shard` holds the same objects, in the same slots, as `reference`.
  const auto expect_same = [](const ObjectShard& shard,
                              const ObjectShard& reference) {
    ASSERT_EQ(FullSnapshotBytes(shard), FullSnapshotBytes(reference));
    EXPECT_EQ(shard.degraded_count(), reference.degraded_count());
    for (uint32_t slot = 0; slot < reference.slot_span(); ++slot) {
      ASSERT_EQ(shard.SlotOf(reference.IdAt(slot)), slot);
    }
  };
  // The one-chunk restores, base then delta, end at the source's state.
  ObjectShard base(kProcessors, sc);
  ASSERT_TRUE(RestoreInChunks(base, full).ok());
  ObjectShard whole(kProcessors, sc);
  ASSERT_TRUE(RestoreInChunks(whole, full).ok());
  ASSERT_TRUE(RestoreInChunks(whole, delta).ok());
  EXPECT_EQ(FullSnapshotBytes(whole), expected);
  expect_same(whole, source);

  const auto check = [&](const std::string& bytes, bool is_delta,
                         const std::vector<size_t>& cuts) {
    ObjectShard shard(kProcessors, sc);
    if (is_delta) {
      ASSERT_TRUE(RestoreInChunks(shard, full).ok());
    }
    const util::Status status = RestoreInChunks(shard, bytes, cuts);
    ASSERT_TRUE(status.ok()) << status.ToString();
    expect_same(shard, is_delta ? whole : base);
  };
  for (const size_t cut : full_cuts) {
    SCOPED_TRACE("full stream cut at " + std::to_string(cut));
    check(full, false, {cut});
  }
  for (const size_t cut : delta_cuts) {
    SCOPED_TRACE("delta cut at " + std::to_string(cut));
    check(delta, true, {cut});
  }
  {
    SCOPED_TRACE("1-byte chunks");
    check(full, false, bytewise(full));
    check(delta, true, bytewise(delta));
  }
}

TEST(DurabilityTest, TruncateAtEveryOffsetRecoversAConsistentPrefix) {
  const std::string dir = FreshDir("durability_sweep");
  const MultiObjectTrace trace = TestTrace(160, 7, 8);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);

  // Reference images after every event count 0..N (durability off).
  std::vector<StateImage> prefix(trace.events.size() + 1);
  {
    ObjectService service(trace.num_processors, sc);
    RegisterObjects(service, trace.num_objects, TestConfig());
    prefix[0] = Capture(service);
    for (size_t i = 0; i < trace.events.size(); ++i) {
      ASSERT_TRUE(ServeOne(service, trace.events[i]).ok());
      prefix[i + 1] = Capture(service);
    }
  }

  // Durable run, one event per logged batch, no checkpoint after arming.
  // Objects are registered *before* arming so they live in the generation-1
  // snapshot and the WAL holds events only — each truncation offset then
  // corresponds exactly to an event-count prefix.
  {
    ObjectService service(trace.num_processors, sc);
    RegisterObjects(service, trace.num_objects, TestConfig());
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    for (const MultiObjectEvent& event : trace.events) {
      ASSERT_TRUE(ServeOne(service, event).ok());
    }
  }
  {
    auto size = util::FileSize(dir + "/wal-1.log");
    ASSERT_TRUE(size.ok());
    const std::string scratch = ::testing::TempDir() + "/durability_sweep_at";
    size_t last_events = 0;
    bool past_header = false;
    for (uint64_t offset = 0; offset <= *size; ++offset) {
      CopyDir(dir, scratch);
      ASSERT_TRUE(
          util::TruncateFile(scratch + "/wal-1.log", offset).ok());
      RecoveryReport report;
      auto recovered = ObjectService::Recover(scratch, {}, &report);
      if (!recovered.ok()) {
        // Only legitimate below the synced header (a state no real crash
        // can produce, since the header hits disk before the manifest).
        ASSERT_FALSE(past_header)
            << "offset " << offset << ": " << recovered.status().ToString();
        continue;
      }
      past_header = true;
      const size_t events = report.events_replayed;
      ASSERT_LE(events, trace.events.size()) << "offset " << offset;
      ASSERT_GE(events, last_events) << "offset " << offset
                                     << ": prefix must be monotone";
      last_events = events;
      EXPECT_EQ(Capture(*recovered), prefix[events])
          << "offset " << offset << " recovered a non-prefix state";
      if (offset == *size) {
        EXPECT_FALSE(report.torn_tail) << "untruncated log has no torn tail";
      } else if (report.torn_tail) {
        EXPECT_GT(report.torn_bytes_truncated, 0u) << "offset " << offset;
      }
    }
    EXPECT_EQ(last_events, trace.events.size());
  }
}

// A torn tail is physically truncated at recovery; appending afterwards
// produces a log that recovers cleanly again.
TEST(DurabilityTest, TornTailTruncatedThenAppendable) {
  const std::string dir = FreshDir("durability_torn_append");
  const MultiObjectTrace trace = TestTrace(300, 21, 8);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    ASSERT_TRUE(
        service
            .ServeBatch(
                std::span<const MultiObjectEvent>(trace.events).first(200))
            .ok());
  }
  auto size = util::FileSize(dir + "/wal-1.log");
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::TruncateFile(dir + "/wal-1.log", *size - 5).ok());

  RecoveryReport report;
  {
    auto recovered = ObjectService::Recover(dir, {}, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(report.torn_tail);
    EXPECT_GT(report.torn_bytes_truncated, 0u);
    ASSERT_TRUE(recovered
                    ->ServeBatch(
                        std::span<const MultiObjectEvent>(trace.events)
                            .subspan(200))
                    .ok());
  }
  RecoveryReport second;
  auto again = ObjectService::Recover(dir, {}, &second);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(second.torn_tail) << "tail was truncated on first recovery";
}

// --- Corruption and fallback --------------------------------------------

TEST(DurabilityTest, CorruptNewestCheckpointFallsBackToPrevious) {
  const std::string dir = FreshDir("durability_fallback");
  const MultiObjectTrace trace = TestTrace(2000);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  StateImage expected;
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    std::span<const MultiObjectEvent> events(trace.events);
    ASSERT_TRUE(service.ServeBatch(events.first(1200)).ok());
    ASSERT_TRUE(service.Checkpoint().ok());  // generation 2
    ASSERT_TRUE(service.ServeBatch(events.subspan(1200)).ok());
    expected = Capture(service);
  }
  // Flip one byte in the middle of the newest snapshot.
  {
    std::fstream file(dir + "/checkpoint-2.ckpt",
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(200);
    char byte = 0x5a;
    file.write(&byte, 1);
  }
  RecoveryReport report;
  auto recovered = ObjectService::Recover(dir, {}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.checkpoint_sequence, 1u);
  EXPECT_EQ(report.manifest_sequence, 2u);
  EXPECT_FALSE(report.warnings.empty());
  // Generation 1 + wal-1 + wal-2 replays the *same* history.
  EXPECT_EQ(Capture(*recovered), expected);

  // The fallback-recovered service keeps the history appendable: serve
  // more, then recover again to exactly the continued state.
  ASSERT_TRUE(recovered
                  ->ServeBatch(std::span<const MultiObjectEvent>(trace.events)
                                   .first(300))
                  .ok());
  const StateImage continued = Capture(*recovered);
  { ObjectService drop = std::move(*recovered); }
  auto again = ObjectService::Recover(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Capture(*again), continued);
}

TEST(DurabilityTest, CorruptWalInteriorIsAnErrorNotSilentLoss) {
  const std::string dir = FreshDir("durability_corrupt_wal");
  const MultiObjectTrace trace = TestTrace(500);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    ASSERT_TRUE(
        service.ServeBatch(std::span<const MultiObjectEvent>(trace.events))
            .ok());
  }
  // Flip a payload byte of an interior record: the record still frames
  // (later records parse), so this is corruption inside the valid prefix —
  // acknowledged history is damaged and recovery must refuse, not quietly
  // drop the tail.
  auto size = util::FileSize(dir + "/wal-1.log");
  ASSERT_TRUE(size.ok());
  {
    std::fstream file(dir + "/wal-1.log",
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(*size / 2));
    char byte = 0x77;
    file.write(&byte, 1);
  }
  RecoveryReport report;
  auto recovered = ObjectService::Recover(dir, {}, &report);
  ASSERT_FALSE(recovered.ok());
  EXPECT_FALSE(ObjectService::VerifyDurableDir(dir, &report).ok());
}

TEST(DurabilityTest, MissingManifestRecoversByScanAndRepublishes) {
  const std::string dir = FreshDir("durability_no_manifest");
  const MultiObjectTrace trace = TestTrace(800);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  StateImage expected;
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    ASSERT_TRUE(
        service.ServeBatch(std::span<const MultiObjectEvent>(trace.events))
            .ok());
    ASSERT_TRUE(service.Checkpoint().ok());
    expected = Capture(service);
  }
  ASSERT_TRUE(util::RemoveFile(dir + "/MANIFEST").ok());
  RecoveryReport report;
  auto recovered = ObjectService::Recover(dir, {}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.manifest_missing);
  EXPECT_FALSE(report.warnings.empty());
  EXPECT_EQ(Capture(*recovered), expected);
  // Recover republished the commit point.
  EXPECT_TRUE(util::FileExists(dir + "/MANIFEST"));
  auto verify = ObjectService::VerifyDurableDir(dir, &report);
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  EXPECT_FALSE(report.manifest_missing);
}

TEST(DurabilityTest, EmptyDirectoryIsNotFound) {
  const std::string dir = FreshDir("durability_empty");
  auto recovered = ObjectService::Recover(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), util::StatusCode::kNotFound);
}

// --- Checkpoint rotation and GC -----------------------------------------

TEST(DurabilityTest, CheckpointRotationGarbageCollectsOldGenerations) {
  const std::string dir = FreshDir("durability_gc");
  const MultiObjectTrace trace = TestTrace(2500);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ObjectService service(trace.num_processors, sc);
  ASSERT_TRUE(service.EnableDurability(dir).ok());
  RegisterObjects(service, trace.num_objects, TestConfig());
  std::span<const MultiObjectEvent> events(trace.events);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(service.ServeBatch(events.subspan(
                            static_cast<size_t>(round) * 500, 500))
                    .ok());
    ASSERT_TRUE(service.Checkpoint().ok());
  }
  // Generations 1..4 are beyond keep_generations=2; 5 and 6 remain.
  EXPECT_FALSE(util::FileExists(dir + "/checkpoint-4.ckpt"));
  EXPECT_FALSE(util::FileExists(dir + "/wal-4.log"));
  EXPECT_TRUE(util::FileExists(dir + "/checkpoint-5.ckpt"));
  EXPECT_TRUE(util::FileExists(dir + "/checkpoint-6.ckpt"));
  EXPECT_TRUE(util::FileExists(dir + "/wal-6.log"));
  const StateImage expected = Capture(service);
  auto recovered = ObjectService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Capture(*recovered), expected);
}

// --- Fault-mode histories -----------------------------------------------

TEST(DurabilityTest, FaultModeHistoryRecoversBitForBit) {
  const MultiObjectTrace trace = TestTrace(3000, 42);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  FaultInjectorOptions fault_options;
  fault_options.seed = 7;
  fault_options.crash_rate = 0.002;
  fault_options.recover_rate = 0.02;
  fault_options.control_loss_rate = 0.01;
  fault_options.data_loss_rate = 0.01;
  FaultSchedule schedule = {FaultEvent::Crash(100, 3),
                            FaultEvent::Recover(900, 3),
                            FaultEvent::Crash(2200, 5)};

  auto run_reference = [&]() {
    ObjectService service(trace.num_processors, sc);
    RegisterObjects(service, trace.num_objects, TestConfig());
    EXPECT_TRUE(service.EnableFaults(fault_options, schedule).ok());
    EXPECT_TRUE(service.Crash(6).ok());
    EXPECT_TRUE(
        service
            .ServeBatch(
                std::span<const MultiObjectEvent>(trace.events).first(1500))
            .ok());
    EXPECT_TRUE(service.Recover(6).ok());
    service.RepairDegraded();
    EXPECT_TRUE(service
                    .ServeBatch(std::span<const MultiObjectEvent>(
                                    trace.events)
                                    .subspan(1500))
                    .ok());
    return Capture(service);
  };
  const StateImage expected = run_reference();

  const std::string dir = FreshDir("durability_faulty");
  DurabilityOptions durability;
  durability.checkpoint_interval_events = 700;
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir, durability).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    ASSERT_TRUE(service.EnableFaults(fault_options, schedule).ok());
    ASSERT_TRUE(service.Crash(6).ok());
    ASSERT_TRUE(
        service
            .ServeBatch(
                std::span<const MultiObjectEvent>(trace.events).first(1500))
            .ok());
    // Crash the host mid-history: destructor, no sync, no checkpoint.
  }
  auto recovered = ObjectService::Recover(dir, durability);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->faults_enabled());
  ASSERT_TRUE(recovered->Recover(6).ok());
  recovered->RepairDegraded();
  ASSERT_TRUE(recovered
                  ->ServeBatch(std::span<const MultiObjectEvent>(
                                   trace.events)
                                   .subspan(1500))
                  .ok());
  EXPECT_EQ(Capture(*recovered), expected);
}

// --- Preconditions and edge cases ---------------------------------------

TEST(DurabilityTest, RejectedRegistrationIsNotLogged) {
  const std::string dir = FreshDir("durability_bad_add");
  ObjectService service(4, CostModel::StationaryComputing(0.25, 1.0));
  ASSERT_TRUE(service.EnableDurability(dir).ok());
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  // Duplicate id and invalid scheme both fail before the WAL sees them.
  EXPECT_FALSE(service.AddObject(1, TestConfig()).ok());
  ObjectConfig bad = TestConfig();
  bad.initial_scheme = ProcessorSet{};
  EXPECT_FALSE(service.AddObject(2, bad).ok());
  ASSERT_TRUE(ServeOne(service, {1, model::Request::Write(0)}).ok());
  const StateImage expected = Capture(service);
  { ObjectService drop = std::move(service); }
  auto recovered = ObjectService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Capture(*recovered), expected);
}

TEST(DurabilityTest, DisableThenEnableStartsAFreshHistory) {
  const std::string dir = FreshDir("durability_restart");
  const MultiObjectTrace trace = TestTrace(400);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  ObjectService service(trace.num_processors, sc);
  ASSERT_TRUE(service.EnableDurability(dir).ok());
  RegisterObjects(service, trace.num_objects, TestConfig());
  ASSERT_TRUE(
      service
          .ServeBatch(
              std::span<const MultiObjectEvent>(trace.events).first(200))
          .ok());
  ASSERT_TRUE(service.DisableDurability().ok());
  EXPECT_FALSE(service.durability_enabled());
  // Un-logged traffic...
  ASSERT_TRUE(service
                  .ServeBatch(std::span<const MultiObjectEvent>(trace.events)
                                  .subspan(200, 100))
                  .ok());
  // ...then a fresh history snapshots the *current* state, including it.
  ASSERT_TRUE(service.EnableDurability(dir).ok());
  ASSERT_TRUE(service
                  .ServeBatch(std::span<const MultiObjectEvent>(trace.events)
                                  .subspan(300))
                  .ok());
  const StateImage expected = Capture(service);
  { ObjectService drop = std::move(service); }
  auto recovered = ObjectService::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Capture(*recovered), expected);
}

TEST(DurabilityTest, SyncAndCheckpointRequireDurability) {
  ObjectService service(4, CostModel::StationaryComputing(0.25, 1.0));
  EXPECT_EQ(service.Checkpoint().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.SyncDurable().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.DisableDurability().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(DurabilityTest, RecoveryReportToStringMentionsTheEssentials) {
  const std::string dir = FreshDir("durability_report");
  ObjectService service(4, CostModel::StationaryComputing(0.25, 1.0));
  ASSERT_TRUE(service.EnableDurability(dir).ok());
  ASSERT_TRUE(service.AddObject(1, TestConfig()).ok());
  ASSERT_TRUE(ServeOne(service, {1, model::Request::Read(2)}).ok());
  // The WAL is appended asynchronously; an external reader (here, the
  // verify pass on the live directory) only sees what has been synced.
  ASSERT_TRUE(service.SyncDurable().ok());
  RecoveryReport report;
  ASSERT_TRUE(ObjectService::VerifyDurableDir(dir, &report).ok());
  const std::string text = report.ToString();
  EXPECT_NE(text.find("generation"), std::string::npos) << text;
  EXPECT_EQ(report.events_replayed, 1u);
  EXPECT_EQ(report.objects_restored, 0u);
}

// --- Delta checkpoints --------------------------------------------------

// Serve with delta checkpointing on, snapshot the directory after every
// checkpoint, and recover every one of those crash images: each must land
// bit-identically on the state at its checkpoint, mid-chain prefixes
// included, and recovering must work with the manifest deleted (the scan
// now has to find delta generations too). Each recovered service then
// serves the rest of the trace and must match the uninterrupted run.
TEST(DurabilityTest, DeltaChainRecoversAtEveryPrefix) {
  const MultiObjectTrace trace = TestTrace(2400);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const size_t kSlice = 300;
  const size_t slices = trace.events.size() / kSlice;

  // Reference: undurable run, capturing the state at every slice boundary.
  std::vector<StateImage> at_slice(slices);
  StateImage final_expected;
  {
    ObjectService reference(trace.num_processors, sc);
    RegisterObjects(reference, trace.num_objects, TestConfig());
    std::span<const MultiObjectEvent> events(trace.events);
    for (size_t i = 0; i < slices; ++i) {
      ASSERT_TRUE(reference.ServeBatch(events.subspan(i * kSlice, kSlice))
                      .ok());
      at_slice[i] = Capture(reference);
    }
    final_expected = Capture(reference);
  }

  const std::string dir = FreshDir("durability_delta_chain");
  DurabilityOptions durability;
  durability.delta_chain_limit = 3;  // gen 2,3,4 delta; gen 5 full; ...
  durability.keep_generations = 16;  // keep everything; copies stay whole
  {
    ObjectService service(trace.num_processors, sc);
    RegisterObjects(service, trace.num_objects, TestConfig());
    ASSERT_TRUE(service.EnableDurability(dir, durability).ok());
    std::span<const MultiObjectEvent> events(trace.events);
    for (size_t i = 0; i < slices; ++i) {
      ASSERT_TRUE(service.ServeBatch(events.subspan(i * kSlice, kSlice))
                      .ok());
      ASSERT_TRUE(service.Checkpoint().ok());
      CopyDir(dir, dir + "_at" + std::to_string(i));
    }
  }
  // The chain policy must actually have produced deltas *and* compacted:
  // with limit 3, generations 2..4 are deltas, 5 is full again.
  EXPECT_TRUE(util::FileExists(dir + "/" + DeltaCheckpointFileName(2)));
  EXPECT_TRUE(util::FileExists(dir + "/" + DeltaCheckpointFileName(4)));
  EXPECT_TRUE(util::FileExists(dir + "/" + CheckpointFileName(5)));
  EXPECT_FALSE(util::FileExists(dir + "/" + DeltaCheckpointFileName(5)));

  // Pristine image for the manifest-loss scenario below — the recovery
  // loop appends the continuation traffic into each _at copy, so take this
  // one before any of them is recovered.
  CopyDir(dir + "_at2", dir + "_noman");  // generation 4 = delta
  ASSERT_TRUE(util::RemoveFile(dir + "_noman/MANIFEST").ok());

  bool saw_delta_recovery = false;
  for (size_t i = 0; i < slices; ++i) {
    SCOPED_TRACE("checkpoint copy " + std::to_string(i));
    const std::string copy = dir + "_at" + std::to_string(i);
    RecoveryReport report;
    auto recovered = ObjectService::Recover(copy, durability, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(Capture(*recovered), at_slice[i]);
    if (report.delta_checkpoints_applied > 0) saw_delta_recovery = true;
    // Serving must continue seamlessly on the delta-restored state.
    if ((i + 1) * kSlice < trace.events.size()) {
      ASSERT_TRUE(recovered
                      ->ServeBatch(std::span<const MultiObjectEvent>(
                                       trace.events)
                                       .subspan((i + 1) * kSlice))
                      .ok());
    }
    EXPECT_EQ(Capture(*recovered), final_expected);
  }
  EXPECT_TRUE(saw_delta_recovery)
      << "no copy exercised the delta-apply path";

  // Manifest loss with a delta generation on top: the directory scan must
  // offer delta generations as candidates, not just the last full one.
  {
    RecoveryReport report;
    auto recovered =
        ObjectService::Recover(dir + "_noman", durability, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(report.manifest_missing);
    EXPECT_GT(report.delta_checkpoints_applied, 0u);
    EXPECT_EQ(Capture(*recovered), at_slice[2]);
  }
}

// --- Group commit under crash -------------------------------------------

// sync_every_batch with the async writer: LogBatch blocks on WaitDurable
// before the batch externalizes, so a crash image taken at any point
// between calls (here: a literal copy of the live directory, the moral
// equivalent of SIGKILL) contains every acknowledged batch, exactly.
TEST(DurabilityTest, SyncEveryBatchCrashImageLosesNothing) {
  const MultiObjectTrace trace = TestTrace(600, 31, 8);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const std::string dir = FreshDir("durability_synced_crash");
  DurabilityOptions durability;
  durability.sync_every_batch = true;
  durability.group_commit_delay_us = 50000;  // the waiter must force seals

  ObjectService service(trace.num_processors, sc);
  RegisterObjects(service, trace.num_objects, TestConfig());
  ASSERT_TRUE(service.EnableDurability(dir, durability).ok());
  std::span<const MultiObjectEvent> events(trace.events);
  for (size_t served = 0; served < events.size(); served += 150) {
    ASSERT_TRUE(service.ServeBatch(events.subspan(served, 150)).ok());
    const StateImage expected = Capture(service);
    const std::string crash = dir + "_img";
    CopyDir(dir, crash);  // the service is still live and unsynced
    auto recovered = ObjectService::Recover(crash, durability);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(Capture(*recovered), expected)
        << "acknowledged batches lost at event " << served + 150;
  }
}

// Default (async group commit) mode: crash images taken mid-history are
// allowed to miss the un-synced suffix but must always recover a monotone
// event-count *prefix* — never a torn mixture. Tiny groups make the image
// points land across many group-commit boundaries.
TEST(DurabilityTest, AsyncGroupCommitCrashImagesRecoverPrefixes) {
  const MultiObjectTrace trace = TestTrace(160, 13, 8);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);

  std::vector<StateImage> prefix(trace.events.size() + 1);
  {
    ObjectService reference(trace.num_processors, sc);
    RegisterObjects(reference, trace.num_objects, TestConfig());
    prefix[0] = Capture(reference);
    for (size_t i = 0; i < trace.events.size(); ++i) {
      ASSERT_TRUE(ServeOne(reference, trace.events[i]).ok());
      prefix[i + 1] = Capture(reference);
    }
  }

  const std::string dir = FreshDir("durability_async_crash");
  DurabilityOptions durability;
  durability.group_commit_bytes = 128;  // a few records per group
  durability.group_commit_delay_us = 200;
  ObjectService service(trace.num_processors, sc);
  RegisterObjects(service, trace.num_objects, TestConfig());
  ASSERT_TRUE(service.EnableDurability(dir, durability).ok());
  size_t floor_events = 0;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_TRUE(ServeOne(service, trace.events[i]).ok());
    if (i % 7 != 6) continue;
    const std::string crash = dir + "_img";
    CopyDir(dir, crash);  // may catch the log thread mid-group
    RecoveryReport report;
    auto recovered = ObjectService::Recover(crash, durability, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const size_t events = report.events_replayed;
    ASSERT_LE(events, i + 1);
    ASSERT_GE(events, floor_events) << "durable prefix went backwards";
    floor_events = events;
    EXPECT_EQ(Capture(*recovered), prefix[events])
        << "crash image after event " << i << " is not a prefix";
  }
  // Once synced, everything must be there.
  ASSERT_TRUE(service.SyncDurable().ok());
  const std::string crash = dir + "_img";
  CopyDir(dir, crash);
  RecoveryReport report;
  auto recovered = ObjectService::Recover(crash, durability, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.events_replayed, trace.events.size());
  EXPECT_EQ(Capture(*recovered), prefix[trace.events.size()]);
}

// --- Parallel replay ----------------------------------------------------

// Every `stride`-th event of `events` from `first` on, replaced in turn by
// one the engine refuses: an event on `unknown`, a processor == n and a
// processor -1.
std::vector<MultiObjectEvent> SeedRefused(std::vector<MultiObjectEvent> events,
                                          int num_processors, ObjectId unknown,
                                          size_t first, size_t stride) {
  const MultiObjectEvent refused[] = {
      {unknown, model::Request::Read(1)},
      {3, model::Request::Write(num_processors)},
      {4, model::Request::Read(-1)}};
  for (size_t i = first, k = 0; i < events.size(); i += stride) {
    events[i] = refused[k++ % 3];
  }
  return events;
}

// Replay must be bit-identical however it is scheduled: serial
// record-by-record (replay_batch_events = 0), tiny coalesced super-batches
// (7), and the default (32768), across shard counts and thread counts. The
// history holds refused events, some on an id registered only after them:
// replay must refuse exactly the events the live run refused.
TEST(DurabilityTest, ReplayCoalescingBitIdenticalAcrossShardsAndThreads) {
  const MultiObjectTrace trace = TestTrace(3000);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const ObjectId late = trace.num_objects;
  const std::vector<MultiObjectEvent> history =
      SeedRefused(trace.events, trace.num_processors, late, 5, 97);
  const auto events = std::span<const MultiObjectEvent>(history);
  // Registers the trace's objects, serves 2200 events, registers `late`,
  // serves the rest.
  auto run = [&](ObjectService& service) {
    RegisterObjects(service, trace.num_objects, TestConfig());
    auto before = service.ServeBatch(events.first(2200));
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_GT(before->refused, 0);
    ASSERT_TRUE(service.AddObject(late, TestConfig()).ok());
    auto after = service.ServeBatch(events.subspan(2200));
    ASSERT_TRUE(after.ok()) << after.status().ToString();
  };

  ObjectService reference(trace.num_processors, sc);
  run(reference);
  const StateImage expected = Capture(reference);
  ASSERT_GT(reference.StatsFor(late)->requests, 0);

  for (int shards : {1, 3, 4, 16}) {
    const std::string dir =
        FreshDir("durability_replay_grid_" + std::to_string(shards));
    ServiceOptions options;
    options.num_shards = shards;
    {
      ObjectService service(trace.num_processors, sc, options);
      ASSERT_TRUE(service.EnableDurability(dir).ok());
      run(service);
      EXPECT_EQ(Capture(service), expected);
      // Destructor flushes; the WAL tail is the whole history.
    }
    for (int threads : {1, 2, util::GlobalThreads()}) {
      for (size_t coalesce : {size_t{0}, size_t{7}, size_t{32768}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     " replay_batch_events=" + std::to_string(coalesce));
        ScopedThreads scope(threads);
        DurabilityOptions durability;
        durability.replay_batch_events = coalesce;
        auto recovered = ObjectService::Recover(dir, durability);
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        EXPECT_EQ(Capture(*recovered), expected);
        EXPECT_EQ(recovered->SchemeCrc(), reference.SchemeCrc());
      }
    }
  }
}

// Coalescing stops at fault-control records and while the injector is
// armed — batch boundaries are the rejection unit there. A history that
// interleaves fault windows with traffic, and refused events with both,
// must replay to the live state with coalescing off and on.
TEST(DurabilityTest, FaultModeReplayCoalescingMatchesSerial) {
  const MultiObjectTrace trace = TestTrace(1200);
  const CostModel sc = CostModel::StationaryComputing(0.25, 1.0);
  const std::string dir = FreshDir("durability_fault_coalesce");
  const std::vector<MultiObjectEvent> history = SeedRefused(
      trace.events, trace.num_processors, trace.num_objects + 1, 3, 41);
  StateImage live;
  uint32_t live_crc = 0;
  {
    ObjectService service(trace.num_processors, sc);
    ASSERT_TRUE(service.EnableDurability(dir).ok());
    RegisterObjects(service, trace.num_objects, TestConfig());
    std::span<const MultiObjectEvent> events(history);
    ASSERT_TRUE(service.ServeBatch(events.first(400)).ok());
    FaultInjectorOptions fault_options;
    fault_options.seed = 1234;
    fault_options.crash_rate = 0.02;
    fault_options.recover_rate = 0.5;
    fault_options.data_loss_rate = 0.05;
    ASSERT_TRUE(service.EnableFaults(fault_options, {}).ok());
    for (size_t pos = 400; pos < 800; pos += 50) {
      auto result = service.ServeBatch(events.subspan(pos, 50));
      ASSERT_TRUE(result.ok() ||
                  result.status().code() ==
                      util::StatusCode::kUnavailable);
    }
    service.DisableFaults();
    service.RepairDegraded();
    ASSERT_TRUE(service.ServeBatch(events.subspan(800)).ok());
    live = Capture(service);
    live_crc = service.SchemeCrc();
  }
  DurabilityOptions serial;
  serial.replay_batch_events = 0;
  auto serial_recovered = ObjectService::Recover(dir, serial);
  ASSERT_TRUE(serial_recovered.ok())
      << serial_recovered.status().ToString();
  DurabilityOptions coalesced;
  coalesced.replay_batch_events = 32768;
  auto coalesced_recovered = ObjectService::Recover(dir, coalesced);
  ASSERT_TRUE(coalesced_recovered.ok())
      << coalesced_recovered.status().ToString();
  EXPECT_EQ(Capture(*serial_recovered), live);
  EXPECT_EQ(Capture(*coalesced_recovered), live);
  EXPECT_EQ(serial_recovered->SchemeCrc(), live_crc);
  EXPECT_EQ(coalesced_recovered->SchemeCrc(), live_crc);
}

}  // namespace
}  // namespace objalloc::core
