#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/util/ascii_plot.h"
#include "objalloc/util/csv.h"
#include "objalloc/util/flat_directory.h"
#include "objalloc/util/huge_pages.h"
#include "objalloc/util/processor_set.h"
#include "objalloc/util/rng.h"
#include "objalloc/util/spsc_queue.h"
#include "objalloc/util/stats.h"
#include "objalloc/util/status.h"

namespace objalloc::util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad t");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad t");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusTest, StatusOrHoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, RejectionTaxonomy) {
  // Transient rejections: nothing was applied, a retry can succeed. The
  // wire protocol (net/wire.h) and the library agree on this partition.
  EXPECT_TRUE(IsTransientRejection(Status::Unavailable("degraded")));
  EXPECT_TRUE(IsTransientRejection(Status::Timeout("deadline")));
  EXPECT_TRUE(IsTransientRejection(Status::Overloaded("shed")));
  EXPECT_FALSE(IsTransientRejection(Status::NotFound("missing")));
  EXPECT_FALSE(IsTransientRejection(Status::Internal("bug")));
  EXPECT_FALSE(IsTransientRejection(Status::Ok()));

  // Caller errors: retrying verbatim cannot help.
  EXPECT_TRUE(IsCallerError(Status::InvalidArgument("bad")));
  EXPECT_TRUE(IsCallerError(Status::NotFound("missing")));
  EXPECT_TRUE(IsCallerError(Status::OutOfRange("processor 99")));
  EXPECT_FALSE(IsCallerError(Status::Overloaded("shed")));
  EXPECT_FALSE(IsCallerError(Status::Internal("bug")));

  EXPECT_EQ(Status::Timeout("t").ToString(), "TIMEOUT: t");
  EXPECT_EQ(Status::Overloaded("o").ToString(), "OVERLOADED: o");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = [](bool fail) {
    return fail ? Status::Internal("boom") : Status::Ok();
  };
  auto outer = [&](bool fail) -> Status {
    OBJALLOC_RETURN_IF_ERROR(inner(fail));
    return Status::Ok();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_EQ(outer(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------- ProcessorSet

TEST(ProcessorSetTest, EmptyByDefault) {
  ProcessorSet set;
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Size(), 0);
}

TEST(ProcessorSetTest, InsertEraseContains) {
  ProcessorSet set;
  set.Insert(3);
  set.Insert(5);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(4));
  EXPECT_EQ(set.Size(), 2);
  set.Erase(3);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.Size(), 1);
}

TEST(ProcessorSetTest, InitializerList) {
  ProcessorSet set{0, 2, 63};
  EXPECT_EQ(set.Size(), 3);
  EXPECT_TRUE(set.Contains(63));
}

TEST(ProcessorSetTest, FirstN) {
  EXPECT_EQ(ProcessorSet::FirstN(0).Size(), 0);
  EXPECT_EQ(ProcessorSet::FirstN(3), (ProcessorSet{0, 1, 2}));
  EXPECT_EQ(ProcessorSet::FirstN(64).Size(), 64);
}

TEST(ProcessorSetTest, SetAlgebra) {
  ProcessorSet a{0, 1, 2};
  ProcessorSet b{2, 3};
  EXPECT_EQ(a.Union(b), (ProcessorSet{0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), ProcessorSet{2});
  EXPECT_EQ(a.Minus(b), (ProcessorSet{0, 1}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Minus(b).Intersects(b));
  EXPECT_TRUE((ProcessorSet{1}).IsSubsetOf(a));
  EXPECT_FALSE(b.IsSubsetOf(a));
}

TEST(ProcessorSetTest, FirstAndToVector) {
  ProcessorSet set{5, 1, 9};
  EXPECT_EQ(set.First(), 1);
  EXPECT_EQ(set.ToVector(), (std::vector<ProcessorId>{1, 5, 9}));
}

TEST(ProcessorSetTest, ToStringIsSorted) {
  EXPECT_EQ((ProcessorSet{3, 0, 5}).ToString(), "{0,3,5}");
  EXPECT_EQ(ProcessorSet().ToString(), "{}");
}

TEST(ProcessorSetTest, WithInsertedDoesNotMutate) {
  ProcessorSet set{1};
  ProcessorSet grown = set.WithInserted(2);
  EXPECT_EQ(set.Size(), 1);
  EXPECT_EQ(grown.Size(), 2);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 10; ++i) differ += a.Next() != b.Next();
  EXPECT_GT(differ, 5);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(10), 10u);
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(7);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.NextBounded(5)];
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedSamplingRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(23);
  Rng b = a.Fork();
  // The fork must not replay the parent's stream.
  int equal = 0;
  for (int i = 0; i < 20; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

// ------------------------------------------------------- FlatDirectory

TEST(FlatDirectoryTest, HeavyGrowthKeepsEveryMapping) {
  // 50k sparse keys through repeated rehashes: every mapping must survive,
  // and keys never inserted must stay absent.
  FlatDirectory<uint32_t> directory;
  Rng rng(41);
  std::vector<int64_t> keys;
  keys.reserve(50000);
  while (keys.size() < 50000) {
    const auto key = static_cast<int64_t>(rng.Next() >> 1);
    if (directory.Contains(key)) continue;
    directory.Insert(key, static_cast<uint32_t>(keys.size()));
    keys.push_back(key);
  }
  EXPECT_EQ(directory.size(), 50000u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(directory.Find(keys[i]), static_cast<uint32_t>(i))
        << "key " << keys[i];
  }
  for (int i = 0; i < 1000; ++i) {
    const auto absent = static_cast<int64_t>(-2 - i);
    EXPECT_EQ(directory.Find(absent), FlatDirectory<uint32_t>::kNotFound);
  }
}

TEST(FlatDirectoryTest, EraseLeavesProbeChainsIntact) {
  // Keys that collide into shared probe chains: erasing one in the middle
  // must not hide the ones that probed past it.
  FlatDirectory<uint32_t> directory;
  for (int64_t key = 0; key < 64; ++key) {
    directory.Insert(key, static_cast<uint32_t>(key + 100));
  }
  // Erase every third key, then verify all survivors resolve.
  for (int64_t key = 0; key < 64; key += 3) {
    EXPECT_TRUE(directory.Erase(key));
    EXPECT_FALSE(directory.Erase(key));  // second erase: already gone
  }
  EXPECT_EQ(directory.size(), 64u - 22u);
  for (int64_t key = 0; key < 64; ++key) {
    if (key % 3 == 0) {
      EXPECT_EQ(directory.Find(key), FlatDirectory<uint32_t>::kNotFound);
    } else {
      EXPECT_EQ(directory.Find(key), static_cast<uint32_t>(key + 100));
    }
  }
  // Erased keys can rejoin (tombstone reuse on the same chain).
  for (int64_t key = 0; key < 64; key += 3) {
    directory.Insert(key, static_cast<uint32_t>(key + 500));
  }
  EXPECT_EQ(directory.size(), 64u);
  for (int64_t key = 0; key < 64; key += 3) {
    EXPECT_EQ(directory.Find(key), static_cast<uint32_t>(key + 500));
  }
}

TEST(FlatDirectoryTest, InsertEraseChurnMatchesReferenceMap) {
  // Randomized churn over a small key universe forces heavy tombstone
  // traffic and tombstone-dropping rehashes; a reference map arbitrates.
  FlatDirectory<uint32_t> directory;
  std::vector<int64_t> live_value(512, -1);  // -1 = absent, else value
  Rng rng(43);
  for (int step = 0; step < 200000; ++step) {
    const auto key = static_cast<int64_t>(rng.NextBounded(512));
    if (live_value[static_cast<size_t>(key)] >= 0) {
      EXPECT_TRUE(directory.Erase(key));
      live_value[static_cast<size_t>(key)] = -1;
    } else {
      const auto value = static_cast<uint32_t>(rng.NextBounded(1 << 20));
      directory.Insert(key, value);
      live_value[static_cast<size_t>(key)] = value;
    }
    if (step % 4096 == 0) {
      for (int64_t k = 0; k < 512; ++k) {
        const int64_t expected = live_value[static_cast<size_t>(k)];
        ASSERT_EQ(directory.Find(k),
                  expected < 0 ? FlatDirectory<uint32_t>::kNotFound
                               : static_cast<uint32_t>(expected))
            << "step " << step << " key " << k;
      }
    }
  }
  size_t live = 0;
  for (const int64_t v : live_value) live += v >= 0;
  EXPECT_EQ(directory.size(), live);
}

TEST(FlatDirectoryTest, MillionEntryGrowthErasureAndProbeLengths) {
  // The storage engine's registration pattern at full scale: a million
  // sequential ids through incremental growth. Every mapping must survive,
  // memory must stay near the 12-bytes-per-bucket ideal (a migration in
  // flight briefly holds both tables), and probe chains must stay short —
  // long chains would silently turn every million-object serve into a
  // cache-miss crawl.
  FlatDirectory<uint32_t> directory;
  constexpr int64_t kEntries = 1000000;
  for (int64_t key = 0; key < kEntries; ++key) {
    directory.Insert(key, static_cast<uint32_t>(key));
  }
  ASSERT_EQ(directory.size(), static_cast<size_t>(kEntries));
  // 12 bytes/bucket; the worst landing spot is a freshly doubled table
  // (~4M buckets for 1M keys) plus a migration's tail of the old one.
  EXPECT_LE(directory.MemoryUsageBytes(),
            static_cast<size_t>(kEntries) * 80);

  size_t total_probe = 0;
  constexpr int64_t kSample = 10000;
  for (int64_t key = 0; key < kSample; ++key) {
    ASSERT_EQ(directory.Find(key * (kEntries / kSample)),
              static_cast<uint32_t>(key * (kEntries / kSample)));
    total_probe += directory.ProbeLength(key * (kEntries / kSample));
  }
  EXPECT_LT(static_cast<double>(total_probe) / kSample, 4.0)
      << "mean probe length degraded at the million-entry load";

  // Erase every even key; odd keys and their probe chains must survive,
  // and the erased half must stay gone through the tombstone traffic.
  for (int64_t key = 0; key < kEntries; key += 2) {
    ASSERT_TRUE(directory.Erase(key));
  }
  ASSERT_EQ(directory.size(), static_cast<size_t>(kEntries) / 2);
  for (int64_t key = 1; key < kEntries; key += 1000) {
    ASSERT_EQ(directory.Find(key), static_cast<uint32_t>(key));
  }
  for (int64_t key = 0; key < kEntries; key += 1000) {
    ASSERT_EQ(directory.Find(key), FlatDirectory<uint32_t>::kNotFound);
  }
  // Erased ids can re-register (the engine reuses freed slots).
  for (int64_t key = 0; key < kEntries; key += 2) {
    directory.Insert(key, static_cast<uint32_t>(key + 1));
  }
  ASSERT_EQ(directory.size(), static_cast<size_t>(kEntries));
  for (int64_t key = 0; key < kEntries; key += 1000) {
    ASSERT_EQ(directory.Find(key), static_cast<uint32_t>(key + 1));
  }
}

TEST(FlatDirectoryTest, KeysHomedInLineStraddlingBucketsAreFound) {
  // A packed 12-byte bucket starting in the last 11 bytes of a cache line
  // spans two lines: buckets 5 and 10 of every 16 in a line-aligned array.
  // Reserve a mapped (2 MiB-aligned) table, so bucket offsets are offsets
  // from a line boundary, and check every key homed in such a bucket.
  using Directory = FlatDirectory<uint32_t>;
  static_assert(sizeof(Directory::Bucket) == 12);
  Directory directory;
  directory.Reserve(150000);
  ASSERT_GE(directory.MemoryUsageBytes(), kHugePageBytes);
  // A key's home is the top log2(capacity) bits of its hash.
  const int shift = 64 - std::countr_zero(directory.capacity());
  for (int64_t key = 0; key < 150000; ++key) {
    directory.Insert(key, static_cast<uint32_t>(key * 7));
  }
  size_t straddling = 0;
  for (int64_t key = 0; key < 150000; ++key) {
    const uint64_t hash = Directory::Hash(key);
    directory.PrefetchHash(hash);
    ASSERT_EQ(directory.FindHashed(key, hash), static_cast<uint32_t>(key * 7));
    ASSERT_EQ(directory.Find(key), static_cast<uint32_t>(key * 7));
    const size_t offset = (hash >> shift) * sizeof(Directory::Bucket);
    if (offset % 64 > 64 - sizeof(Directory::Bucket)) ++straddling;
  }
  EXPECT_GT(straddling, size_t{150000} / 16) << "expected ~2/16 of homes";
  for (int64_t key = -1; key > -1000; --key) {
    ASSERT_EQ(directory.FindHashed(key, Directory::Hash(key)),
              Directory::kNotFound);
  }
}

TEST(FlatDirectoryTest, KeysSharingLowHashBitsProbeShort) {
  // A sharded service picks an id's shard from the low bits of the same
  // hash, so every key in one shard's directory shares them (here the low 4
  // bits: shard 0 of 16). Homed by those bits, such keys could use only
  // 1/16 of the buckets and would probe ~5 deep; homed by the high bits
  // they probe like random keys. The table is reserved the way
  // ObjectService::ReserveObjects sizes one shard's directory.
  using Directory = FlatDirectory<uint32_t>;
  constexpr size_t kKeys = 60000;
  std::vector<int64_t> keys;
  std::vector<int64_t> absent;
  for (int64_t key = 0; keys.size() < kKeys || absent.size() < kKeys;
       ++key) {
    if ((Directory::Hash(key) & 15) != 0) continue;
    (keys.size() < kKeys ? keys : absent).push_back(key);
  }
  Directory directory;
  directory.Reserve(kKeys + 4 * static_cast<size_t>(std::sqrt(kKeys)) + 16);
  for (const int64_t key : keys) {
    directory.Insert(key, static_cast<uint32_t>(key));
  }
  size_t hit_probes = 0;
  for (const int64_t key : keys) hit_probes += directory.ProbeLength(key);
  size_t miss_probes = 0;
  for (const int64_t key : absent) miss_probes += directory.ProbeLength(key);
  const double hit_mean = static_cast<double>(hit_probes) / kKeys;
  const double miss_mean = static_cast<double>(miss_probes) / kKeys;
  EXPECT_LE(hit_mean, 2.0) << "mean buckets probed per hit";
  EXPECT_LE(miss_mean, 3.0) << "mean buckets probed per miss";
}

TEST(FlatDirectoryTest, MigrationCrossesTheHugePageThresholdBothWays) {
  // 2^17 buckets (1.5 MiB) live on the heap, 2^18 (3 MiB) are mapped. Grow
  // across that line under erase churn, then erase down and churn until a
  // tombstone compaction migrates back below it; a reference map arbitrates
  // throughout, and memory is capacity x 12 bytes at every step.
  using Directory = FlatDirectory<uint32_t>;
  const uint64_t mapped_before = HugePageMappingsLive();
  Directory directory;
  std::unordered_map<int64_t, uint32_t> reference;
  std::vector<int64_t> present;
  Rng rng(47);
  int64_t next_key = 0;
  const auto insert_fresh = [&] {
    const int64_t key = next_key++;
    const auto value = static_cast<uint32_t>(key ^ 0x5a5a);
    directory.Insert(key, value);
    reference.emplace(key, value);
    present.push_back(key);
  };
  const auto erase_random = [&] {
    const size_t at = rng.NextBounded(present.size());
    ASSERT_TRUE(directory.Erase(present[at]));
    reference.erase(present[at]);
    present[at] = present.back();
    present.pop_back();
  };
  const auto check_all = [&] {
    ASSERT_EQ(directory.size(), reference.size());
    ASSERT_EQ(directory.MemoryUsageBytes(),
              directory.capacity() * sizeof(Directory::Bucket));
    for (int64_t key = 0; key < next_key; ++key) {
      const auto it = reference.find(key);
      ASSERT_EQ(directory.Find(key),
                it == reference.end() ? Directory::kNotFound : it->second)
          << "key " << key;
    }
  };

  // Up: two inserts per erase.
  while (present.size() < 120000) {
    insert_fresh();
    if (next_key % 3 == 0) erase_random();
    ASSERT_EQ(directory.MemoryUsageBytes(),
              directory.capacity() * sizeof(Directory::Bucket));
  }
  check_all();
  EXPECT_GE(directory.MemoryUsageBytes(), kHugePageBytes);
  EXPECT_GT(HugePageMappingsLive(), mapped_before);

  // Down: keep 1000 entries, then insert/erase until a compaction lands
  // the table below 2 MiB and its drain frees the mapped one.
  while (present.size() > 1000) erase_random();
  int steps = 0;
  while (directory.migrating() ||
         directory.MemoryUsageBytes() >= kHugePageBytes) {
    ASSERT_LT(++steps, 2000000) << "churn never compacted the table";
    insert_fresh();
    erase_random();
    ASSERT_EQ(directory.MemoryUsageBytes(),
              directory.capacity() * sizeof(Directory::Bucket));
  }
  check_all();
  EXPECT_EQ(HugePageMappingsLive(), mapped_before);
}

// ----------------------------------------------------------- HugePageArray

TEST(HugePageArrayTest, MapsOnlyLargeArraysAlignedAndUnmapsOnFree) {
  const uint64_t made = HugePageMappingsMade();
  ASSERT_EQ(HugePageMappingsLive(), 0u);
  {
    HugePageArray<uint8_t> small(kHugePageBytes - 1, 7);
    EXPECT_FALSE(small.mapped());
    EXPECT_EQ(HugePageMappingsMade(), made);

    HugePageArray<uint8_t> large(kHugePageBytes + 1, 7);
    EXPECT_TRUE(large.mapped());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(large.data()) % kHugePageBytes, 0u);
    EXPECT_EQ(HugePageMappingsMade(), made + 1);
    EXPECT_EQ(HugePageMappingsLive(), 1u);
    EXPECT_EQ(large[0], 7);
    EXPECT_EQ(large[kHugePageBytes], 7);
    large[kHugePageBytes] = 9;

    // A move hands the mapping over; nothing is remapped or copied.
    const uint8_t* data = large.data();
    HugePageArray<uint8_t> moved(std::move(large));
    EXPECT_TRUE(large.empty());
    EXPECT_EQ(moved.data(), data);
    EXPECT_EQ(moved[kHugePageBytes], 9);
    small = std::move(moved);  // frees the heap array, takes the mapping
    EXPECT_EQ(small.data(), data);
    EXPECT_EQ(HugePageMappingsMade(), made + 1);
    EXPECT_EQ(HugePageMappingsLive(), 1u);
  }
  EXPECT_EQ(HugePageMappingsLive(), 0u);

  // Over-aligned element types keep their alignment on the heap path.
  struct alignas(64) Line {
    char bytes[64];
  };
  HugePageArray<Line> lines(3, Line{});
  EXPECT_FALSE(lines.mapped());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(lines.data()) % 64, 0u);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(29);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 8000.0, 0.25, 0.05);
}

TEST(ZipfTest, SkewFavorsLowIds) {
  Rng rng(31);
  ZipfSampler zipf(8, 1.2);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[7] * 3);
}

// ---------------------------------------------------------------- Stats

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a, b, combined;
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    double x = rng.NextDouble() * 10;
    (i % 2 == 0 ? a : b).Add(x);
    combined.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
}

TEST(PercentileTest, MedianAndTails) {
  PercentileTracker tracker;
  for (int i = 1; i <= 100; ++i) tracker.Add(i);
  EXPECT_DOUBLE_EQ(tracker.Median(), 50);
  EXPECT_DOUBLE_EQ(tracker.Percentile(0.99), 99);
  EXPECT_DOUBLE_EQ(tracker.Percentile(0.0), 1);
  EXPECT_DOUBLE_EQ(tracker.Percentile(1.0), 100);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AlignedOutput) {
  Table table({"name", "value"});
  table.AddRow().Cell("alpha").Cell(int64_t{1});
  table.AddRow().Cell("beta,with comma").Cell(2.5, 1);
  std::ostringstream aligned;
  table.WriteAligned(aligned);
  EXPECT_NE(aligned.str().find("alpha"), std::string::npos);
  EXPECT_NE(aligned.str().find("----"), std::string::npos);
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(1.5, 2), "1.50");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
}

// ----------------------------------------------------------- SpscQueue

TEST(SpscQueueTest, StartsEmpty) {
  SpscQueue<int> queue(4);
  EXPECT_TRUE(queue.EmptyApprox());
  EXPECT_EQ(queue.SizeApprox(), 0u);
  int value = -1;
  EXPECT_FALSE(queue.TryPop(&value));
  EXPECT_EQ(value, -1);
}

TEST(SpscQueueTest, FifoOrderWithinCapacity) {
  SpscQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.TryPush(i));
  EXPECT_EQ(queue.SizeApprox(), 8u);
  for (int i = 0; i < 8; ++i) {
    int value = -1;
    EXPECT_TRUE(queue.TryPop(&value));
    EXPECT_EQ(value, i);
  }
  EXPECT_TRUE(queue.EmptyApprox());
}

TEST(SpscQueueTest, RejectsPushWhenFullUntilPop) {
  SpscQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // exact capacity, not the pow2 storage
  int value = 0;
  EXPECT_TRUE(queue.TryPop(&value));
  EXPECT_EQ(value, 1);
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_FALSE(queue.TryPush(4));
}

TEST(SpscQueueTest, CapacityOneAlternates) {
  SpscQueue<int> queue(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(queue.TryPush(i));
    EXPECT_FALSE(queue.TryPush(i + 1000));
    int value = -1;
    EXPECT_TRUE(queue.TryPop(&value));
    EXPECT_EQ(value, i);
    EXPECT_FALSE(queue.TryPop(&value));
  }
}

TEST(SpscQueueTest, WraparoundPreservesOrder) {
  // Non-pow2 capacity forces the mask to cover a larger storage array;
  // push/pop in unequal strides so head and tail lap the ring repeatedly.
  SpscQueue<int> queue(3);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 1000; ++round) {
    while (queue.TryPush(next_push)) ++next_push;
    int value = -1;
    ASSERT_TRUE(queue.TryPop(&value));
    ASSERT_EQ(value, next_pop);
    ++next_pop;
    if (round % 3 == 0) {
      while (queue.TryPop(&value)) {
        ASSERT_EQ(value, next_pop);
        ++next_pop;
      }
    }
  }
  EXPECT_GT(next_push, 1000);  // the ring really did wrap many times
}

// ----------------------------------------------------------- RegionPlot

TEST(RegionPlotTest, RendersClassifierOutput) {
  RegionPlot plot(0, 2, 0, 1, 20, 6);
  plot.AddLegend('A', "above diagonal");
  std::string out = plot.Render([](double x, double y) {
    return y > x ? 'A' : 'B';
  });
  EXPECT_NE(out.find('A'), std::string::npos);
  EXPECT_NE(out.find('B'), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
}

}  // namespace
}  // namespace objalloc::util
