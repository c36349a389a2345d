// Durable storage substrate: crash-atomic on-disk records with CRC
// verification, and their integration with the simulator's crash/recovery
// path.

#include <cstdio>
#include <fstream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/sim/durable_store.h"
#include "objalloc/sim/simulator.h"
#include "objalloc/util/crc32.h"
#include "objalloc/util/env.h"
#include "objalloc/util/faulty_env.h"

namespace objalloc::sim {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Crc32Test, KnownVector) {
  // The classic IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(util::Crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, SeedChaining) {
  const char* text = "hello world";
  uint32_t whole = util::Crc32(text, 11);
  uint32_t chained = util::Crc32(text + 5, 6, util::Crc32(text, 5));
  EXPECT_EQ(whole, chained);
}

// Per-bit CRC-32 straight from the IEEE polynomial: no tables, so it
// shares nothing with the sliced implementation it checks.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1)));
    }
  }
  return ~crc;
}

// BitwiseCrc32(data, k, seed) for every k <= size, in one pass.
std::vector<uint32_t> BitwisePrefixCrc32s(const unsigned char* data,
                                          size_t size, uint32_t seed) {
  std::vector<uint32_t> prefixes = {seed};
  for (size_t k = 1; k <= size; ++k) {
    prefixes.push_back(BitwiseCrc32(data + k - 1, 1, prefixes.back()));
  }
  return prefixes;
}

TEST(Crc32Test, MatchesBitwiseReference) {
  // Every length to past 4 KiB, at every alignment, on both kernels:
  // util::Crc32, which folds spans of 64 bytes or more with
  // carry-less multiplies where the CPU has them (many 64-byte rounds,
  // then every 16-byte tail and every sliced remainder), and the sliced
  // loop alone, which shorter spans and other CPUs take — called directly,
  // so it stays covered on a host that folds.
  constexpr size_t kMaxLength = 4096 + 3 * 64 + 15;
  std::mt19937 gen(20051);
  std::vector<unsigned char> buffer(kMaxLength + 16);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(gen());
  const uint32_t seeds[] = {0, 0xffffffffu, static_cast<uint32_t>(gen())};
  for (const uint32_t seed : seeds) {
    for (size_t offset = 0; offset < 16; ++offset) {
      const unsigned char* data = buffer.data() + offset;
      const std::vector<uint32_t> expected =
          BitwisePrefixCrc32s(data, kMaxLength, seed);
      for (size_t length = 0; length <= kMaxLength; ++length) {
        ASSERT_EQ(util::Crc32(data, length, seed), expected[length])
            << "seed=" << seed << " offset=" << offset
            << " length=" << length;
        ASSERT_EQ(util::Crc32Sliced(data, length, seed), expected[length])
            << "sliced: seed=" << seed << " offset=" << offset
            << " length=" << length;
      }
    }
  }
  // Chaining across every split point equals the one-shot CRC, so the
  // kernels also meet mid-stream in every combination.
  const size_t kChained = 300;
  const uint32_t whole = BitwiseCrc32(buffer.data(), kChained, 0);
  for (size_t split = 0; split <= kChained; ++split) {
    const uint32_t head = util::Crc32(buffer.data(), split);
    ASSERT_EQ(util::Crc32(buffer.data() + split, kChained - split, head), whole)
        << "split=" << split;
    ASSERT_EQ(util::Crc32Sliced(buffer.data() + split, kChained - split, head),
              whole)
        << "sliced: split=" << split;
  }
}

TEST(DurableStoreTest, MissingFileIsAbsentNotError) {
  DurableObjectStore store(TestPath("never_written.bin"));
  auto snapshot = store.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->present);
}

TEST(DurableStoreTest, PersistLoadRoundTrip) {
  DurableObjectStore store(TestPath("roundtrip.bin"));
  ASSERT_TRUE(store.Persist(42, 0xdeadbeef, true).ok());
  auto snapshot = store.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->present);
  EXPECT_TRUE(snapshot->valid);
  EXPECT_EQ(snapshot->version, 42);
  EXPECT_EQ(snapshot->value, 0xdeadbeefu);
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, OverwriteKeepsLatest) {
  DurableObjectStore store(TestPath("overwrite.bin"));
  ASSERT_TRUE(store.Persist(1, 10, true).ok());
  ASSERT_TRUE(store.Persist(2, 20, false).ok());
  auto snapshot = store.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 2);
  EXPECT_FALSE(snapshot->valid);
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, SurvivesReopen) {
  std::string path = TestPath("reopen.bin");
  {
    DurableObjectStore store(path);
    ASSERT_TRUE(store.Persist(7, 70, true).ok());
  }
  DurableObjectStore reopened(path);
  auto snapshot = reopened.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 7);
  ASSERT_TRUE(reopened.Remove().ok());
}

TEST(DurableStoreTest, DetectsCorruption) {
  std::string path = TestPath("corrupt.bin");
  DurableObjectStore store(path);
  ASSERT_TRUE(store.Persist(9, 90, true).ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(10);
    char byte = 0x5a;
    file.write(&byte, 1);
  }
  auto snapshot = store.Load();
  EXPECT_FALSE(snapshot.ok());
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, StaleTempFileIsSweptNotServed) {
  // A crash between writing the temp file and the rename strands
  // `path + ".tmp"`; Load must ignore it (the record was never published)
  // and clean it up so it cannot shadow a later Persist.
  std::string path = TestPath("stale_tmp.bin");
  DurableObjectStore store(path);
  ASSERT_TRUE(store.Persist(3, 30, true).ok());
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary | std::ios::trunc);
    tmp << "half-written garbage";
  }
  auto snapshot = store.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 3);
  EXPECT_EQ(snapshot->value, 30u);
  std::ifstream check(path + ".tmp");
  EXPECT_FALSE(check.good()) << "stale temp file must be removed";
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, DetectsTruncation) {
  std::string path = TestPath("truncated.bin");
  DurableObjectStore store(path);
  ASSERT_TRUE(store.Persist(9, 90, true).ok());
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << "xyz";
  }
  EXPECT_FALSE(store.Load().ok());
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, InjectedWriteFaultSurfacesFromPersist) {
  // The store's IO rides the util::Env seam, so a scripted disk fault
  // surfaces as a Persist error — and the previously published record
  // survives untouched (atomic publish: old or new, never a mix).
  std::string path = TestPath("faulty_persist.bin");
  util::FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  DurableObjectStore store(path);
  ASSERT_TRUE(store.Persist(1, 10, true).ok());

  faulty.SetPlan({faulty.op_count(), util::FaultKind::kEio,
                  util::FaultPlan::kForever});
  EXPECT_FALSE(store.Persist(2, 20, true).ok());

  faulty.ClearPlan();
  auto snapshot = store.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 1);
  EXPECT_EQ(snapshot->value, 10u);
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, InjectedReadFaultSurfacesFromLoad) {
  std::string path = TestPath("faulty_load.bin");
  util::FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  DurableObjectStore store(path);
  ASSERT_TRUE(store.Persist(5, 50, true).ok());

  faulty.SetPlan({faulty.op_count(), util::FaultKind::kEio,
                  util::FaultPlan::kForever});
  EXPECT_FALSE(store.Load().ok());

  faulty.ClearPlan();
  EXPECT_TRUE(store.Load().ok());
  ASSERT_TRUE(store.Remove().ok());
}

TEST(DurableStoreTest, BitFlipOnTheWireIsCaughtByTheCrc) {
  // A read that silently corrupts one bit (bad cable, bad DRAM on the
  // controller) must be indistinguishable from on-disk corruption: the
  // record CRC rejects it.
  std::string path = TestPath("faulty_flip.bin");
  util::FaultyEnv faulty;
  util::ScopedEnv scoped(&faulty);
  DurableObjectStore store(path);
  ASSERT_TRUE(store.Persist(6, 60, true).ok());

  // The Load sequence is Open, then the data-carrying Read.
  faulty.SetPlan({faulty.op_count() + 1, util::FaultKind::kBitFlipRead, 1});
  EXPECT_FALSE(store.Load().ok());

  faulty.ClearPlan();
  auto snapshot = store.Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 6);
  ASSERT_TRUE(store.Remove().ok());
}

// ----------------------------------------------- Simulator integration

SimulatorOptions DurableOptions(ProtocolKind kind) {
  SimulatorOptions options;
  options.protocol = kind;
  options.num_processors = 5;
  options.initial_scheme = util::ProcessorSet{0, 1};
  options.durable_dir = ::testing::TempDir();
  return options;
}

TEST(DurableSimulatorTest, CrashLosesVolatileStateRecoveryReloads) {
  Simulator sim(DurableOptions(ProtocolKind::kQuorum));
  ASSERT_TRUE(sim.SubmitWrite(2, 11).ok);
  // Processor 2 holds version 1 on disk.
  sim.Crash(2);
  EXPECT_FALSE(sim.database(2).has_copy()) << "volatile image lost";
  sim.Recover(2);
  EXPECT_TRUE(sim.database(2).has_copy()) << "reloaded from disk";
  EXPECT_EQ(sim.database(2).version(), 1);
}

TEST(DurableSimulatorTest, RecoveredQuorumNodeServesAsVersionHolder) {
  Simulator sim(DurableOptions(ProtocolKind::kQuorum));
  ASSERT_TRUE(sim.SubmitWrite(2, 11).ok);  // quorum {2, 0, 1}
  sim.Crash(0);
  sim.Crash(1);
  sim.Recover(0);
  sim.Recover(1);
  sim.Crash(2);  // the writer goes down; 0 or 1 must still hold v1
  RequestOutcome outcome = sim.SubmitRead(4);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.value, 11u);
  EXPECT_FALSE(outcome.stale);
}

TEST(DurableSimulatorTest, DaStillDistrustsRecoveredCopyInNormalMode) {
  Simulator sim(DurableOptions(ProtocolKind::kDynamic));
  // Joiner 3 gets a copy, then misses nothing — but after a crash its copy
  // must not be trusted in normal mode (invalidations may have been lost).
  ASSERT_TRUE(sim.SubmitRead(3).ok);
  sim.Crash(3);
  sim.Recover(3);
  EXPECT_FALSE(sim.database(3).has_copy());
  RequestOutcome outcome = sim.SubmitRead(3);  // re-fetches
  ASSERT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.stale);
}

TEST(DurableSimulatorTest, NoStaleReadsWithDurableBackingUnderChurn) {
  Simulator sim(DurableOptions(ProtocolKind::kDynamic));
  ASSERT_TRUE(sim.SubmitWrite(2, 1).ok);
  sim.Crash(0);
  ASSERT_TRUE(sim.SubmitWrite(3, 2).ok);  // failover
  sim.Recover(0);
  ASSERT_TRUE(sim.SubmitWrite(4, 3).ok);
  RequestOutcome outcome = sim.SubmitRead(0);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.value, 3u);
  EXPECT_EQ(sim.metrics().stale_reads, 0);
}

}  // namespace
}  // namespace objalloc::sim
