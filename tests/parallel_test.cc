// Determinism contract of the parallel layer: every parallel compute path
// must produce bit-identical results for threads = 1, 2, and the hardware
// default, and across repeated runs with the same seed. These tests force
// thread counts with ScopedThreads; the pool grows workers on demand, so the
// multi-threaded paths are exercised even on single-core machines.

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/analysis/adversarial_search.h"
#include "objalloc/analysis/competitive.h"
#include "objalloc/analysis/region_map.h"
#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/opt/exact_opt.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/rng.h"
#include "objalloc/workload/ensemble.h"
#include "objalloc/workload/uniform.h"

namespace objalloc {
namespace {

using util::ParallelFor;
using util::ScopedThreads;

// The thread counts every determinism assertion sweeps over.
std::vector<int> ThreadCounts() { return {1, 2, util::GlobalThreads()}; }

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedThreads threads(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(0, kCount, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyAndTinyRangesRunInline) {
  ScopedThreads threads(8);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range below two grains must be one inline call on this thread.
  ParallelFor(0, 10, 16, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
    EXPECT_FALSE(util::InParallelWorker());
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedCallsRunSeriallyInsideWorkers) {
  ScopedThreads threads(4);
  std::atomic<int> nested_chunks{0};
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    // Inner loops from pool workers must not re-enter the pool; the caller
    // thread's chunk may legitimately split further.
    if (util::InParallelWorker()) {
      ParallelFor(0, 1000, 1, [&](size_t lo, size_t hi) {
        nested_chunks.fetch_add(1);
        EXPECT_EQ(hi - lo, 1000u);
      });
    }
  });
  SUCCEED();
}

TEST(ParallelForTest, PropagatesExceptions) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [&](size_t lo, size_t) {
                    if (lo >= 500) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(SubSeedTest, DependsOnBothBaseAndIndex) {
  EXPECT_NE(util::SubSeed(1, 0), util::SubSeed(1, 1));
  EXPECT_NE(util::SubSeed(1, 0), util::SubSeed(2, 0));
  EXPECT_EQ(util::SubSeed(42, 7), util::SubSeed(42, 7));
}

TEST(ParallelDeterminismTest, ExactOptCostIsBitIdenticalAcrossThreadCounts) {
  // n = 14 exceeds the DP's parallel grain, so the lattice sweeps really
  // split across workers.
  workload::UniformWorkload uniform(0.6);
  model::Schedule schedule = uniform.Generate(14, 120, 77);
  model::CostModel sc = model::CostModel::StationaryComputing(0.3, 0.8);
  const model::ProcessorSet initial = model::ProcessorSet::FirstN(3);

  double reference = 0;
  {
    ScopedThreads threads(1);
    reference = opt::ExactOptCost(sc, schedule, initial);
  }
  for (int count : ThreadCounts()) {
    ScopedThreads threads(count);
    EXPECT_EQ(opt::ExactOptCost(sc, schedule, initial), reference)
        << "threads=" << count;
    EXPECT_EQ(opt::ExactOptCost(sc, schedule, initial), reference)
        << "repeat, threads=" << count;
  }
}

TEST(ParallelDeterminismTest, ExactOptScheduleReconstructionMatches) {
  workload::UniformWorkload uniform(0.5);
  model::Schedule schedule = uniform.Generate(9, 80, 123);
  model::CostModel mc = model::CostModel::MobileComputing(0.2, 0.9);
  const model::ProcessorSet initial = model::ProcessorSet::FirstN(2);

  std::string reference;
  {
    ScopedThreads threads(1);
    reference = opt::ExactOptSchedule(mc, schedule, initial).ToString();
  }
  for (int count : ThreadCounts()) {
    ScopedThreads threads(count);
    EXPECT_EQ(opt::ExactOptSchedule(mc, schedule, initial).ToString(),
              reference)
        << "threads=" << count;
  }
}

analysis::RegionSweepOptions SmallSweep() {
  analysis::RegionSweepOptions options;
  options.mobile = false;
  options.cd_values = {0.1, 0.6, 1.5};
  options.cc_values = {0.05, 0.4};
  options.ratio.num_processors = 6;
  options.ratio.schedule_length = 40;
  options.ratio.seeds_per_generator = 2;
  return options;
}

TEST(ParallelDeterminismTest, RegionSweepIsBitIdenticalAcrossThreadCounts) {
  std::vector<analysis::RegionPoint> reference;
  {
    ScopedThreads threads(1);
    reference = analysis::SweepRegions(SmallSweep());
  }
  ASSERT_FALSE(reference.empty());
  for (int count : ThreadCounts()) {
    ScopedThreads threads(count);
    auto points = analysis::SweepRegions(SmallSweep());
    ASSERT_EQ(points.size(), reference.size()) << "threads=" << count;
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].cc, reference[i].cc);
      EXPECT_EQ(points[i].cd, reference[i].cd);
      EXPECT_EQ(points[i].sa_worst_ratio, reference[i].sa_worst_ratio)
          << "threads=" << count << " point " << i;
      EXPECT_EQ(points[i].da_worst_ratio, reference[i].da_worst_ratio)
          << "threads=" << count << " point " << i;
      EXPECT_EQ(points[i].sa_mean_ratio, reference[i].sa_mean_ratio)
          << "threads=" << count << " point " << i;
      EXPECT_EQ(points[i].da_mean_ratio, reference[i].da_mean_ratio)
          << "threads=" << count << " point " << i;
      EXPECT_EQ(points[i].empirical, reference[i].empirical);
    }
  }
}

TEST(ParallelDeterminismTest, CompetitiveRatioIsBitIdentical) {
  analysis::RatioOptions options;
  options.num_processors = 6;
  options.schedule_length = 50;
  options.seeds_per_generator = 2;

  core::DynamicAllocation da;
  model::CostModel sc = model::CostModel::StationaryComputing(0.25, 0.5);
  auto generators = workload::WorstCaseEnsemble(options.t);

  analysis::RatioSummary reference;
  {
    ScopedThreads threads(1);
    reference = analysis::MeasureCompetitiveRatio(da, sc, generators,
                                                  options);
  }
  for (int count : ThreadCounts()) {
    ScopedThreads threads(count);
    analysis::RatioSummary summary =
        analysis::MeasureCompetitiveRatio(da, sc, generators, options);
    EXPECT_EQ(summary.mean_ratio, reference.mean_ratio)
        << "threads=" << count;
    EXPECT_EQ(summary.worst.ratio, reference.worst.ratio);
    EXPECT_EQ(summary.worst.seed, reference.worst.seed);
    ASSERT_EQ(summary.samples.size(), reference.samples.size());
    for (size_t i = 0; i < summary.samples.size(); ++i) {
      EXPECT_EQ(summary.samples[i].seed, reference.samples[i].seed);
      EXPECT_EQ(summary.samples[i].ratio, reference.samples[i].ratio);
    }
  }
}

TEST(ParallelDeterminismTest, AdversarialSearchIsBitIdentical) {
  analysis::SearchOptions options;
  options.num_processors = 5;
  options.t = 2;
  options.schedule_length = 25;
  options.max_length = 50;
  options.iterations = 60;
  options.restarts = 3;

  core::DynamicAllocation da;
  model::CostModel sc = model::CostModel::StationaryComputing(0.2, 0.4);

  analysis::SearchResult reference;
  {
    ScopedThreads threads(1);
    reference = analysis::FindAdversarialSchedule(da, sc, options);
  }
  for (int count : ThreadCounts()) {
    ScopedThreads threads(count);
    analysis::SearchResult result =
        analysis::FindAdversarialSchedule(da, sc, options);
    EXPECT_EQ(result.best_ratio, reference.best_ratio)
        << "threads=" << count;
    EXPECT_EQ(result.best_schedule.ToString(),
              reference.best_schedule.ToString());
    EXPECT_EQ(result.evaluations, reference.evaluations);
  }
}

TEST(ProcessorSetIterationTest, IteratorMatchesToVector) {
  const model::ProcessorSet sets[] = {
      model::ProcessorSet{}, model::ProcessorSet{0},
      model::ProcessorSet{3, 17, 41, 63}, model::ProcessorSet::FirstN(64)};
  for (const auto& set : sets) {
    std::vector<util::ProcessorId> via_iterator;
    for (util::ProcessorId id : set) via_iterator.push_back(id);
    EXPECT_EQ(via_iterator, set.ToVector());
  }
}

TEST(ProcessorSetIterationTest, LastAndNth) {
  const model::ProcessorSet set{2, 5, 9, 63};
  EXPECT_EQ(set.Last(), 63);
  EXPECT_EQ(set.Nth(0), 2);
  EXPECT_EQ(set.Nth(1), 5);
  EXPECT_EQ(set.Nth(2), 9);
  EXPECT_EQ(set.Nth(3), 63);
  EXPECT_EQ(model::ProcessorSet::Singleton(7).Last(), 7);
}

}  // namespace
}  // namespace objalloc
