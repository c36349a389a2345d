#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/runner.h"
#include "objalloc/core/static_allocation.h"
#include "objalloc/model/cost_evaluator.h"
#include "objalloc/model/legality.h"
#include "objalloc/opt/exact_opt.h"
#include "objalloc/opt/interval_opt.h"
#include "objalloc/opt/relaxation_lower_bound.h"
#include "objalloc/util/rng.h"
#include "objalloc/workload/uniform.h"

namespace objalloc::opt {
namespace {

using model::AllocationSchedule;
using model::CostModel;
using model::ProcessorSet;
using model::Request;
using model::Schedule;

// Exhaustive reference optimum: explores EVERY legal t-available allocation
// schedule, including choices the DP prunes (multi-member read execution
// sets, saving-reads by scheme members), so it independently validates the
// DP's optimality argument. Exponential — tiny instances only.
double BruteForceOpt(const CostModel& cost_model, const Schedule& schedule,
                     ProcessorSet initial, int t, size_t index,
                     ProcessorSet scheme) {
  if (index == schedule.size()) return 0;
  const Request& req = schedule[index];
  const int n = schedule.num_processors();
  double best = std::numeric_limits<double>::infinity();
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 1; mask < limit; ++mask) {
    ProcessorSet x(mask);
    if (req.is_read()) {
      if (!x.Intersects(scheme)) continue;  // illegal read
      for (bool saving : {false, true}) {
        model::AllocatedRequest entry{req, x, saving && req.is_read()};
        ProcessorSet next = model::NextScheme(scheme, entry);
        if (next.Size() < t) continue;
        double cost = model::RequestCost(cost_model, entry, scheme) +
                      BruteForceOpt(cost_model, schedule, initial, t,
                                    index + 1, next);
        best = std::min(best, cost);
      }
    } else {
      if (x.Size() < t) continue;  // t-availability after the write
      model::AllocatedRequest entry{req, x, false};
      double cost = model::RequestCost(cost_model, entry, scheme) +
                    BruteForceOpt(cost_model, schedule, initial, t, index + 1,
                                  x);
      best = std::min(best, cost);
    }
  }
  return best;
}

TEST(ExactOptTest, EmptyScheduleCostsNothing) {
  Schedule schedule(4);
  EXPECT_DOUBLE_EQ(ExactOptCost(CostModel::StationaryComputing(0.5, 1.0),
                                schedule, ProcessorSet{0, 1}),
                   0.0);
}

TEST(ExactOptTest, SingleLocalRead) {
  Schedule schedule = Schedule::Parse(4, "r0").value();
  EXPECT_DOUBLE_EQ(ExactOptCost(CostModel::StationaryComputing(0.5, 1.0),
                                schedule, ProcessorSet{0, 1}),
                   1.0);
}

TEST(ExactOptTest, SingleRemoteReadDoesNotSave) {
  Schedule schedule = Schedule::Parse(4, "r3").value();
  // One remote read: saving (+1) cannot pay off.
  EXPECT_DOUBLE_EQ(ExactOptCost(CostModel::StationaryComputing(0.5, 1.0),
                                schedule, ProcessorSet{0, 1}),
                   0.5 + 1 + 1.0);
}

TEST(ExactOptTest, RepeatedRemoteReadsSave) {
  Schedule schedule = Schedule::Parse(4, "r3 r3 r3").value();
  // Save on the first read (0.5+1+1+1), then read locally twice.
  EXPECT_DOUBLE_EQ(ExactOptCost(CostModel::StationaryComputing(0.5, 1.0),
                                schedule, ProcessorSet{0, 1}),
                   3.5 + 1 + 1);
}

TEST(ExactOptTest, WriteMovesSchemeToWriter) {
  Schedule schedule = Schedule::Parse(4, "w3 r3 r3").value();
  // X = {3, y}: cd + 2 io, no invalidation needed if y covers the old
  // scheme; best write cost = 1*1 (cd) + 2 (io) with X = {3,0} or {3,1}
  // (invalidating the other member costs cc) vs X={3,2} (2 invalidations).
  // With cc = 0.5: write = 1 + 2 + 0.5 = 3.5, reads local = 2.
  EXPECT_DOUBLE_EQ(ExactOptCost(CostModel::StationaryComputing(0.5, 1.0),
                                schedule, ProcessorSet{0, 1}),
                   3.5 + 2);
}

TEST(ExactOptTest, MatchesBruteForceOnTinyInstances) {
  util::Rng rng(0x5eed);
  const CostModel models[] = {
      CostModel::StationaryComputing(0.0, 0.0),
      CostModel::StationaryComputing(0.25, 0.75),
      CostModel::StationaryComputing(0.5, 2.0),
      CostModel::MobileComputing(0.25, 0.75),
      CostModel::MobileComputing(1.0, 1.0),
  };
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 3;
    const int t = 2;
    const size_t length = 1 + rng.NextBounded(4);
    Schedule schedule(n);
    for (size_t k = 0; k < length; ++k) {
      auto p = static_cast<util::ProcessorId>(rng.NextBounded(n));
      if (rng.NextBernoulli(0.6)) {
        schedule.AppendRead(p);
      } else {
        schedule.AppendWrite(p);
      }
    }
    const CostModel& cost_model = models[trial % 5];
    ProcessorSet initial{0, 1};
    double dp = ExactOptCost(cost_model, schedule, initial);
    double brute =
        BruteForceOpt(cost_model, schedule, initial, t, 0, initial);
    EXPECT_NEAR(dp, brute, 1e-9)
        << "schedule: " << schedule.ToString() << " model "
        << cost_model.ToString();
  }
}

TEST(ExactOptTest, ReconstructionMatchesCostAndIsValid) {
  util::Rng rng(0xface);
  CostModel sc = CostModel::StationaryComputing(0.5, 1.5);
  for (int trial = 0; trial < 20; ++trial) {
    workload::UniformWorkload uniform(0.7);
    Schedule schedule = uniform.Generate(6, 40, rng.Next());
    ProcessorSet initial{0, 1};
    AllocationSchedule allocation =
        ExactOptSchedule(sc, schedule, initial);
    EXPECT_TRUE(model::CheckLegalAndTAvailable(allocation, 2).ok());
    EXPECT_NEAR(model::ScheduleCost(sc, allocation),
                ExactOptCost(sc, schedule, initial), 1e-9);
    EXPECT_EQ(allocation.ToSchedule().ToString(), schedule.ToString());
  }
}

TEST(ExactOptTest, NeverExceedsOnlineAlgorithms) {
  util::Rng rng(0xabcd);
  const CostModel models[] = {
      CostModel::StationaryComputing(0.25, 0.75),
      CostModel::StationaryComputing(0.0, 2.0),
      CostModel::MobileComputing(0.5, 1.0),
  };
  workload::UniformWorkload uniform(0.7);
  for (int trial = 0; trial < 30; ++trial) {
    Schedule schedule = uniform.Generate(7, 60, rng.Next());
    ProcessorSet initial{0, 1};
    const CostModel& cost_model = models[trial % 3];
    double opt = ExactOptCost(cost_model, schedule, initial);
    core::StaticAllocation sa;
    core::DynamicAllocation da;
    double sa_cost =
        core::RunWithCost(sa, cost_model, schedule, initial).cost;
    double da_cost =
        core::RunWithCost(da, cost_model, schedule, initial).cost;
    EXPECT_LE(opt, sa_cost + 1e-9);
    EXPECT_LE(opt, da_cost + 1e-9);
  }
}

// ------------------------------------------------------------- Brackets

struct BracketCase {
  double cc, cd;
  bool mobile;
};

class BracketTest : public ::testing::TestWithParam<BracketCase> {};

TEST_P(BracketTest, LowerBoundAndIntervalHeuristicBracketOpt) {
  const BracketCase& param = GetParam();
  CostModel cost_model =
      param.mobile ? CostModel::MobileComputing(param.cc, param.cd)
                   : CostModel::StationaryComputing(param.cc, param.cd);
  util::Rng rng(0xb00c);
  workload::UniformWorkload uniform(0.65);
  for (int trial = 0; trial < 12; ++trial) {
    Schedule schedule = uniform.Generate(6, 50, rng.Next());
    ProcessorSet initial{0, 1};
    double lb = RelaxationLowerBound(cost_model, schedule, initial);
    double opt = ExactOptCost(cost_model, schedule, initial);
    double ub = IntervalOptCost(cost_model, schedule, initial);
    EXPECT_LE(lb, opt + 1e-9) << schedule.ToString();
    EXPECT_LE(opt, ub + 1e-9) << schedule.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    CostGrid, BracketTest,
    ::testing::Values(BracketCase{0.0, 0.0, false},
                      BracketCase{0.1, 0.3, false},
                      BracketCase{0.5, 0.5, false},
                      BracketCase{0.5, 2.0, false},
                      BracketCase{1.0, 2.0, false},
                      BracketCase{0.1, 0.3, true},
                      BracketCase{0.5, 1.0, true},
                      BracketCase{1.0, 1.0, true}));

TEST(IntervalOptTest, ProducesValidSchedules) {
  util::Rng rng(0x1d1d);
  CostModel sc = CostModel::StationaryComputing(0.3, 1.2);
  workload::UniformWorkload uniform(0.5);
  for (int trial = 0; trial < 10; ++trial) {
    Schedule schedule = uniform.Generate(9, 80, rng.Next());
    AllocationSchedule allocation =
        IntervalOptSchedule(sc, schedule, ProcessorSet{0, 1, 2});
    EXPECT_TRUE(model::CheckLegalAndTAvailable(allocation, 3).ok());
  }
}

TEST(IntervalOptTest, SavesForRepeatedReaders) {
  CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  Schedule schedule = Schedule::Parse(5, "r4 r4 r4 r4").value();
  AllocationSchedule allocation =
      IntervalOptSchedule(sc, schedule, ProcessorSet{0, 1});
  EXPECT_TRUE(allocation[0].is_saving_read());
  EXPECT_EQ(allocation[1].execution_set, ProcessorSet{4});
}

TEST(IntervalOptTest, PushesCopiesToUpcomingReaders) {
  CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  Schedule schedule = Schedule::Parse(6, "w0 r4 r4 r4").value();
  AllocationSchedule allocation =
      IntervalOptSchedule(sc, schedule, ProcessorSet{0, 1});
  EXPECT_TRUE(allocation[0].execution_set.Contains(4));
}

TEST(RelaxationLowerBoundTest, ExactOnLocalOnlyWorkload) {
  // All requests from scheme members: the relaxation has no slack.
  CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  Schedule schedule = Schedule::Parse(4, "r0 r1 r0 r1").value();
  EXPECT_DOUBLE_EQ(
      RelaxationLowerBound(sc, schedule, ProcessorSet{0, 1}),
      ExactOptCost(sc, schedule, ProcessorSet{0, 1}));
}

TEST(RelaxationLowerBoundTest, ScalesLinearly) {
  // The bound must be computable for systems far beyond the exact DP.
  CostModel sc = CostModel::StationaryComputing(0.5, 1.0);
  workload::UniformWorkload uniform(0.7);
  Schedule schedule = uniform.Generate(48, 4000, 7);
  double lb =
      RelaxationLowerBound(sc, schedule, ProcessorSet::FirstN(3));
  EXPECT_GT(lb, 0.0);
}

}  // namespace
}  // namespace objalloc::opt
