// Public-API smoke coverage: the umbrella header compiles and the small
// surface pieces the other suites reach only indirectly behave as
// documented (factories, string renderings, prefix-monotonicity of OPT).

#include <gtest/gtest.h>

#include "objalloc/objalloc.h"

namespace objalloc {
namespace {

TEST(ApiTest, AlgorithmFactoryProducesAllKinds) {
  model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);
  for (auto kind : {core::AlgorithmKind::kStatic,
                    core::AlgorithmKind::kDynamic,
                    core::AlgorithmKind::kAdaptive}) {
    auto algorithm = core::CreateAlgorithm(kind, sc);
    ASSERT_NE(algorithm, nullptr);
    EXPECT_EQ(algorithm->name(),
              std::string(core::AlgorithmKindToString(kind)) == "SA"
                  ? "SA"
                  : algorithm->name());
    algorithm->Reset(5, model::ProcessorSet{0, 1});
    core::Decision decision = algorithm->Step(model::Request::Read(0));
    EXPECT_FALSE(decision.execution_set.Empty());
  }
}

TEST(ApiTest, AlgorithmKindNames) {
  EXPECT_STREQ(core::AlgorithmKindToString(core::AlgorithmKind::kStatic),
               "SA");
  EXPECT_STREQ(core::AlgorithmKindToString(core::AlgorithmKind::kDynamic),
               "DA");
  EXPECT_STREQ(core::AlgorithmKindToString(core::AlgorithmKind::kAdaptive),
               "Adaptive");
}

TEST(ApiTest, StringRenderings) {
  EXPECT_EQ(model::Request::Read(3).ToString(), "r3");
  EXPECT_EQ(model::Request::Write(11).ToString(), "w11");
  EXPECT_EQ(model::CostModel::MobileComputing(0.5, 1).ToString(),
            "MC{cio=0, cc=0.5, cd=1}");
  sim::Message msg{sim::MessageType::kInvalidate, 2, 5, 7, 0, 2, 0.0};
  EXPECT_EQ(msg.ToString(), "INVALIDATE 2->5 v=7 origin=2");
  sim::SimMetrics metrics;
  metrics.control_messages = 3;
  EXPECT_NE(metrics.ToString().find("ctrl=3"), std::string::npos);
}

TEST(ApiTest, RegionNamesAndSymbols) {
  using analysis::Region;
  EXPECT_STREQ(analysis::RegionToString(Region::kSaSuperior), "SA-superior");
  EXPECT_EQ(analysis::RegionSymbol(Region::kDaSuperior), 'D');
  EXPECT_EQ(analysis::RegionSymbol(Region::kCannotBeTrue), 'x');
}

TEST(ApiTest, OptIsMonotoneInThePrefix) {
  // Request costs are non-negative, so the optimal cost of a prefix never
  // exceeds the optimal cost of the full schedule.
  workload::UniformWorkload uniform(0.7);
  model::CostModel sc = model::CostModel::StationaryComputing(0.3, 0.8);
  model::Schedule schedule = uniform.Generate(6, 60, 13);
  model::ProcessorSet initial{0, 1};
  double previous = 0;
  for (size_t length : {15u, 30u, 45u, 60u}) {
    model::Schedule prefix(schedule.num_processors());
    for (size_t k = 0; k < length; ++k) prefix.Append(schedule[k]);
    double opt = opt::ExactOptCost(sc, prefix, initial);
    EXPECT_GE(opt, previous);
    previous = opt;
  }
}

TEST(ApiTest, MessageTypeClassification) {
  EXPECT_TRUE(sim::IsDataMessage(sim::MessageType::kObjectReply));
  EXPECT_TRUE(sim::IsDataMessage(sim::MessageType::kObjectPropagate));
  EXPECT_FALSE(sim::IsDataMessage(sim::MessageType::kReadRequest));
  EXPECT_FALSE(sim::IsDataMessage(sim::MessageType::kInvalidate));
  EXPECT_FALSE(sim::IsDataMessage(sim::MessageType::kVersionQuery));
  EXPECT_FALSE(sim::IsDataMessage(sim::MessageType::kModeSwitch));
}

TEST(ApiTest, EndToEndThroughTheUmbrellaHeader) {
  // The single-include path exercises one object end to end.
  model::CostModel mc = model::CostModel::MobileComputing(0.5, 1.0);
  auto schedule = model::Schedule::Parse(5, "r3 r3 w1 r3").value();
  core::DynamicAllocation da;
  core::RunResult run = core::RunWithCost(da, mc, schedule, {0, 1});
  double opt = opt::ExactOptCost(mc, schedule, {0, 1});
  EXPECT_GE(run.cost, opt);
  EXPECT_LE(run.cost, analysis::DaCompetitiveFactor(mc) * opt + 1e-9);
}

}  // namespace
}  // namespace objalloc
