// Unit tests for core/mwu: the factory, the run driver, the intractability
// path, and the MwuResult bookkeeping that feeds Tables II-IV.
#include <gtest/gtest.h>

#include "core/mwu.hpp"
#include "datasets/distributions.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t k) {
  MwuConfig config;
  config.num_options = k;
  return config;
}

TEST(MwuKindNames, AreThePapersNames) {
  EXPECT_EQ(to_string(MwuKind::kStandard), "Standard");
  EXPECT_EQ(to_string(MwuKind::kSlate), "Slate");
  EXPECT_EQ(to_string(MwuKind::kDistributed), "Distributed");
}

TEST(MakeMwu, InstantiatesEachKind) {
  const auto config = config_for(16);
  EXPECT_EQ(make_mwu(MwuKind::kStandard, config)->kind(), MwuKind::kStandard);
  EXPECT_EQ(make_mwu(MwuKind::kSlate, config)->kind(), MwuKind::kSlate);
  EXPECT_EQ(make_mwu(MwuKind::kDistributed, config)->kind(),
            MwuKind::kDistributed);
}

TEST(RunMwu, RejectsOracleConfigMismatch) {
  const auto options = datasets::make_random(8, 1);
  const BernoulliOracle oracle(options);
  auto config = config_for(16);  // oracle has 8
  const auto strategy = make_mwu(MwuKind::kStandard, config);
  EXPECT_THROW((void)run_mwu(*strategy, oracle, config, util::RngStream(1)),
               std::invalid_argument);
}

TEST(RunMwu, ConvergesAndReportsBookkeeping) {
  OptionSet options("easy", {0.05, 0.95, 0.05, 0.05});
  const BernoulliOracle oracle(options);
  auto config = config_for(4);
  const auto result =
      run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(2));
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.intractable);
  EXPECT_EQ(result.best_option, 1u);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_LT(result.iterations, config.max_iterations);
  EXPECT_EQ(result.cpus_per_cycle, config.num_agents);
  // Each cycle evaluates one probe per agent.
  EXPECT_EQ(result.evaluations, result.iterations * config.num_agents);
  EXPECT_EQ(result.cpu_iterations(), result.iterations * config.num_agents);
  ASSERT_EQ(result.probabilities.size(), 4u);
  EXPECT_GT(result.probabilities[1], 0.99);
}

TEST(RunMwu, EvaluationsAreIterationsTimesCpusPerCycleForEveryKind) {
  // run_mwu books each cycle's probes in one add; the oracle underneath
  // counts the calls it really received.
  const auto options = datasets::make_random(64, 11);
  const BernoulliOracle inner(options);
  for (const MwuKind kind : {MwuKind::kStandard, MwuKind::kSlate,
                             MwuKind::kDistributed, MwuKind::kExp3}) {
    const CountingOracle oracle(inner);
    auto config = config_for(64);
    config.max_iterations = 300;
    const auto result = run_mwu(kind, oracle, config, util::RngStream(12));
    const std::string label = to_string(kind);
    EXPECT_GT(result.iterations, 0u) << label;
    EXPECT_EQ(result.evaluations, result.iterations * result.cpus_per_cycle)
        << label;
    EXPECT_EQ(result.evaluations, oracle.evaluations()) << label;
  }
}

TEST(RunMwu, HitsIterationCapWithoutConverging) {
  // All options identical: no algorithm can separate them.
  OptionSet options("flat", std::vector<double>(16, 0.5));
  const BernoulliOracle oracle(options);
  auto config = config_for(16);
  config.max_iterations = 20;
  const auto result =
      run_mwu(MwuKind::kSlate, oracle, config, util::RngStream(3));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 20u);
}

TEST(RunMwu, DistributedIntractablePathSkipsExecution) {
  const auto options = datasets::make_random(16384, 4);
  const BernoulliOracle oracle(options);
  auto config = config_for(16384);
  const auto result =
      run_mwu(MwuKind::kDistributed, oracle, config, util::RngStream(5));
  EXPECT_TRUE(result.intractable);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.evaluations, 0u);
}

TEST(RunMwu, DeterministicForFixedSeed) {
  const auto options = datasets::make_unimodal(32, 6);
  const BernoulliOracle oracle(options);
  const auto config = config_for(32);
  const auto a = run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(7));
  const auto b = run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(7));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.best_option, b.best_option);
  EXPECT_EQ(a.probabilities, b.probabilities);
}

// Every algorithm must find the clearly-best option of an easy instance.
class AllKindsEasyInstance : public ::testing::TestWithParam<MwuKind> {};

TEST_P(AllKindsEasyInstance, FindsTheDominantOption) {
  std::vector<double> values(20, 0.05);
  values[13] = 0.95;
  OptionSet options("easy20", std::move(values));
  const BernoulliOracle oracle(options);
  const auto config = config_for(20);
  const auto result = run_mwu(GetParam(), oracle, config, util::RngStream(8));
  EXPECT_TRUE(result.converged) << to_string(GetParam());
  EXPECT_EQ(result.best_option, 13u) << to_string(GetParam());
  EXPECT_GT(options.accuracy_percent(result.best_option), 99.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllKindsEasyInstance,
                         ::testing::Values(MwuKind::kStandard,
                                           MwuKind::kSlate,
                                           MwuKind::kDistributed),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace mwr::core
