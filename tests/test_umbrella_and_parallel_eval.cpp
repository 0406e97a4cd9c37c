// Cross-cutting tests: the umbrella header compiles and exposes the API;
// the decomposition-based slate sampler matches the systematic one; the
// evaluation sweep is thread-count invariant.
#include <gtest/gtest.h>

#include <set>

#include "mwrepair.hpp"

namespace mwr {
namespace {

TEST(UmbrellaHeader, ExposesTheWholeApi) {
  // Smoke: one symbol from each major module, through the single include.
  const auto options = datasets::make_unimodal(8, 1);
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = 8;
  const auto result =
      core::run_mwu(core::MwuKind::kStandard, oracle, config,
                    util::RngStream(1));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(datasets::c_scenarios().size(), 5u);
  EXPECT_EQ(costmodel::symbolic(core::MwuKind::kStandard,
                                costmodel::Property::kMemory),
            "O(k)");
}

TEST(SlateSamplers, DecompositionSamplerReturnsValidSlates) {
  core::MwuConfig config;
  config.num_options = 30;
  config.exploration = 0.2;  // slate of 6
  core::SlateMwu mwu(config);
  mwu.set_sampler(core::SlateMwu::Sampler::kDecomposition);
  EXPECT_EQ(mwu.sampler(), core::SlateMwu::Sampler::kDecomposition);
  util::RngStream rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const auto slate = mwu.sample(rng);
    ASSERT_EQ(slate.size(), 6u);
    std::set<std::size_t> unique(slate.begin(), slate.end());
    EXPECT_EQ(unique.size(), 6u);
    for (const auto i : slate) EXPECT_LT(i, 30u);
  }
}

TEST(SlateSamplers, BothSamplersRealizeTheSameMarginals) {
  // Run a few update cycles to skew the weights, then compare inclusion
  // frequencies between the two samplers on the frozen state.
  core::MwuConfig config;
  config.num_options = 12;
  config.exploration = 0.25;  // slate of 3
  core::SlateMwu mwu(config);
  util::RngStream rng(3);
  for (int cycle = 0; cycle < 50; ++cycle) {
    const auto slate = mwu.sample(rng);
    std::vector<double> rewards(slate.size());
    for (std::size_t j = 0; j < slate.size(); ++j) {
      rewards[j] = slate[j] < 4 ? 1.0 : 0.0;
    }
    mwu.update(slate, rewards, rng);
  }

  constexpr int kTrials = 40000;
  std::vector<int> systematic_counts(12, 0);
  std::vector<int> decomposition_counts(12, 0);
  mwu.set_sampler(core::SlateMwu::Sampler::kSystematic);
  for (int t = 0; t < kTrials; ++t) {
    for (const auto i : mwu.sample(rng)) ++systematic_counts[i];
  }
  mwu.set_sampler(core::SlateMwu::Sampler::kDecomposition);
  for (int t = 0; t < kTrials; ++t) {
    for (const auto i : mwu.sample(rng)) ++decomposition_counts[i];
  }
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(static_cast<double>(systematic_counts[i]) / kTrials,
                static_cast<double>(decomposition_counts[i]) / kTrials, 0.02)
        << "option " << i;
  }
}

TEST(SlateSamplers, DecompositionSamplerStillConverges) {
  core::OptionSet options("easy", {0.05, 0.9, 0.05, 0.05, 0.05, 0.05, 0.05,
                                   0.05, 0.05, 0.05});
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = 10;
  config.exploration = 0.2;
  config.learning_rate = 0.2;
  config.max_iterations = 5000;
  core::SlateMwu mwu(config);
  mwu.set_sampler(core::SlateMwu::Sampler::kDecomposition);
  const auto result = core::run_mwu(mwu, oracle, config, util::RngStream(4));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.best_option, 1u);
}

TEST(ParallelEvaluation, ThreadCountDoesNotChangeTheCells) {
  costmodel::EvalConfig config;
  config.seeds = 2;
  config.max_size = 64;
  config.max_iterations = 1500;
  config.master_seed = 5;
  config.threads = 1;
  const auto serial = costmodel::run_evaluation(config);
  config.threads = 4;
  const auto parallel_cells = costmodel::run_evaluation(config);
  ASSERT_EQ(serial.size(), parallel_cells.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].dataset, parallel_cells[i].dataset);
    EXPECT_EQ(serial[i].kind, parallel_cells[i].kind);
    EXPECT_EQ(serial[i].iterations.mean(), parallel_cells[i].iterations.mean());
    EXPECT_EQ(serial[i].accuracy.mean(), parallel_cells[i].accuracy.mean());
    EXPECT_EQ(serial[i].converged_runs, parallel_cells[i].converged_runs);
  }
}

TEST(ParallelEvaluation, SerialPathIsTheHistoricalTrajectory) {
  // run_mwu must consume the master stream exactly as the pre-batching
  // serial loop did (no split() calls), so seeded runs reproduce
  // historical results bit-for-bit.
  const auto options = datasets::make_unimodal(32, 3);
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = 32;
  config.num_agents = 8;
  config.max_iterations = 2000;

  // Reference: hand-rolled serial loop against the same strategy.
  const auto strategy = core::make_mwu(core::MwuKind::kStandard, config);
  util::RngStream rng(17);
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<double> rewards;
  for (std::size_t t = 0; t < config.max_iterations; ++t) {
    const auto probes = strategy->sample(rng);
    rewards.resize(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      rewards[j] = oracle.sample(probes[j], rng);
    }
    strategy->update(probes, rewards, rng);
    ++iterations;
    if (strategy->converged()) {
      converged = true;
      break;
    }
  }

  const auto result = core::run_mwu(core::MwuKind::kStandard, oracle, config,
                                    util::RngStream(17));
  EXPECT_EQ(result.converged, converged);
  EXPECT_EQ(result.iterations, iterations);
  EXPECT_EQ(result.best_option, strategy->best_option());
}

}  // namespace
}  // namespace mwr
