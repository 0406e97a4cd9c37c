// Unit tests for core/distributed_mwu: population sizing, the adopt rules
// (alpha/beta/mu), the implicit weight vector, and plurality convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/distributed_mwu.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t k) {
  MwuConfig config;
  config.num_options = k;
  return config;
}

TEST(DistributedPopulation, GrowsSuperLinearly) {
  const auto pop = [](std::size_t k) {
    return distributed_population(config_for(k));
  };
  EXPECT_GT(pop(256), 4 * pop(64));  // exponent 1.3 > 1
  EXPECT_GE(pop(4), 4u);             // never below k
}

TEST(DistributedPopulation, IntractableAtPaperSizes) {
  // The paper's two "—" cells: size 16384 exceeds any tractable population.
  EXPECT_GT(distributed_population(config_for(16384)),
            config_for(16384).max_population);
  EXPECT_LE(distributed_population(config_for(4096)),
            config_for(4096).max_population);
}

TEST(DistributedMwu, RejectsBadConfiguration) {
  EXPECT_THROW(DistributedMwu(config_for(0)), std::invalid_argument);
  auto bad = config_for(8);
  bad.exploration = 1.5;
  EXPECT_THROW(DistributedMwu{bad}, std::invalid_argument);
  bad = config_for(8);
  bad.adopt_failure = 0.9;  // alpha > beta
  bad.adopt_success = 0.5;
  EXPECT_THROW(DistributedMwu{bad}, std::invalid_argument);
  bad = config_for(16384);
  EXPECT_THROW(DistributedMwu{bad}, std::length_error);
}

TEST(DistributedMwu, InitializationIsRoundRobin) {
  DistributedMwu mwu(config_for(8));
  const auto p = mwu.probabilities();
  ASSERT_EQ(p.size(), 8u);
  for (const double v : p) EXPECT_NEAR(v, 0.125, 0.01);
  for (std::size_t j = 0; j < mwu.choices().size(); ++j) {
    EXPECT_EQ(mwu.choices()[j], j % 8);
  }
}

TEST(DistributedMwu, CpusPerCycleIsThePopulation) {
  DistributedMwu mwu(config_for(16));
  EXPECT_EQ(mwu.cpus_per_cycle(), mwu.population());
  EXPECT_EQ(mwu.population(), distributed_population(config_for(16)));
}

TEST(DistributedMwu, SampleObservesPopulationOrRandom) {
  DistributedMwu mwu(config_for(8));
  util::RngStream rng(1);
  const auto observed = mwu.sample(rng);
  EXPECT_EQ(observed.size(), mwu.population());
  for (const auto o : observed) EXPECT_LT(o, 8u);
}

TEST(DistributedMwu, SuccessfulObservationsAreAdopted) {
  auto config = config_for(4);
  config.adopt_success = 1.0;  // always adopt successes
  config.adopt_failure = 0.0;  // never adopt failures
  DistributedMwu mwu(config);
  util::RngStream rng(2);
  // Everyone observes option 2 and it always succeeds.
  const std::vector<std::size_t> observed(mwu.population(), 2);
  const std::vector<double> rewards(mwu.population(), 1.0);
  mwu.update(observed, rewards, rng);
  EXPECT_DOUBLE_EQ(mwu.probabilities()[2], 1.0);
  EXPECT_TRUE(mwu.converged());
  EXPECT_EQ(mwu.best_option(), 2u);
}

TEST(DistributedMwu, FailedObservationsAreRarelyAdopted) {
  auto config = config_for(4);
  config.adopt_failure = 0.0;
  DistributedMwu mwu(config);
  util::RngStream rng(3);
  const std::vector<std::size_t> observed(mwu.population(), 2);
  const std::vector<double> rewards(mwu.population(), 0.0);  // all fail
  const auto before = mwu.probabilities();
  mwu.update(observed, rewards, rng);
  EXPECT_EQ(mwu.probabilities(), before);
}

TEST(DistributedMwu, UpdateRejectsSizeMismatch) {
  DistributedMwu mwu(config_for(4));
  util::RngStream rng(4);
  EXPECT_THROW(mwu.update(std::vector<std::size_t>{1},
                          std::vector<double>{1.0}, rng),
               std::invalid_argument);
}

TEST(DistributedMwu, PopularityIsConsistentWithChoices) {
  DistributedMwu mwu(config_for(8));
  util::RngStream rng(5);
  for (int cycle = 0; cycle < 50; ++cycle) {
    const auto observed = mwu.sample(rng);
    std::vector<double> rewards(observed.size());
    for (auto& r : rewards) r = rng.bernoulli(0.5) ? 1.0 : 0.0;
    mwu.update(observed, rewards, rng);
  }
  std::vector<std::size_t> counts(8, 0);
  for (const auto c : mwu.choices()) ++counts[c];
  const auto p = mwu.probabilities();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(p[i],
                static_cast<double>(counts[i]) /
                    static_cast<double>(mwu.population()),
                1e-12);
  }
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
}

TEST(DistributedMwu, ConvergesToPluralityOnDominantOption) {
  DistributedMwu mwu(config_for(8));
  util::RngStream rng(6);
  OptionSet options("easy", {0.1, 0.1, 0.1, 0.1, 0.1, 0.95, 0.1, 0.1});
  BernoulliOracle oracle(options);
  bool converged = false;
  for (int cycle = 0; cycle < 500 && !converged; ++cycle) {
    const auto observed = mwu.sample(rng);
    std::vector<double> rewards(observed.size());
    for (std::size_t j = 0; j < observed.size(); ++j) {
      rewards[j] = oracle.sample(observed[j], rng);
    }
    mwu.update(observed, rewards, rng);
    converged = mwu.converged();
  }
  EXPECT_TRUE(converged);
  EXPECT_EQ(mwu.best_option(), 5u);
}

TEST(DistributedMwu, InitRestoresRoundRobin) {
  DistributedMwu mwu(config_for(4));
  util::RngStream rng(7);
  const std::vector<std::size_t> observed(mwu.population(), 0);
  const std::vector<double> rewards(mwu.population(), 1.0);
  mwu.update(observed, rewards, rng);
  mwu.init();
  // The population is not an exact multiple of k; round-robin leaves the
  // shares within one agent of uniform.
  for (const double p : mwu.probabilities()) EXPECT_NEAR(p, 0.25, 0.05);
}

TEST(DistributedMwu, ExplorationKeepsDiversity) {
  // With mu > 0, even a fully-converged population keeps sampling random
  // options — the memoryless escape hatch of the social-learning model.
  auto config = config_for(16);
  config.exploration = 0.5;
  DistributedMwu mwu(config);
  util::RngStream rng(8);
  // Converge everyone onto option 0 first.
  std::vector<std::size_t> observed(mwu.population(), 0);
  std::vector<double> rewards(mwu.population(), 1.0);
  auto forced = config;
  (void)forced;
  mwu.update(observed, rewards, rng);
  // Now sample: about half the observations should be uniform-random.
  const auto next = mwu.sample(rng);
  std::size_t non_plurality = 0;
  for (const auto o : next) {
    if (o != mwu.best_option()) ++non_plurality;
  }
  EXPECT_GT(non_plurality, next.size() / 4);
}

// The agent loops as first written: every draw through the caller's
// stream with bernoulli(p).  DistributedMwu's local-stream loops with the
// integer Bernoulli threshold must reproduce them draw for draw.
struct ReferenceAgents {
  MwuConfig config;
  std::vector<std::uint32_t> choices;
  std::vector<std::uint32_t> popularity;

  std::vector<std::size_t> sample(util::RngStream& rng) const {
    std::vector<std::size_t> observed(choices.size());
    for (auto& option : observed) {
      if (rng.bernoulli(config.exploration)) {
        option = rng.uniform_index(config.num_options);
      } else {
        option = choices[rng.uniform_index(choices.size())];
      }
    }
    return observed;
  }

  void update(const std::vector<std::size_t>& options,
              const std::vector<double>& rewards, util::RngStream& rng) {
    for (std::size_t j = 0; j < choices.size(); ++j) {
      const double adopt = rewards[j] > 0.0 ? config.adopt_success
                                            : config.adopt_failure;
      if (rng.bernoulli(adopt)) {
        --popularity[choices[j]];
        choices[j] = static_cast<std::uint32_t>(options[j]);
        ++popularity[choices[j]];
      }
    }
  }
};

void expect_matches_reference_loops(const MwuConfig& config, int cycles,
                                    std::uint64_t seed) {
  DistributedMwu mwu(config);
  ReferenceAgents reference{config, mwu.choices(),
                            std::vector<std::uint32_t>(config.num_options)};
  for (const auto c : reference.choices) ++reference.popularity[c];
  util::RngStream init(seed);
  std::vector<double> values(config.num_options);
  for (auto& v : values) v = init.uniform();
  const OptionSet options("reference", values);
  const BernoulliOracle oracle(options);

  util::RngStream rng(seed + 1);
  util::RngStream reference_rng(seed + 1);
  std::vector<std::size_t> observed;
  std::vector<double> rewards;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    mwu.sample_into(rng, observed);
    const auto want_observed = reference.sample(reference_rng);
    ASSERT_EQ(observed, want_observed) << "cycle " << cycle;
    ASSERT_EQ(rng.state(), reference_rng.state());
    rewards.resize(observed.size());
    oracle.sample_batch(observed, rng, rewards);
    std::vector<double> want_rewards(want_observed.size());
    for (std::size_t j = 0; j < want_observed.size(); ++j) {
      want_rewards[j] = oracle.sample(want_observed[j], reference_rng);
    }
    ASSERT_EQ(rewards, want_rewards);
    mwu.update(observed, rewards, rng);
    reference.update(want_observed, want_rewards, reference_rng);
    ASSERT_EQ(mwu.choices(), reference.choices) << "cycle " << cycle;
    ASSERT_EQ(rng.state(), reference_rng.state());
    const auto census = mwu.probabilities();
    for (std::size_t i = 0; i < config.num_options; ++i) {
      ASSERT_EQ(census[i], static_cast<double>(reference.popularity[i]) /
                               static_cast<double>(mwu.population()));
    }
  }
}

TEST(DistributedMwu, AgentLoopsMatchTheReferenceLoops) {
  for (const std::size_t k : {64u, 1000u, 1024u}) {
    expect_matches_reference_loops(config_for(k), k == 64 ? 200 : 4, k);
  }
}

TEST(DistributedMwu, AgentLoopsMatchTheReferenceAtExtremeRates) {
  // mu = 0 (never explore) and mu = 1 (always explore); alpha = 0 (never
  // adopt a failure) and beta = 1 (always adopt a success), alone and
  // together; plus a subnormal alpha and rates one ulp from 0.1 and 1.
  struct Rates {
    double mu, alpha, beta;
  };
  for (const Rates rates : {Rates{0.0, 0.005, 0.9}, Rates{1.0, 0.005, 0.9},
                            Rates{0.05, 0.0, 0.9}, Rates{0.05, 0.005, 1.0},
                            Rates{0.0, 0.0, 1.0}, Rates{1.0, 1.0, 1.0},
                            Rates{0.0, 0.0, 0.0},
                            Rates{std::nextafter(0.1, 1.0), 0x1.0p-1074,
                                  1.0 - 0x1.0p-53}}) {
    for (const std::size_t k : {64u, 1000u}) {
      auto config = config_for(k);
      config.exploration = rates.mu;
      config.adopt_failure = rates.alpha;
      config.adopt_success = rates.beta;
      expect_matches_reference_loops(config, k == 64 ? 50 : 3, 7 * k);
    }
  }
}

TEST(DistributedMwu, KindIsDistributed) {
  DistributedMwu mwu(config_for(4));
  EXPECT_EQ(mwu.kind(), MwuKind::kDistributed);
}

}  // namespace
}  // namespace mwr::core
