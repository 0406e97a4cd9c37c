// Unit tests for core/option_set: validation, best-in-hindsight, the
// Table III accuracy metric, and the oracle decorators.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/option_set.hpp"

namespace mwr::core {
namespace {

TEST(OptionSet, StoresNameAndValues) {
  OptionSet options("demo", {0.1, 0.9, 0.5});
  EXPECT_EQ(options.name(), "demo");
  EXPECT_EQ(options.size(), 3u);
  EXPECT_DOUBLE_EQ(options.value(1), 0.9);
}

TEST(OptionSet, RejectsEmptySet) {
  EXPECT_THROW(OptionSet("empty", {}), std::invalid_argument);
}

TEST(OptionSet, RejectsOutOfRangeValues) {
  EXPECT_THROW(OptionSet("bad", {0.5, 1.5}), std::invalid_argument);
  EXPECT_THROW(OptionSet("bad", {-0.1}), std::invalid_argument);
  EXPECT_THROW(OptionSet("bad", {std::nan("")}), std::invalid_argument);
}

TEST(OptionSet, BestOptionIsArgmax) {
  OptionSet options("demo", {0.3, 0.8, 0.2, 0.8});
  EXPECT_EQ(options.best_option(), 1u);  // ties break to the lowest index
  EXPECT_DOUBLE_EQ(options.best_value(), 0.8);
}

TEST(OptionSet, ValueAccessorBoundsChecks) {
  OptionSet options("demo", {0.5});
  EXPECT_THROW((void)options.value(5), std::out_of_range);
}

TEST(OptionSet, AccuracyIsPerfectForBestOption) {
  OptionSet options("demo", {0.2, 0.9});
  EXPECT_DOUBLE_EQ(options.accuracy_percent(1), 100.0);
}

TEST(OptionSet, AccuracyIsRelativePercentError) {
  OptionSet options("demo", {0.45, 0.9});
  // |0.9 - 0.45| / 0.9 = 50% error => 50% accuracy.
  EXPECT_DOUBLE_EQ(options.accuracy_percent(0), 50.0);
}

TEST(OptionSet, AccuracyHandlesAllZeroValues) {
  OptionSet options("demo", {0.0, 0.0});
  EXPECT_DOUBLE_EQ(options.accuracy_percent(1), 100.0);
}

TEST(BernoulliOracle, SampleRateMatchesValue) {
  OptionSet options("demo", {0.25, 0.75});
  BernoulliOracle oracle(options);
  EXPECT_EQ(oracle.num_options(), 2u);
  util::RngStream rng(1);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    hits += oracle.sample(0, rng) > 0.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.25, 0.01);
}

TEST(BernoulliOracle, DegenerateValuesAreDeterministic) {
  OptionSet options("demo", {0.0, 1.0});
  BernoulliOracle oracle(options);
  util::RngStream rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(oracle.sample(0, rng), 0.0);
    EXPECT_DOUBLE_EQ(oracle.sample(1, rng), 1.0);
  }
}

// A batch must be the per-probe loop, draw for draw: the same rewards and
// the same final stream state.
void expect_batch_matches_per_probe(const CostOracle& oracle,
                                    const std::vector<std::size_t>& probes,
                                    std::uint64_t seed) {
  util::RngStream per_probe(seed);
  std::vector<double> want(probes.size());
  for (std::size_t j = 0; j < probes.size(); ++j) {
    want[j] = oracle.sample(probes[j], per_probe);
  }
  util::RngStream batched(seed);
  std::vector<double> got(probes.size(), -1.0);
  oracle.sample_batch(probes, batched, got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(batched.state(), per_probe.state());
}

std::vector<std::size_t> random_probes(std::size_t count, std::size_t k,
                                       std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<std::size_t> probes(count);
  for (auto& probe : probes) probe = rng.uniform_index(k);
  return probes;
}

TEST(BernoulliOracle, SampleBatchEqualsPerProbeLoop) {
  util::RngStream init(11);
  std::vector<double> values(257);
  for (auto& v : values) v = init.uniform();
  values[0] = 0.0;
  values[1] = 1.0;
  values[2] = 0x1.0p-53;
  const OptionSet options("batch", values);
  const BernoulliOracle oracle(options);
  for (const std::size_t count : {0u, 1u, 7u, 1000u, 32769u}) {
    expect_batch_matches_per_probe(
        oracle, random_probes(count, values.size(), count), 100 + count);
  }
}

// An oracle that keeps CostOracle's default sample_batch.
class HalfOracle final : public CostOracle {
 public:
  [[nodiscard]] std::size_t num_options() const override { return 4; }
  [[nodiscard]] double sample(std::size_t option,
                              util::RngStream& rng) const override {
    return rng.uniform() < 0.25 * static_cast<double>(option) ? 1.0 : 0.0;
  }
};

TEST(CostOracle, DefaultSampleBatchIsThePerProbeLoop) {
  const HalfOracle oracle;
  expect_batch_matches_per_probe(oracle, random_probes(500, 4, 5), 6);
}

TEST(BernoulliOracle, SampleBatchRejectsOutOfRangeAfterTheProbesBeforeIt) {
  const OptionSet options("demo", {0.5, 0.5});
  const BernoulliOracle oracle(options);
  const std::vector<std::size_t> probes = {0, 1, 1, 2, 0};
  util::RngStream per_probe(9);
  for (std::size_t j = 0; j < 3; ++j) (void)oracle.sample(probes[j], per_probe);
  EXPECT_THROW((void)oracle.sample(probes[3], per_probe), std::out_of_range);
  util::RngStream batched(9);
  std::vector<double> rewards(probes.size());
  EXPECT_THROW(oracle.sample_batch(probes, batched, rewards),
               std::out_of_range);
  EXPECT_EQ(batched.state(), per_probe.state());
}

TEST(CountingOracle, CountsEveryEvaluation) {
  OptionSet options("demo", {0.5});
  BernoulliOracle inner(options);
  CountingOracle oracle(inner);
  util::RngStream rng(3);
  EXPECT_EQ(oracle.evaluations(), 0u);
  for (int i = 0; i < 37; ++i) (void)oracle.sample(0, rng);
  EXPECT_EQ(oracle.evaluations(), 37u);
  EXPECT_EQ(oracle.num_options(), 1u);
}

TEST(CountingOracle, ThreadSafeCounting) {
  OptionSet options("demo", {0.5});
  BernoulliOracle inner(options);
  CountingOracle oracle(inner);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&oracle, t] {
      util::RngStream rng(10 + t);
      for (int i = 0; i < 1000; ++i) (void)oracle.sample(0, rng);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(oracle.evaluations(), 4000u);
}

}  // namespace
}  // namespace mwr::core
