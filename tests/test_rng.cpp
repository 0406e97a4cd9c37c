// Unit tests for util/rng: determinism, range contracts, statistical
// sanity, and stream independence — the foundation every experiment's
// reproducibility rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ios>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mwr::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngStream, SameSeedSameSequence) {
  RngStream a(7);
  RngStream b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, SeedIsRecorded) {
  RngStream rng(12345);
  EXPECT_EQ(rng.seed(), 12345u);
}

TEST(RngStream, UniformInHalfOpenUnitInterval) {
  RngStream rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformRangeRespectsBounds) {
  RngStream rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(RngStream, UniformMeanIsCentered) {
  RngStream rng(5);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngStream, UniformIndexStaysBelowBound) {
  RngStream rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(RngStream, UniformIndexCoversAllValues) {
  RngStream rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngStream, UniformIndexIsUnbiased) {
  RngStream rng(8);
  constexpr std::uint64_t kBound = 5;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform_index(kBound)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 1.0 / kBound, 0.01);
  }
}

TEST(RngStream, UniformIntIsInclusive) {
  RngStream rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngStream, BernoulliEdgeProbabilities) {
  RngStream rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngStream, BernoulliHitsItsRate) {
  RngStream rng(11);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

// uniform() maps the draw's top 53 bits m to m * 2^-53.  Both
// uniform() < p and m < bernoulli_threshold(p) are "m below a cutoff", so
// they agree for every m exactly when they agree on either side of the
// threshold T: at m = T - 1 (both true) and m = T (both false).
void expect_threshold_exact(double p) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  const std::uint64_t t = RngStream::bernoulli_threshold(p);
  ASSERT_LE(t, kTop) << p;
  const auto below_p = [p](std::uint64_t m) {
    return static_cast<double>(m) * 0x1.0p-53 < p;
  };
  if (t > 0) {
    EXPECT_TRUE(below_p(t - 1)) << std::hexfloat << p;
  }
  if (t < kTop) {
    EXPECT_FALSE(below_p(t)) << std::hexfloat << p;
  }
  EXPECT_EQ(below_p(0), t > 0) << std::hexfloat << p;
  EXPECT_EQ(below_p(kTop - 1), t == kTop) << std::hexfloat << p;
}

TEST(RngStream, BernoulliThresholdIsExactOnTheGridAndBetween) {
  std::vector<std::uint64_t> grid = {0, 1, 2, 3, (std::uint64_t{1} << 53) - 1};
  for (int e = 1; e < 53; ++e) {
    const std::uint64_t m = std::uint64_t{1} << e;
    grid.insert(grid.end(), {m - 1, m, m + 1});
  }
  RngStream rng(17);
  for (int i = 0; i < 2000; ++i) grid.push_back(rng.next_u64() >> 11);
  for (const std::uint64_t m : grid) {
    const double p = static_cast<double>(m) * 0x1.0p-53;  // exact
    expect_threshold_exact(p);
    expect_threshold_exact(std::nextafter(p, 0.0));
    expect_threshold_exact(std::nextafter(p, 2.0));
  }
  for (const double p : {0.0, -0.0, 1.0, 0.05, 0.005, 0.9, 0.5,
                         0x1.0p-1074, 0x1.0p-1060, 0x1.0p-1022,
                         std::nextafter(0x1.0p-1022, 0.0), 0x1.0p-54,
                         std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0)}) {
    expect_threshold_exact(p);
  }
}

TEST(RngStream, BernoulliThresholdOutsideTheUnitInterval) {
  EXPECT_EQ(RngStream::bernoulli_threshold(-0.5), 0u);
  EXPECT_EQ(RngStream::bernoulli_threshold(std::nan("")), 0u);
  EXPECT_EQ(RngStream::bernoulli_threshold(2.0), std::uint64_t{1} << 53);
  EXPECT_EQ(RngStream::bernoulli_threshold(HUGE_VAL), std::uint64_t{1} << 53);
}

TEST(RngStream, BernoulliBelowReplaysBernoulli) {
  // Same draws, same outcomes, same final state as bernoulli(p).
  for (const double p : {0.0, 0x1.0p-1074, 0.005, 0.05, 0.5, 0.9,
                         std::nextafter(1.0, 0.0), 1.0}) {
    RngStream a(23);
    RngStream b(23);
    const std::uint64_t t = RngStream::bernoulli_threshold(p);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(a.bernoulli_below(t), b.bernoulli(p)) << p;
    }
    EXPECT_EQ(a.state(), b.state());
  }
}

TEST(RngStream, WeightedChoiceRespectsWeights) {
  RngStream rng(12);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.weighted_choice(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kSamples, 0.75, 0.02);
}

TEST(RngStream, WeightedChoiceZeroTotalSignalsError) {
  RngStream rng(13);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_choice(weights), weights.size());
}

TEST(RngStream, WeightedChoiceSingleOption) {
  RngStream rng(14);
  const std::vector<double> weights = {2.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_choice(weights), 0u);
}

TEST(RngStream, SampleWithoutReplacementIsDistinct) {
  RngStream rng(15);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(50, 20);
    ASSERT_EQ(sample.size(), 20u);
    const std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const auto s : sample) EXPECT_LT(s, 50u);
  }
}

TEST(RngStream, SparseSampleMatchesDensePartialFisherYates) {
  // count * 8 <= population takes the hash-map branch; it must emit
  // exactly the permutation prefix the dense branch would (identical
  // draws, identical output), so seeded experiments are branch-invariant.
  for (const std::uint64_t seed : {1ull, 22ull, 333ull}) {
    for (const auto& [population, count] :
         {std::pair<std::size_t, std::size_t>{10000, 16},
          {4096, 64},
          {129, 16},
          {200, 1}}) {
      RngStream sparse_rng(seed);
      const auto sparse = sparse_rng.sample_without_replacement(population,
                                                               count);
      // Dense reference with a duplicated stream.
      RngStream dense_rng(seed);
      std::vector<std::size_t> pool(population);
      std::iota(pool.begin(), pool.end(), std::size_t{0});
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    dense_rng.uniform_index(population - i));
        std::swap(pool[i], pool[j]);
      }
      pool.resize(count);
      EXPECT_EQ(sparse, pool) << "seed=" << seed << " n=" << population;
    }
  }
}

TEST(RngStream, SparseSampleIsDistinctAndInRange) {
  RngStream rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = rng.sample_without_replacement(10000, 16);
    ASSERT_EQ(sample.size(), 16u);
    const std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 16u);
    for (const auto s : sample) EXPECT_LT(s, 10000u);
  }
}

TEST(RngStream, SparseSampleIsUniform) {
  // Population 64, count 4 exercises the sparse branch (4 * 8 <= 64);
  // every index should appear with frequency count / population.
  RngStream rng(29);
  std::vector<int> counts(64, 0);
  constexpr int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    for (const auto i : rng.sample_without_replacement(64, 4)) ++counts[i];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 4.0 / 64.0, 0.01);
  }
}

TEST(RngStream, SampleWithoutReplacementFullPopulation) {
  RngStream rng(16);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngStream, SampleWithoutReplacementIsUniform) {
  RngStream rng(17);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    for (const auto i : rng.sample_without_replacement(10, 3)) ++counts[i];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.3, 0.02);
  }
}

TEST(RngStream, SplitProducesIndependentStreams) {
  RngStream parent(18);
  RngStream child1 = parent.split();
  RngStream child2 = parent.split();
  // Children differ from each other and correlate with neither the parent
  // nor each other over a long window.
  int matches = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++matches;
  }
  EXPECT_EQ(matches, 0);
}

TEST(RngStream, SplitIsDeterministicFromParentSeed) {
  RngStream p1(20);
  RngStream p2(20);
  RngStream c1 = p1.split();
  RngStream c2 = p2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

// Property sweep: Lemire index sampling stays unbiased across bounds.
class UniformIndexSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIndexSweep, MeanMatchesHalfBound) {
  const std::uint64_t bound = GetParam();
  RngStream rng(21 + bound);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.uniform_index(bound));
  }
  const double expected = static_cast<double>(bound - 1) / 2.0;
  EXPECT_NEAR(sum / kSamples, expected, 0.02 * static_cast<double>(bound) + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformIndexSweep,
                         ::testing::Values(2, 3, 7, 64, 1000, 4096, 1000000));

}  // namespace
}  // namespace mwr::util
