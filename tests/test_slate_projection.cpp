// Unit + property tests for core/slate_projection: the capping fixpoint,
// the O(k^2) convex decomposition, and the systematic sampler — the
// machinery behind the paper's Slate variant (§II-C: decomposing the capped
// weight vector into a convex combination of slates).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/slate_mwu.hpp"
#include "core/slate_projection.hpp"
#include "util/fenwick_sampler.hpp"

namespace mwr::core {
namespace {

std::vector<double> normalized_random(std::size_t k, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> p(k);
  double total = 0.0;
  for (auto& v : p) total += (v = rng.uniform() + 1e-6);
  for (auto& v : p) v /= total;
  return p;
}

TEST(CapToSlateMarginals, UniformDistributionScalesExactly) {
  const std::vector<double> p(10, 0.1);
  const auto q = cap_to_slate_marginals(p, 3);
  for (const double v : q) EXPECT_NEAR(v, 0.3, 1e-12);
}

TEST(CapToSlateMarginals, CapsDominantEntryAtOne) {
  const std::vector<double> p = {0.97, 0.01, 0.01, 0.01};
  const auto q = cap_to_slate_marginals(p, 2);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  // Remaining mass (1 slot) spread proportionally over the rest.
  EXPECT_NEAR(q[1] + q[2] + q[3], 1.0, 1e-9);
  EXPECT_NEAR(q[1], 1.0 / 3.0, 1e-9);
}

TEST(CapToSlateMarginals, SlateEqualsKSelectsEverything) {
  const auto p = normalized_random(6, 1);
  const auto q = cap_to_slate_marginals(p, 6);
  for (const double v : q) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(CapToSlateMarginals, RejectsBadSlateSize) {
  const std::vector<double> p = {0.5, 0.5};
  EXPECT_THROW(cap_to_slate_marginals(p, 0), std::invalid_argument);
  EXPECT_THROW(cap_to_slate_marginals(p, 3), std::invalid_argument);
}

TEST(CapToSlateMarginals, CascadingCaps) {
  // Two heavy entries both need capping once the first is capped.
  const std::vector<double> p = {0.46, 0.44, 0.05, 0.05};
  const auto q = cap_to_slate_marginals(p, 3);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 1.0);
  EXPECT_NEAR(q[2] + q[3], 1.0, 1e-9);
  EXPECT_NEAR(q[2], 0.5, 1e-9);
}

// The capping fixpoint as first written: a separate mass pass and capping
// pass per round, then a final scaling pass.  cap_to_slate_marginals folds
// the next round's mass into the capping pass and must stay bit-identical
// to this reference.
std::vector<double> reference_cap(std::span<const double> p,
                                  std::size_t slate_size) {
  const std::size_t k = p.size();
  const auto s = static_cast<double>(slate_size);
  std::vector<double> q(p.begin(), p.end());
  std::vector<bool> capped(k, false);
  std::size_t num_capped = 0;
  for (;;) {
    double uncapped_mass = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!capped[i]) uncapped_mass += q[i];
    }
    const double target = s - static_cast<double>(num_capped);
    if (target <= 0.0) {
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] = 0.0;
      }
      break;
    }
    if (uncapped_mass <= 0.0) {
      const double fill = target / static_cast<double>(k - num_capped);
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] = fill;
      }
      break;
    }
    const double scale = target / uncapped_mass;
    bool newly_capped = false;
    for (std::size_t i = 0; i < k; ++i) {
      if (capped[i]) continue;
      if (q[i] * scale >= 1.0) {
        q[i] = 1.0;
        capped[i] = true;
        ++num_capped;
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] *= scale;
      }
      break;
    }
  }
  return q;
}

void expect_cap_matches_reference(const std::vector<double>& p,
                                  std::size_t slate_size) {
  const auto q = cap_to_slate_marginals(p, slate_size);
  const auto want = reference_cap(p, slate_size);
  ASSERT_EQ(q.size(), want.size());
  EXPECT_EQ(std::memcmp(q.data(), want.data(), q.size() * sizeof(double)), 0)
      << "k=" << p.size() << " s=" << slate_size;
}

// A few dominant entries, so the larger slates cap over several rounds.
std::vector<double> peaked_random(std::size_t k, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> p(k);
  double total = 0.0;
  for (auto& v : p) total += (v = std::pow(rng.uniform(), 32.0) + 1e-9);
  for (auto& v : p) v /= total;
  return p;
}

TEST(CapToSlateMarginals, BitIdenticalToTwoPassReferenceOnRandomInputs) {
  for (std::size_t k = 1; k <= 2048; ++k) {
    const std::size_t sizes[] = {1, SlateMwu::slate_size_for(k, 0.05), k};
    const auto flat = normalized_random(k, 1000 + k);
    const auto peaked = peaked_random(k, 5000 + k);
    for (const std::size_t slate_size : sizes) {
      expect_cap_matches_reference(flat, slate_size);
      expect_cap_matches_reference(peaked, slate_size);
    }
  }
}

TEST(CapToSlateMarginals, BitIdenticalToTwoPassReferenceOnEdgeCases) {
  for (const std::size_t k : {1u, 2u, 7u, 64u, 1000u}) {
    std::vector<double> one_hot(k, 0.0);
    one_hot[k / 2] = 1.0;
    const std::vector<double> equal(k, 1.0 / static_cast<double>(k));
    std::vector<double> tied(k, 0.1 / static_cast<double>(k));
    tied[0] = tied[k - 1] = 0.45;
    const std::vector<double> zero(k, 0.0);
    for (const std::size_t slate_size :
         {std::size_t{1}, (k + 1) / 2, std::size_t{k}}) {
      expect_cap_matches_reference(one_hot, slate_size);
      expect_cap_matches_reference(equal, slate_size);
      expect_cap_matches_reference(tied, slate_size);
      expect_cap_matches_reference(zero, slate_size);
    }
  }
}

TEST(CapToSlateMarginals, BitIdenticalToTwoPassReferenceAlongASlateRun) {
  // Every probabilities() vector a Slate learner hands to the cap over a
  // 2000-cycle run at k = 1024, from uniform to sharply peaked.
  MwuConfig config;
  config.num_options = 1024;
  SlateMwu mwu(config);
  util::RngStream rng(7);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    expect_cap_matches_reference(mwu.probabilities(), mwu.slate_size());
    const auto slate = mwu.sample(rng);
    std::vector<double> rewards(slate.size());
    for (std::size_t j = 0; j < slate.size(); ++j) {
      const double rate = slate[j] % 97 == 3 ? 0.9 : 0.2;
      rewards[j] = rng.uniform() < rate ? 1.0 : 0.0;
    }
    mwu.update(slate, rewards, rng);
  }
}

// The buffer-filling fixpoint, as SlateMwu drives it: a reused q whose
// stale contents must not leak in (capped entries are marked by
// q_i == 1.0), for any upper bound max_p.
void expect_cap_into_matches_reference(const std::vector<double>& p,
                                       std::size_t slate_size,
                                       std::vector<double>& q) {
  const auto want = reference_cap(p, slate_size);
  double mass = 0.0;
  double max_p = 0.0;
  for (const double v : p) {
    mass += v;
    max_p = std::max(max_p, v);
  }
  for (const double loose : {max_p, 2.0 * max_p + 1.0}) {
    for (const double stale : {1.0, 0.0, 0.5}) {
      q.assign(p.size() + 3, stale);
      cap_to_slate_marginals_into(p, slate_size, mass, loose, q);
      ASSERT_EQ(q.size(), want.size());
      EXPECT_EQ(std::memcmp(q.data(), want.data(), q.size() * sizeof(double)),
                0)
          << "k=" << p.size() << " s=" << slate_size << " stale=" << stale;
    }
  }
}

TEST(CapToSlateMarginals, IntoIgnoresStaleBufferAndLooseBound) {
  std::vector<double> q;
  // Multi-round capping, both branch exits, and the plain one-round case.
  const std::vector<std::pair<std::vector<double>, std::size_t>> cases = {
      {{0.46, 0.44, 0.05, 0.05}, 3},       // two rounds of caps
      {{0.5, 0.5, 0.0, 0.0}, 2},           // caps fill the slate: target <= 0
      {{1.0, 0.0, 0.0, 0.0}, 2},           // capped mass leaves zero mass
      {{0.0, 0.0, 0.0, 0.0, 0.0}, 3},      // zero mass from the start
      {{0.25, 0.25, 0.25, 0.25}, 4},       // everything capped at once
      {{0.1, 0.2, 0.3, 0.4}, 1},           // nothing caps
  };
  for (const auto& [p, slate_size] : cases) {
    expect_cap_into_matches_reference(p, slate_size, q);
  }
  for (std::size_t k = 1; k <= 1100; k += 37) {
    for (const std::size_t slate_size :
         {std::size_t{1}, SlateMwu::slate_size_for(k, 0.05), (k + 1) / 2}) {
      expect_cap_into_matches_reference(peaked_random(k, 77 + k), slate_size,
                                        q);
      expect_cap_into_matches_reference(normalized_random(k, 99 + k),
                                        slate_size, q);
    }
  }
}

// The systematic walk as first written (vector-returning, its own buffer).
std::vector<std::size_t> reference_systematic(std::span<const double> q,
                                              std::size_t slate_size,
                                              util::RngStream& rng) {
  const std::size_t k = q.size();
  std::vector<std::size_t> selected;
  double next_threshold = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < k && selected.size() < slate_size; ++i) {
    cumulative += q[i];
    if (next_threshold < cumulative) {
      selected.push_back(i);
      next_threshold += 1.0;
    }
  }
  if (selected.size() < slate_size) {
    std::vector<bool> in(k, false);
    for (std::size_t i : selected) in[i] = true;
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < k; ++i) {
      if (!in[i]) rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(),
              [&](std::size_t a, std::size_t b) { return q[a] > q[b]; });
    for (std::size_t i : rest) {
      if (selected.size() == slate_size) break;
      selected.push_back(i);
    }
    std::sort(selected.begin(), selected.end());
  }
  return selected;
}

TEST(SystematicSample, IntoMatchesReferenceOnAForcedShortfall) {
  // sum(q) = 1.99 < s = 2: a first threshold u >= 0.99 selects only
  // index 2 and leaves the second (u + 1) beyond the cumulative total, so
  // the fill path completes the slate with the highest-q unselected entry.
  const std::vector<double> q = {0.6, 0.39, 0.5, 0.5};
  std::uint64_t seed = 1;
  while (util::RngStream(seed).uniform() < 0.995) ++seed;
  util::RngStream rng(seed);
  util::RngStream reference_rng(seed);
  std::vector<std::size_t> out = {7, 7, 7, 7, 7};  // stale contents
  systematic_sample_into(q, 2, rng, out);
  const auto want = reference_systematic(q, 2, reference_rng);
  EXPECT_EQ(out, want);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 2}));  // the fill picked index 0
  EXPECT_EQ(rng.state(), reference_rng.state());
}

// Drives a Slate learner to a peaked state so later cycles cap over
// several rounds; rewards favour every 97th option.
void slate_step(SlateMwu& mwu, const std::vector<std::size_t>& slate,
                util::RngStream& rng) {
  std::vector<double> rewards(slate.size());
  for (std::size_t j = 0; j < slate.size(); ++j) {
    const double rate = slate[j] % 97 == 3 ? 0.9 : 0.2;
    rewards[j] = rng.uniform() < rate ? 1.0 : 0.0;
  }
  mwu.update(slate, rewards, rng);
}

TEST(SlateMwu, SampleIntoMatchesReferenceCapAndWalkAlongARun) {
  for (const double gamma : {0.05, 0.3}) {
    MwuConfig config;
    config.num_options = 1024;
    config.exploration = gamma;
    SlateMwu mwu(config);
    util::RngStream rng(11);
    std::vector<std::size_t> slate;
    for (int cycle = 0; cycle < 1500; ++cycle) {
      util::RngStream reference_rng = rng;
      const auto q =
          reference_cap(mwu.probabilities(), mwu.slate_size());
      const auto want =
          reference_systematic(q, mwu.slate_size(), reference_rng);
      mwu.sample_into(rng, slate);
      ASSERT_EQ(slate, want) << "gamma " << gamma << " cycle " << cycle;
      ASSERT_EQ(rng.state(), reference_rng.state());
      slate_step(mwu, slate, rng);
    }
  }
}

TEST(SlateMwu, DecompositionSampleIntoMatchesReferenceAlongARun) {
  MwuConfig config;
  config.num_options = 64;
  config.exploration = 0.1;
  SlateMwu mwu(config);
  mwu.set_sampler(SlateMwu::Sampler::kDecomposition);
  util::RngStream rng(13);
  std::vector<std::size_t> slate = {1, 2, 3};  // stale contents
  for (int cycle = 0; cycle < 300; ++cycle) {
    util::RngStream reference_rng = rng;
    const auto components = decompose_into_slates(
        reference_cap(mwu.probabilities(), mwu.slate_size()),
        mwu.slate_size());
    std::vector<double> coefficients;
    for (const auto& component : components) {
      coefficients.push_back(component.coefficient);
    }
    const util::FenwickSampler draw(coefficients);
    const std::size_t pick =
        std::min(draw.sample(reference_rng), components.size() - 1);
    mwu.sample_into(rng, slate);
    ASSERT_EQ(slate, components[pick].members) << "cycle " << cycle;
    ASSERT_EQ(rng.state(), reference_rng.state());
    slate_step(mwu, slate, rng);
  }
}

TEST(DecomposeIntoSlates, RejectsInfeasibleInput) {
  EXPECT_THROW(decompose_into_slates(std::vector<double>{0.5, 0.5}, 3),
               std::invalid_argument);
  // Sum != slate size.
  EXPECT_THROW(decompose_into_slates(std::vector<double>{0.2, 0.2}, 1),
               std::invalid_argument);
  // Entry above 1.
  EXPECT_THROW(decompose_into_slates(std::vector<double>{1.5, 0.5}, 2),
               std::invalid_argument);
}

TEST(DecomposeIntoSlates, IntegralInputIsASingleSlate) {
  const std::vector<double> q = {1.0, 0.0, 1.0, 0.0};
  const auto components = decompose_into_slates(q, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_NEAR(components[0].coefficient, 1.0, 1e-9);
  EXPECT_EQ(components[0].members, (std::vector<std::size_t>{0, 2}));
}

// The decomposition's defining property: coefficients sum to 1, every
// component is a distinct s-subset, and the mixture reproduces q exactly.
class DecompositionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DecompositionSweep, MixtureReproducesMarginals) {
  const auto [k, slate] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto p = normalized_random(k, seed);
    const auto q = cap_to_slate_marginals(p, slate);
    const auto components = decompose_into_slates(q, slate);

    double coefficient_sum = 0.0;
    std::vector<double> reconstructed(k, 0.0);
    for (const auto& component : components) {
      EXPECT_GT(component.coefficient, 0.0);
      ASSERT_EQ(component.members.size(), slate);
      const std::set<std::size_t> unique(component.members.begin(),
                                         component.members.end());
      EXPECT_EQ(unique.size(), slate) << "slate members must be distinct";
      coefficient_sum += component.coefficient;
      for (const std::size_t i : component.members) {
        reconstructed[i] += component.coefficient;
      }
    }
    EXPECT_NEAR(coefficient_sum, 1.0, 1e-6);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(reconstructed[i], q[i], 1e-6) << "option " << i;
    }
    // O(k^2)-ish component count: at most ~2k components.
    EXPECT_LE(components.size(), 2 * k + 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DecompositionSweep,
    ::testing::Values(std::make_tuple(4, 1), std::make_tuple(8, 2),
                      std::make_tuple(16, 3), std::make_tuple(32, 8),
                      std::make_tuple(64, 5), std::make_tuple(100, 25)));

TEST(SystematicSample, AlwaysReturnsExactlySlateDistinctIndices) {
  util::RngStream rng(3);
  const auto p = normalized_random(50, 4);
  const auto q = cap_to_slate_marginals(p, 7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto slate = systematic_sample(q, 7, rng);
    ASSERT_EQ(slate.size(), 7u);
    const std::set<std::size_t> unique(slate.begin(), slate.end());
    EXPECT_EQ(unique.size(), 7u);
    for (const auto i : slate) EXPECT_LT(i, 50u);
  }
}

TEST(SystematicSample, RejectsBadSlateSize) {
  util::RngStream rng(5);
  const std::vector<double> q = {1.0, 1.0};
  EXPECT_THROW(systematic_sample(q, 0, rng), std::invalid_argument);
  EXPECT_THROW(systematic_sample(q, 3, rng), std::invalid_argument);
}

TEST(SystematicSample, CappedEntryIsAlwaysSelected) {
  util::RngStream rng(6);
  const std::vector<double> p = {0.97, 0.01, 0.01, 0.01};
  const auto q = cap_to_slate_marginals(p, 2);  // q[0] == 1
  for (int trial = 0; trial < 100; ++trial) {
    const auto slate = systematic_sample(q, 2, rng);
    EXPECT_NE(std::find(slate.begin(), slate.end(), 0u), slate.end());
  }
}

TEST(SystematicSample, InclusionFrequenciesMatchMarginals) {
  util::RngStream rng(7);
  const auto p = normalized_random(12, 8);
  constexpr std::size_t kSlate = 4;
  const auto q = cap_to_slate_marginals(p, kSlate);
  std::vector<int> counts(12, 0);
  constexpr int kTrials = 50000;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (const auto i : systematic_sample(q, kSlate, rng)) ++counts[i];
  }
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kTrials, q[i], 0.02)
        << "option " << i;
  }
}

}  // namespace
}  // namespace mwr::core
