// Word-parallel pooled evaluation on dense interference: the wave-ready
// TestOracle's evaluate_pooled must equal the uncached reference path on
// patches up to the whole pool, and stay exact under concurrent readers.
//
// These OracleCache cases live in their own binary.  mwr_test_apr's
// ScenarioOracleSweep names embed raw ScenarioSpec bytes (gtest prints the
// struct as a byte dump, led by a heap pointer), so every registration
// added to that binary shifts the heap and renames those tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"

namespace mwr::apr {
namespace {

// Index patches of every size from one member up to the whole pool: each
// small size, then quarter-steps, then the pool itself.
std::vector<std::size_t> sizes_up_to(std::size_t pool_size) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s < pool_size; s = s < 32 ? s + 1 : s + s / 4) {
    sizes.push_back(s);
  }
  sizes.push_back(pool_size);
  return sizes;
}

Patch patch_at(std::span<const Mutation> pool,
               std::span<const std::uint32_t> indices) {
  Patch patch;
  for (const std::uint32_t i : indices) patch.push_back(pool[i]);
  return patch;
}

TEST(OracleCache, WaveEvaluatePooledDenseBitIdentical) {
  // The pooled kernel's shortcuts (row skip, stop once every test is
  // broken) only fire on dense interference, so this runs the real
  // libtiff and lighttpd scenarios over patches up to the whole pool, in
  // three shapes: the pool's own suite; a grown suite, primed with the
  // base pool so unsafe members carry nonzero masks; and a 64-test suite,
  // where every test broken is the all-ones mask.
  for (const char* name : {"libtiff-2005-12-14", "lighttpd-1806-1807"}) {
    const datasets::ScenarioSpec base = datasets::scenario_by_name(name);
    datasets::ScenarioSpec grown = base;
    grown.tests = base.tests + 8;
    datasets::ScenarioSpec wide = base;
    wide.tests = 64;
    const ProgramModel base_program(base);
    const ProgramModel wide_program(wide);
    const TestOracle base_oracle(base_program, false);
    const TestOracle wide_oracle(wide_program, false);
    PoolConfig config;
    config.target_size = 600;
    config.seed = 17;
    const auto base_pool = MutationPool::precompute(base_oracle, config);
    const auto wide_pool = MutationPool::precompute(wide_oracle, config);
    ASSERT_EQ(base_pool.size(), 600u) << name;
    ASSERT_EQ(wide_pool.size(), 600u) << name;

    struct Case {
      const char* label;
      datasets::ScenarioSpec spec;
      std::span<const Mutation> pool;
      bool has_unsafe;
    };
    for (const Case& c : {Case{"base", base, base_pool.mutations(), false},
                          Case{"grown", grown, base_pool.mutations(), true},
                          Case{"wide", wide, wide_pool.mutations(), false}}) {
      const ProgramModel program(c.spec);
      const TestOracle uncached(program, false);
      const TestOracle waved(program, true);
      waved.prime_wave(c.pool);
      ASSERT_TRUE(waved.wave_ready());
      std::size_t unsafe = 0;
      for (const Mutation& m : c.pool) unsafe += uncached.is_safe(m) ? 0 : 1;
      EXPECT_EQ(unsafe > 0, c.has_unsafe) << name << " " << c.label;

      util::RngStream rng(41);
      std::vector<std::uint32_t> indices;
      std::size_t all_broken = 0;
      std::size_t all_passed = 0;
      for (const std::size_t size : sizes_up_to(c.pool.size())) {
        for (int trial = 0; trial < 2; ++trial) {
          sample_from_pool_indexed(c.pool.size(), size, rng, indices);
          const Evaluation expected =
              uncached.evaluate(patch_at(c.pool, indices));
          ASSERT_EQ(expected, waved.evaluate_pooled(indices))
              << name << " " << c.label << " size=" << size
              << " trial=" << trial;
          all_broken += expected.required_passed == 0 ? 1 : 0;
          all_passed +=
              expected.required_passed == expected.required_total ? 1 : 0;
        }
      }
      EXPECT_GT(all_broken, 0u) << name << " " << c.label;
      EXPECT_GT(all_passed, 0u) << name << " " << c.label;
    }
  }
}

TEST(OracleCache, WaveEvaluatePooledConcurrentReaders) {
  // Epoch tasks share one wave-ready oracle: its table is read-only and
  // each thread's member bitset is thread_local, so concurrent readers
  // must see exactly the serial results.
  const datasets::ScenarioSpec spec =
      datasets::scenario_by_name("libtiff-2005-12-14");
  const ProgramModel program(spec);
  const TestOracle oracle(program, true);
  PoolConfig config;
  config.target_size = 400;
  config.seed = 23;
  const auto pool = MutationPool::precompute(oracle, config);
  oracle.prime_wave(pool.mutations());
  ASSERT_TRUE(oracle.wave_ready());

  util::RngStream rng(7);
  std::vector<std::vector<std::uint32_t>> patches(200);
  for (auto& indices : patches) {
    sample_from_pool_indexed(pool.size(), 1 + rng.uniform_index(120), rng,
                             indices);
  }
  std::vector<Evaluation> serial;
  for (const auto& indices : patches) {
    serial.push_back(oracle.evaluate_pooled(indices));
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Evaluation>> seen(kThreads);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (const auto& indices : patches) {
          seen[t].push_back(oracle.evaluate_pooled(indices));
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), 5 * patches.size());
    for (std::size_t i = 0; i < seen[t].size(); ++i) {
      EXPECT_EQ(seen[t][i], serial[i % patches.size()])
          << "thread=" << t << " probe=" << i;
    }
  }
}

}  // namespace
}  // namespace mwr::apr
