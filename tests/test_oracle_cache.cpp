// Pooled-table golden tests: TestOracle::evaluate_pooled over a primed
// per-pool table must be bit-identical to the uncached reference
// evaluate() on every patch — including the localized-relevance branch,
// unsafe pool members, dense interference, pools above the interference
// CSR bound, and concurrent readers — and a swap's operand orientation
// must never borrow another member's table entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apr/mutation_pool.hpp"
#include "apr/repair_session.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec cache_spec(bool localized) {
  datasets::ScenarioSpec spec;
  spec.name = localized ? "cache-localized" : "cache-global";
  spec.options = 500;
  spec.statements = 900;
  spec.tests = 24;
  spec.coverage = 0.8;
  spec.safe_rate = 0.5;
  spec.repair_rate = 0.04;
  spec.optimum = 20;
  spec.min_repair_edits = 1;
  spec.seed = 314;
  spec.relevance_localized = localized;
  return spec;
}

Patch patch_at(std::span<const Mutation> pool,
               std::span<const std::uint32_t> indices) {
  Patch patch;
  for (const std::uint32_t i : indices) patch.push_back(pool[i]);
  return patch;
}

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

TEST(OracleCache, EvaluateBitIdenticalOnRandomPatches) {
  // A pool of raw random mutations (about half of them unsafe) exercises
  // the table's unsafe masks as well as its pair rows.
  for (const bool localized : {false, true}) {
    const ProgramModel program(cache_spec(localized));
    const TestOracle oracle(program);
    util::RngStream rng(9);
    std::vector<Mutation> raw(400);
    for (Mutation& m : raw) m = random_mutation(program, rng);
    const auto pool = MutationPool::from_mutations(raw);
    oracle.prime_wave(pool.mutations());
    ASSERT_TRUE(oracle.wave_ready());
    std::vector<std::uint32_t> indices;
    for (int trial = 0; trial < 300; ++trial) {
      sample_from_pool_indexed(pool.size(), 1 + rng.uniform_index(12), rng,
                               indices);
      EXPECT_EQ(oracle.evaluate(patch_at(pool.mutations(), indices)),
                oracle.evaluate_pooled(indices))
          << "localized=" << localized << " trial=" << trial;
    }
  }
}

TEST(OracleCache, PrimedPooledProbesBitIdentical) {
  const ProgramModel program(cache_spec(true));
  const TestOracle oracle(program);

  PoolConfig config;
  config.target_size = 300;
  config.seed = 5;
  const auto pool = MutationPool::precompute(oracle, config);
  ASSERT_GT(pool.size(), 0u);
  oracle.prime_wave(pool.mutations());
  // Priming the same pool again keeps the table.
  const Mutation* table = oracle.wave_pool().data();
  oracle.prime_wave(pool.mutations());
  EXPECT_EQ(table, oracle.wave_pool().data());

  util::RngStream rng(21);
  std::vector<std::uint32_t> indices;
  for (int trial = 0; trial < 400; ++trial) {
    sample_from_pool_indexed(pool.size(), 2 + rng.uniform_index(30), rng,
                             indices);
    EXPECT_EQ(oracle.evaluate(patch_at(pool.mutations(), indices)),
              oracle.evaluate_pooled(indices));
  }
}

TEST(OracleCache, WaveEvaluatePooledBitIdentical) {
  // prime_wave + evaluate_pooled must agree bit-for-bit with the reference
  // on index-sampled pool patches — including the localized-coverage
  // branch — and the indexed sampler must consume the RNG exactly like
  // sample_from_pool.
  for (const bool localized : {false, true}) {
    const ProgramModel program(cache_spec(localized));
    const TestOracle reference(program);
    const TestOracle waved(program);

    PoolConfig config;
    config.target_size = 300;
    config.seed = 5;
    const auto pool = MutationPool::precompute(reference, config);
    ASSERT_GT(pool.size(), 0u);
    waved.prime_wave(pool.mutations());
    ASSERT_TRUE(waved.wave_ready());

    util::RngStream rng_ref(33);
    util::RngStream rng_idx(33);
    std::vector<std::uint32_t> indices;
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t size = 2 + rng_ref.uniform_index(30);
      ASSERT_EQ(size, 2 + rng_idx.uniform_index(30));
      const auto patch = sample_from_pool(pool.mutations(), size, rng_ref);
      sample_from_pool_indexed(pool.size(), size, rng_idx, indices);
      // Indexed draws name the identical canonical patch...
      ASSERT_EQ(patch.size(), indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        ASSERT_EQ(patch[i], pool.mutations()[indices[i]])
            << "localized=" << localized << " trial=" << trial;
      }
      // ...and both RNG streams stay in lockstep.
      ASSERT_EQ(rng_ref.state(), rng_idx.state());
      EXPECT_EQ(reference.evaluate(patch), waved.evaluate_pooled(indices))
          << "localized=" << localized << " trial=" << trial;
    }
  }
}

TEST(OracleCache, MixedPooledAndForeignMutationsBitIdentical) {
  // A table primed from a precomputed safe pool plus foreign random
  // mutations (some unsafe): patches mixing both stay bit-identical.
  const ProgramModel program(cache_spec(false));
  const TestOracle oracle(program);
  PoolConfig config;
  config.target_size = 100;
  config.seed = 8;
  const auto safe = MutationPool::precompute(oracle, config);
  std::vector<Mutation> members(safe.mutations().begin(),
                                safe.mutations().end());
  util::RngStream rng(33);
  for (int extra = 0; extra < 100; ++extra) {
    members.push_back(random_mutation(program, rng));
  }
  const auto pool = MutationPool::from_mutations(members);
  oracle.prime_wave(pool.mutations());

  std::vector<std::uint32_t> indices;
  for (int trial = 0; trial < 300; ++trial) {
    sample_from_pool_indexed(pool.size(), 12, rng, indices);
    EXPECT_EQ(oracle.evaluate(patch_at(pool.mutations(), indices)),
              oracle.evaluate_pooled(indices));
  }
}

TEST(OracleCache, SwapOrientationDoesNotLeakThroughTheCache) {
  // A swap's key orders its operands, but localized relevance depends on
  // the concrete target, so the two orientations of one key can differ.
  // Each orientation's own table agrees with the reference, and a working
  // pool holding the flipped orientation is rejected by the session's
  // mapping instead of being evaluated with the table member's coverage.
  const ProgramModel program(cache_spec(true));
  const TestOracle reference(program);
  const auto& covered = program.covered_statements();
  ASSERT_GE(covered.size(), 2u);
  util::RngStream rng(55);
  std::vector<Mutation> forward;
  std::vector<Mutation> flipped;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = covered[rng.uniform_index(covered.size())];
    const auto b = covered[rng.uniform_index(covered.size())];
    if (a == b) continue;
    const Mutation fwd{MutationKind::kSwap, a, b};
    const Mutation rev{MutationKind::kSwap, b, a};
    ASSERT_EQ(fwd.key(), rev.key());
    EXPECT_EQ(reference.is_safe(fwd), reference.is_safe(rev));
    if (reference.is_repair_relevant(fwd) !=
        reference.is_repair_relevant(rev)) {
      forward.push_back(fwd);
      flipped.push_back(rev);
    }
  }
  // The corner this guards: the two orientations genuinely can differ, so
  // a table matched by key alone would be wrong.
  ASSERT_FALSE(forward.empty());

  const auto forward_pool = MutationPool::from_mutations(forward);
  const auto flipped_pool = MutationPool::from_mutations(flipped);
  for (const MutationPool* pool : {&forward_pool, &flipped_pool}) {
    const TestOracle oracle(program);
    oracle.prime_wave(pool->mutations());
    for (std::uint32_t i = 0; i < pool->size(); ++i) {
      const std::uint32_t index[] = {i};
      EXPECT_EQ(reference.evaluate(patch_at(pool->mutations(), index)),
                oracle.evaluate_pooled(index));
    }
  }

  const TestOracle shared(program);
  shared.prime_wave(forward_pool.mutations());
  MwRepairConfig config;
  config.max_iterations = 4;
  config.max_count = 2;
  EXPECT_THROW((void)RepairSession(config, shared, flipped_pool, false),
               std::invalid_argument);
  EXPECT_NO_THROW((void)RepairSession(config, shared, forward_pool, false));
}

TEST(OracleCache, SuiteRunAccountingUnchangedByCaching) {
  // Both evaluation paths count one suite run per call; building the table
  // counts none.
  const ProgramModel program(cache_spec(false));
  const TestOracle oracle(program);
  util::RngStream rng(4);
  std::vector<Mutation> raw(50);
  for (Mutation& m : raw) m = random_mutation(program, rng);
  const auto pool = MutationPool::from_mutations(raw);
  oracle.prime_wave(pool.mutations());
  EXPECT_EQ(oracle.suite_runs(), 0u);
  std::vector<std::uint32_t> indices;
  for (int trial = 0; trial < 25; ++trial) {
    sample_from_pool_indexed(pool.size(), 5, rng, indices);
    (void)oracle.evaluate(patch_at(pool.mutations(), indices));
    (void)oracle.evaluate_pooled(indices);
  }
  EXPECT_EQ(oracle.suite_runs(), 50u);
}

TEST(OracleCache, ParallelRevalidateMatchesSerial) {
  // Survivors of a pool revalidation are identical for any thread count.
  auto base = cache_spec(false);
  const ProgramModel program(base);
  const TestOracle oracle(program);
  PoolConfig config;
  config.target_size = 200;
  config.seed = 3;
  const auto pool = MutationPool::precompute(oracle, config);

  // Revalidate against a *grown* suite so some members actually drop.
  auto grown = base;
  grown.tests = base.tests + 8;
  const ProgramModel grown_program(grown);
  const TestOracle grown_oracle(grown_program);

  MutationPool serial = pool;
  MutationPool parallel = pool;
  const std::size_t dropped_serial = serial.revalidate(grown_oracle, 1);
  const std::size_t dropped_parallel = parallel.revalidate(grown_oracle, 4);
  EXPECT_EQ(dropped_serial, dropped_parallel);
  EXPECT_GT(dropped_serial, 0u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.mutations()[i], parallel.mutations()[i]);
  }
}

TEST(OracleCache, WaveEvaluatePooledDenseBitIdentical) {
  // The pooled kernel's shortcuts (row skip, stop once every test is
  // broken) only fire on dense interference, so this runs the real
  // libtiff and lighttpd scenarios over patches up to the whole pool, in
  // four shapes: the pool's own suite; a grown suite, primed with the
  // base pool so unsafe members carry nonzero masks; a 64-test suite,
  // where every test broken is the all-ones mask; and a pool just above
  // kMaxPairDimension, whose table has no CSR and hashes pairs directly.
  for (const char* name : {"libtiff-2005-12-14", "lighttpd-1806-1807"}) {
    const datasets::ScenarioSpec base = datasets::scenario_by_name(name);
    datasets::ScenarioSpec grown = base;
    grown.tests = base.tests + 8;
    datasets::ScenarioSpec wide = base;
    wide.tests = 64;
    const ProgramModel base_program(base);
    const ProgramModel wide_program(wide);
    const TestOracle base_oracle(base_program);
    const TestOracle wide_oracle(wide_program);
    PoolConfig config;
    config.target_size = 600;
    config.seed = 17;
    const auto base_pool = MutationPool::precompute(base_oracle, config);
    const auto wide_pool = MutationPool::precompute(wide_oracle, config);
    config.target_size = TestOracle::kMaxPairDimension + 8;
    const auto large_pool = MutationPool::precompute(base_oracle, config);
    ASSERT_EQ(base_pool.size(), 600u) << name;
    ASSERT_EQ(wide_pool.size(), 600u) << name;
    ASSERT_EQ(large_pool.size(), TestOracle::kMaxPairDimension + 8) << name;

    struct Case {
      const char* label;
      datasets::ScenarioSpec spec;
      std::span<const Mutation> pool;
      bool has_unsafe;
    };
    for (const Case& c :
         {Case{"base", base, base_pool.mutations(), false},
          Case{"grown", grown, base_pool.mutations(), true},
          Case{"wide", wide, wide_pool.mutations(), false},
          Case{"large", base, large_pool.mutations(), false}}) {
      const ProgramModel program(c.spec);
      const TestOracle reference(program);
      const TestOracle waved(program);
      waved.prime_wave(c.pool);
      ASSERT_TRUE(waved.wave_ready());
      std::size_t unsafe = 0;
      for (const Mutation& m : c.pool) unsafe += reference.is_safe(m) ? 0 : 1;
      EXPECT_EQ(unsafe > 0, c.has_unsafe) << name << " " << c.label;

      util::RngStream rng(41);
      std::vector<std::uint32_t> indices;
      std::size_t all_broken = 0;
      std::size_t all_passed = 0;
      for (const std::size_t size : sizes_up_to(c.pool.size())) {
        for (int trial = 0; trial < 2; ++trial) {
          sample_from_pool_indexed(c.pool.size(), size, rng, indices);
          const Evaluation expected =
              reference.evaluate(patch_at(c.pool, indices));
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
  const TestOracle oracle(program);
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
