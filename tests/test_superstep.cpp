// Tests for the bounded-thread superstep engine: rank multiplexing,
// schedule-independence of communicating programs, exception propagation
// out of a mid-superstep failure, deadlock detection with clean unwinding,
// and the engine's observability counters.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/barrier.hpp"
#include "parallel/comm.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/superstep.hpp"

namespace mwr::parallel {
namespace {

TEST(SuperstepEngine, RunsEveryRankOnASingleWorker) {
  constexpr std::size_t kRanks = 37;
  SuperstepEngine::Config config;
  config.workers = 1;
  SuperstepEngine engine(kRanks, config);
  EXPECT_EQ(engine.ranks(), kRanks);
  EXPECT_EQ(engine.workers(), 1u);

  std::vector<int> visits(kRanks, 0);
  engine.run([&](int rank) { ++visits[static_cast<std::size_t>(rank)]; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(SuperstepEngine, ZeroRanksRejected) {
  EXPECT_THROW(SuperstepEngine(0, {}), std::invalid_argument);
}

TEST(SuperstepEngine, BarriersMultiplexManyRanksPerWorker) {
  // 64 ranks on 2 workers crossing 5 barriers: between consecutive
  // barriers every rank must have run exactly once more.
  constexpr std::size_t kRanks = 64;
  constexpr int kCycles = 5;
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(kRanks, config);
  CountingBarrier barrier(kRanks);

  std::atomic<int> entered{0};
  std::vector<int> rounds(kRanks, 0);
  engine.run([&](int rank) {
    for (int c = 0; c < kCycles; ++c) {
      ++rounds[static_cast<std::size_t>(rank)];
      entered.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait([&] {
        // Completion runs with all ranks arrived: the round count must be
        // uniform at every superstep boundary.
        EXPECT_EQ(entered.load(std::memory_order_relaxed),
                  static_cast<int>(kRanks) * (c + 1));
      });
    }
  });
  EXPECT_EQ(barrier.generations(), static_cast<std::uint64_t>(kCycles));
  for (const int r : rounds) EXPECT_EQ(r, kCycles);
}

// A communicating SPMD program (message ring + reduction) must produce the
// same answer on every substrate and worker count — the engine adds no
// observable scheduling freedom.
std::vector<double> ring_program_totals(RunPolicy policy) {
  constexpr std::size_t kRanks = 16;
  constexpr int kRounds = 8;
  std::vector<double> totals(kRanks, 0.0);
  CommWorld world(kRanks, policy);
  world.run([&](Comm& comm) {
    const int n = comm.size();
    double held = comm.rank();
    for (int round = 0; round < kRounds; ++round) {
      comm.send((comm.rank() + 1) % n, /*tag=*/7, {held});
      held = comm.recv((comm.rank() + n - 1) % n, /*tag=*/7).payload.at(0);
      totals[static_cast<std::size_t>(comm.rank())] += held;
      comm.barrier();
    }
  });
  return totals;
}

TEST(SuperstepEngine, RingProgramIsIdenticalAcrossSubstrates) {
  const auto reference = ring_program_totals(RunPolicy::thread_per_rank());
  EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), 0.0),
            8.0 * (15.0 * 16.0 / 2.0));
  for (const std::size_t workers : {1u, 2u, 4u}) {
    EXPECT_EQ(reference, ring_program_totals(RunPolicy::superstep(workers)))
        << "workers=" << workers;
  }
}

TEST(SuperstepEngine, BodyExceptionUnwindsBlockedPeers) {
  // Rank 0 throws mid-superstep while ranks 1 and 2 are parked at a
  // 3-party barrier that can never complete.  The engine must unwind the
  // blocked fibers (destructors run, code after the barrier does not) and
  // rethrow the original exception.
  constexpr std::size_t kRanks = 3;
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(kRanks, config);
  CountingBarrier barrier(kRanks);

  std::vector<int> unwound(kRanks, 0);
  std::vector<int> passed_barrier(kRanks, 0);
  struct UnwindProbe {
    int* flag;
    ~UnwindProbe() { *flag = 1; }
  };
  EXPECT_THROW(
      engine.run([&](int rank) {
        const auto r = static_cast<std::size_t>(rank);
        UnwindProbe probe{&unwound[r]};
        if (rank == 0) throw std::logic_error("rank 0 failed");
        barrier.arrive_and_wait();
        passed_barrier[r] = 1;
      }),
      std::logic_error);
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(unwound[r], 1) << "rank " << r << " stack did not unwind";
  }
  EXPECT_EQ(passed_barrier[1], 0);
  EXPECT_EQ(passed_barrier[2], 0);
}

TEST(SuperstepEngine, DeadlockIsDetectedAndUnwound) {
  // Rank 0 receives a message nobody sends; rank 1 finishes.  A
  // thread-per-rank world would hang — the engine detects that every
  // unfinished rank is blocked, unwinds rank 0, and reports the deadlock.
  SuperstepEngine::Config config;
  config.workers = 1;
  SuperstepEngine engine(2, config);
  Mailbox silent;
  int unwound = 0;
  struct UnwindProbe {
    int* flag;
    ~UnwindProbe() { *flag = 1; }
  };
  try {
    engine.run([&](int rank) {
      if (rank == 0) {
        UnwindProbe probe{&unwound};
        (void)silent.recv();
        FAIL() << "recv on a silent mailbox returned";
      }
    });
    FAIL() << "deadlock not reported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
  EXPECT_EQ(unwound, 1);
}

TEST(SuperstepEngine, IsReusableAcrossRuns) {
  // One engine serves many runs — its pool threads park between runs,
  // and a run that throws leaves the engine ready for the next.
  constexpr std::size_t kRanks = 24;
  constexpr int kRuns = 6;
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(kRanks, config);
  CountingBarrier barrier(kRanks);

  std::vector<int> visits(kRanks, 0);
  for (int run = 0; run < kRuns; ++run) {
    engine.run([&](int rank) {
      ++visits[static_cast<std::size_t>(rank)];
      barrier.arrive_and_wait();
    });
  }
  for (const int v : visits) EXPECT_EQ(v, kRuns);
  EXPECT_EQ(barrier.generations(), static_cast<std::uint64_t>(kRuns));

  // A failed run must not poison the engine.
  EXPECT_THROW(engine.run([&](int rank) {
                 if (rank == 3) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  std::vector<int> after(kRanks, 0);
  engine.run([&](int rank) { ++after[static_cast<std::size_t>(rank)]; });
  for (const int v : after) EXPECT_EQ(v, 1);
}

TEST(SuperstepEngine, CountsSuperstepsAndRunnableRanks) {
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter("spmd.engine.supersteps").value();

  constexpr std::size_t kRanks = 8;
  constexpr int kCycles = 4;
  CommWorld world(kRanks, RunPolicy::superstep(1));
  world.run([&](Comm& comm) {
    for (int c = 0; c < kCycles; ++c) comm.barrier();
  });

  // Every completed barrier generation with a fiber party is one superstep
  // boundary.
  EXPECT_GE(registry.counter("spmd.engine.supersteps").value(),
            before + kCycles);
  EXPECT_GE(registry.gauge("spmd.engine.runnable_ranks").value(),
            static_cast<double>(kRanks));
}

}  // namespace
}  // namespace mwr::parallel
