// Unit tests for parallel/thread_pool: participant count, inline and
// nested runs, exception propagation, parallel_for coverage, and
// lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace mwr::parallel {
namespace {

TEST(ThreadPool, ReportsItsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsOnExactlySizeParticipants) {
  // Every item waits (bounded) until size() distinct threads have entered
  // the job, so the job completes promptly only if that many participants
  // run it at once — the caller among them — and no more ever join.
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::thread::id> entered;
  pool.parallel_for_index(pool.size(), [&](std::size_t) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      entered.insert(std::this_thread::get_id());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (entered.size() >= pool.size()) return;
      }
      if (std::chrono::steady_clock::now() >= deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_EQ(entered.size(), pool.size());
  EXPECT_EQ(entered.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, SizeOneRunsInlineOnTheCaller) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  std::set<std::thread::id> threads;
  pool.parallel_for_index(100, [&](std::size_t i) {
    order.push_back(i);
    threads.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ThreadPool, WorkersSurviveAFailedTask) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(8,
                                       [](std::size_t) {
                                         throw std::runtime_error("boom");
                                       }),
               std::runtime_error);
  std::atomic<int> counter{0};
  pool.parallel_for_index(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ConcurrentOutsideCallersTakeTurns) {
  // A second outside caller waits for the job in flight, then runs its
  // own; neither loses an index.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(2 * 500);
  std::vector<std::thread> callers;
  callers.reserve(2);
  for (std::size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for_index(500, [&](std::size_t i) {
          hits[c * 500 + i].fetch_add(1);
        });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 20);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_index(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for_index(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for_index(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(
                   10,
                   [](std::size_t i) {
                     if (i == 5) throw std::runtime_error("bad index");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryItemBeforeRethrowing) {
  // fn and the claim cursor live in the caller's frame, so the call may
  // not return (or throw) while another task is still running fn.
  ThreadPool pool(2);
  std::atomic<bool> slow_item_finished{false};
  EXPECT_THROW(pool.parallel_for_index(
                   2,
                   [&](std::size_t i) {
                     if (i == 0) throw std::runtime_error("first item");
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(100));
                     slow_item_finished.store(true);
                   }),
               std::runtime_error);
  EXPECT_TRUE(slow_item_finished.load());
}

TEST(ThreadPool, ParallelForBalancesASkewedRange) {
  // Item 0 stands for one expensive replication at the front of the range.
  // With contiguous per-worker blocks, items 1..31 would queue behind it on
  // the same worker and it would time out; with a shared cursor the other
  // worker claims all of them while item 0 is still running.
  ThreadPool pool(2);
  constexpr std::size_t kCount = 64;
  std::atomic<std::size_t> others_done{0};
  std::atomic<std::size_t> seen_by_item0{0};
  pool.parallel_for_index(kCount, [&](std::size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (others_done.load() < kCount - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    seen_by_item0.store(others_done.load());
  });
  EXPECT_EQ(seen_by_item0.load(), kCount - 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A participant that fans out again on its own pool would wait for the
  // job in flight — the one it is part of.  The nested range runs inline
  // instead, on the thread that called it: a parked thread or the caller
  // while it drains.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(2 * 64);
  std::atomic<int> foreign{0};
  pool.parallel_for_index(2, [&](std::size_t outer) {
    const std::thread::id self = std::this_thread::get_id();
    pool.parallel_for_index(64, [&](std::size_t i) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      hits[outer * 64 + i].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPool, NestedParallelForInsideParallelFor) {
  // Same hazard through the other entry point: every outer chunk fans out
  // again on the same saturated pool.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for_index(8, [&](std::size_t) {
    pool.parallel_for_index(8, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, NestedParallelForStillPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(2,
                                       [&](std::size_t) {
                                         pool.parallel_for_index(
                                             4, [](std::size_t i) {
                                               if (i == 2)
                                                 throw std::runtime_error(
                                                     "nested failure");
                                             });
                                       }),
               std::runtime_error);
}

class ParallelForSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForSweep, SumOfIndicesIsCorrect) {
  ThreadPool pool(GetParam());
  std::atomic<std::int64_t> sum{0};
  constexpr std::size_t kCount = 2000;
  pool.parallel_for_index(kCount, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kCount * (kCount - 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelForSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace mwr::parallel
