// Unit tests for parallel/thread_pool: futures, exception propagation,
// parallel_for coverage, and lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
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

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto future = pool.submit([&] { counter.fetch_add(1); });
  future.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WorkersSurviveAFailedTask) {
  ThreadPool pool(1);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  auto good = pool.submit([] { return 1; });
  EXPECT_EQ(good.get(), 1);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 100);
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
  // Regression: parallel_for_index called from inside one of the pool's own
  // tasks used to submit chunks back into the pool and block on their
  // futures — with every worker inside such a call, the chunks sat queued
  // behind the waiting tasks forever.  A pool of size 1 makes the hang
  // deterministic; the fix runs the nested range inline.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(64);
  auto outer = pool.submit([&] {
    pool.parallel_for_index(hits.size(),
                            [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  outer.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
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
  ThreadPool pool(1);
  auto outer = pool.submit([&] {
    pool.parallel_for_index(4, [](std::size_t i) {
      if (i == 2) throw std::runtime_error("nested failure");
    });
  });
  EXPECT_THROW(outer.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitFromInsideATask) {
  ThreadPool pool(2);
  auto outer = pool.submit([&] {
    auto inner = pool.submit([] { return 5; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 6);
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
