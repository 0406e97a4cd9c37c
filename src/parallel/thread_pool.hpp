// Fixed-size worker pool used by the precompute phase and the parallel MWU
// drivers.
//
// Design notes (per the C++ Core Guidelines concurrency rules):
//  - the pool owns its threads and joins them in the destructor (RAII);
//  - tasks are type-erased through std::packaged_task so submit() returns a
//    std::future and exceptions thrown inside a task propagate to the
//    caller, never escaping into the worker loop;
//  - parallel_for_index hands an index range out in small chunks claimed
//    from a shared cursor, so a range whose cost is skewed (the Table II
//    sweep's few large-k replications) still keeps every worker busy.
//    Callers write per-index slots and fix any randomness before the
//    fan-out (an index gets a split RNG stream, not a shared one), so
//    which worker ran an index never shows in the results.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel {

/// A fixed pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.  Shutdown lock
  /// ordering: takes mutex_ only to set the stop flag, releases it before
  /// joining — so the caller must not hold mutex_ (MWR_EXCLUDES), and must
  /// not be one of this pool's own workers (self-join; asserted at
  /// runtime).  Nested parallel_for_index calls run inline on their worker
  /// and therefore never own the destructor path.
  ~ThreadPool() MWR_EXCLUDES(mutex_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a callable; the returned future carries its result or
  /// exception.  Safe to call from any thread, including from inside tasks
  /// (the pool never blocks enqueue on execution).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> result = task.get_future();
    enqueue([t = std::make_shared<std::packaged_task<R()>>(std::move(task))] {
      (*t)();
    });
    return result;
  }

  /// Runs fn(i) for every i in [0, count) and waits for completion.  Up to
  /// `size()` tasks claim chunks of max(1, count / (tasks * 64)) indices
  /// from a shared atomic cursor until the range is exhausted; the chunk
  /// depends only on (count, size()), never on timing.  fn must be safe to
  /// invoke concurrently for distinct i.  A chunk stops at its first
  /// throwing index; the other tasks drain the rest of the range, and once
  /// every task has finished the first failure (in task order) is
  /// rethrown.
  ///
  /// Re-entrant: when called from inside one of this pool's own tasks, the
  /// range runs inline on the calling worker instead of being submitted.
  /// Submitting would deadlock a saturated pool — every worker blocked in
  /// f.get() on chunks queued behind the very tasks doing the blocking.
  void parallel_for_index(std::size_t count,
                          const std::function<void(std::size_t)>& fn)
      MWR_EXCLUDES(mutex_);

 private:
  // Queue entries carry their enqueue time so the worker can attribute
  // queue-wait latency to the observability layer on dequeue.
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Pushes the type-erased task, records queue-depth telemetry, and
  /// wakes one worker.  Throws std::runtime_error after stop.
  void enqueue(std::function<void()> fn) MWR_EXCLUDES(mutex_);

  void worker_loop() MWR_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  util::CondVar cv_;
  std::queue<Task> queue_ MWR_GUARDED_BY(mutex_);
  bool stopping_ MWR_GUARDED_BY(mutex_) = false;
};

}  // namespace mwr::parallel
