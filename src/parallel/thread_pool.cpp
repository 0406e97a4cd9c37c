#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <stdexcept>

#include "obs/registry.hpp"

namespace mwr::parallel {

namespace {
// Pool telemetry, shared by every pool in the process: work executed,
// how long tasks sat queued (the stall the precompute phase amortizes
// away), and the deepest backlog seen.
struct PoolMetrics {
  obs::Counter& tasks_executed;
  obs::Histogram& queue_wait_seconds;
  obs::Gauge& queue_depth_hwm;

  PoolMetrics()
      : tasks_executed(obs::MetricsRegistry::global().counter(
            "thread_pool.tasks_executed")),
        queue_wait_seconds(obs::MetricsRegistry::global().histogram(
            "thread_pool.queue_wait_seconds")),
        queue_depth_hwm(obs::MetricsRegistry::global().gauge(
            "thread_pool.queue_depth_hwm")) {}
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

// The pool whose worker_loop the current thread is executing, if any.
// parallel_for_index consults it to detect nested use of the same pool.
thread_local const ThreadPool* current_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Shutdown ordering: a pool worker destroying its own pool would join
  // itself — the one ordering the inline nested-parallel_for_index path
  // cannot reach, and the destructor's MWR_EXCLUDES(mutex_) already rules
  // out a caller arriving with the queue lock held.
  assert(current_worker_pool != this &&
         "~ThreadPool called from one of its own workers (self-join)");
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  PoolMetrics& metrics = pool_metrics();
  std::size_t depth = 0;
  {
    util::MutexLock lock(mutex_);
    if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
    queue_.push(Task{std::move(fn), std::chrono::steady_clock::now()});
    depth = queue_.size();
  }
  metrics.queue_depth_hwm.record_max(static_cast<double>(depth));
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = pool_metrics();
  current_worker_pool = this;
  for (;;) {
    Task task;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ && drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    metrics.queue_wait_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task.enqueued)
            .count());
    task.fn();  // packaged_task captures exceptions into the future
    metrics.tasks_executed.add(1);
  }
}

void ThreadPool::parallel_for_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (current_worker_pool == this) {
    // Nested call from one of our own tasks: run inline.  Submitting back
    // into the pool and blocking on the futures can deadlock — with all
    // workers inside such calls, the chunks sit queued behind the tasks
    // that are waiting for them.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One draining task per worker (fewer for a short range); each claims
  // chunks from the shared cursor until the range is exhausted, so a few
  // expensive indices cannot strand the rest of the range behind them.
  // The chunk is a pure function of the job shape: ~64 claims per task
  // keeps a skewed range balanced while sub-microsecond items still pay
  // one atomic per chunk, not per index.
  const std::size_t tasks = std::min(count, size());
  const std::size_t chunk = std::max<std::size_t>(1, count / (tasks * 64));
  std::atomic<std::size_t> cursor{0};
  const auto drain = [count, chunk, &cursor, &fn] {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) futures.push_back(submit(drain));
  // Every task holds references into this frame (fn, cursor), so all of
  // them must finish before it unwinds — even when an early one failed.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mwr::parallel
