// The one worker pool: precompute, the parallel MWU drivers, the Table
// II-IV sweep, the campaign server's epoch and the superstep engine's
// fiber drain all run on parallel::ThreadPool.
//
// Design notes (per the C++ Core Guidelines concurrency rules):
//  - ThreadPool(n) means n participants: n - 1 threads parked between
//    jobs plus the calling thread, which drains too.  n <= 1 spawns no
//    thread and runs every job inline on the caller;
//  - the pool owns its threads and joins them in the destructor (RAII);
//  - a job hands an index range out in small chunks claimed from a
//    shared cursor, so a range whose cost is skewed (the Table II sweep's
//    few large-k replications) still keeps every participant busy.
//    Callers write per-index slots and fix any randomness before the
//    fan-out (an index gets a split RNG stream, not a shared one), so
//    which participant ran an index never shows in the results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel {

/// Resolves a worker-count knob: 0 means std::thread::hardware_concurrency
/// (1 when the host cannot tell); any other value is returned unchanged.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested) noexcept;

/// A fixed pool of `size()` participants running one index-range job at a
/// time.
class ThreadPool {
 public:
  /// `participants` counts the caller (minimum 1): spawns
  /// participants - 1 threads.
  explicit ThreadPool(std::size_t participants);

  /// Wakes and joins the parked threads.  Shutdown lock ordering: takes
  /// mutex_ only to set the stop flag, releases it before joining — so the
  /// caller must not hold mutex_ (MWR_EXCLUDES), and must not be one of
  /// this pool's own threads (self-join; asserted at runtime).  Jobs never
  /// outlive parallel_for_index, so no job is in flight here.
  ~ThreadPool() MWR_EXCLUDES(mutex_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept {
    return threads_.size() + 1;
  }

  /// Runs fn(i) for every i in [0, count) and waits for completion.  Every
  /// participant claims chunks of max(1, count / (size() * 64)) indices
  /// from a shared atomic cursor until the range is exhausted; the chunk
  /// depends only on (count, size()), never on timing.  fn must be safe to
  /// invoke concurrently for distinct i.  A participant stops at its first
  /// throwing index; the others drain the rest of the range, and once every
  /// participant has left the job the first recorded failure is rethrown.
  ///
  /// Re-entrant: a call from a thread that is already running one of this
  /// pool's jobs — a parked thread or the caller while it drains — runs
  /// the range inline on that thread.  A second outside caller waits for
  /// the job in flight, then runs its own.
  void parallel_for_index(std::size_t count,
                          const std::function<void(std::size_t)>& fn)
      MWR_EXCLUDES(mutex_);

 private:
  struct Job;

  void thread_loop() MWR_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  util::Mutex mutex_;
  util::CondVar cv_;  // parked threads, finished jobs, waiting callers.
  bool stopping_ MWR_GUARDED_BY(mutex_) = false;
  Job* job_ MWR_GUARDED_BY(mutex_) = nullptr;        // the job in flight.
  std::uint64_t epoch_ MWR_GUARDED_BY(mutex_) = 0;   // bumps per job.
  std::size_t remaining_ MWR_GUARDED_BY(mutex_) = 0; // threads still in job.
  std::exception_ptr first_error_ MWR_GUARDED_BY(mutex_);
};

}  // namespace mwr::parallel
