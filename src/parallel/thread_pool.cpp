#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>

#include "obs/registry.hpp"

namespace mwr::parallel {

namespace {
// Pool telemetry, shared by every pool in the process: participants that
// joined a job, one per inline run.
obs::Counter& tasks_executed() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("thread_pool.tasks_executed");
  return counter;
}

// The pools whose jobs the current thread is running, innermost first: a
// parked thread carries its own pool for life, a caller carries the pool
// while it drains.  parallel_for_index consults the chain to run nested
// calls inline.
struct Participation {
  const ThreadPool* pool;
  const Participation* outer;
};
thread_local const Participation* participation = nullptr;

bool participating(const ThreadPool* pool) noexcept {
  for (const Participation* p = participation; p != nullptr; p = p->outer) {
    if (p->pool == pool) return true;
  }
  return false;
}

class ParticipationScope {
 public:
  explicit ParticipationScope(const ThreadPool* pool) noexcept
      : frame_{pool, participation} {
    participation = &frame_;
  }
  ~ParticipationScope() { participation = frame_.outer; }
  ParticipationScope(const ParticipationScope&) = delete;
  ParticipationScope& operator=(const ParticipationScope&) = delete;

 private:
  Participation frame_;
};
}  // namespace

std::size_t resolve_worker_count(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

// One index-range job, owned by the parallel_for_index frame that posted
// it.  The shape is fixed before fan-out; only the cursor moves.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>& fn;
  std::size_t count;
  std::size_t chunk;
  std::atomic<std::size_t> cursor{0};

  // Claims chunks until the range is exhausted.  Returns this
  // participant's failure, if any: it stops at its first throwing index
  // and leaves the rest of the range to its peers.
  std::exception_ptr drain() noexcept {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= count) return nullptr;
      const std::size_t end = std::min(count, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        return std::current_exception();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t participants) {
  const std::size_t n = std::max<std::size_t>(1, participants);
  threads_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    threads_.emplace_back([this] { thread_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // A participant destroying its own pool would join itself (or, as the
  // caller mid-drain, free the job under its peers).
  assert(!participating(this) &&
         "~ThreadPool called from one of its own participants");
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::thread_loop() {
  const ParticipationScope scope(this);
  std::uint64_t seen = 0;
  util::MutexLock lock(mutex_);
  for (;;) {
    while (!stopping_ && epoch_ == seen) cv_.wait(mutex_);
    if (stopping_) return;
    seen = epoch_;
    Job& job = *job_;
    lock.unlock();
    tasks_executed().add(1);
    const std::exception_ptr error = job.drain();
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    if (--remaining_ == 0) cv_.notify_all();
  }
}

void ThreadPool::parallel_for_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads_.empty() || participating(this)) {
    // A one-participant pool, or a nested call from one of this pool's
    // participants.  Posting the nested range would wait for the job in
    // flight — the very job this thread is part of.
    tasks_executed().add(1);
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // ~64 claims per participant keeps a skewed range balanced while
  // sub-microsecond items still pay one atomic per chunk, not per index.
  Job job{fn, count, std::max<std::size_t>(1, count / (size() * 64))};
  {
    util::MutexLock lock(mutex_);
    while (job_ != nullptr) cv_.wait(mutex_);  // another caller's job.
    job_ = &job;
    first_error_ = nullptr;
    remaining_ = threads_.size();
    ++epoch_;
  }
  cv_.notify_all();

  tasks_executed().add(1);
  std::exception_ptr error;
  {
    const ParticipationScope scope(this);
    error = job.drain();
  }
  {
    // Every participant holds references into this frame (fn, the job),
    // so all of them must leave before it unwinds — even after a failure.
    util::MutexLock lock(mutex_);
    if (error && !first_error_) first_error_ = error;
    while (remaining_ != 0) cv_.wait(mutex_);
    error = first_error_;
    first_error_ = nullptr;
    job_ = nullptr;
  }
  cv_.notify_all();  // a caller waiting to post its own job.
  if (error) std::rethrow_exception(error);
}

}  // namespace mwr::parallel
