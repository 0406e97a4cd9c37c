#include "parallel/superstep.hpp"

#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel {

namespace {
// Engine telemetry across every engine in the process: superstep (barrier)
// boundaries crossed, the deepest runnable backlog (how much logical
// parallelism the bounded pool had to absorb), and total fiber slices.
struct EngineMetrics {
  obs::Counter& supersteps;
  obs::Gauge& runnable_ranks;
  obs::Counter& fiber_slices;

  EngineMetrics()
      : supersteps(obs::MetricsRegistry::global().counter(
            "spmd.engine.supersteps")),
        runnable_ranks(obs::MetricsRegistry::global().gauge(
            "spmd.engine.runnable_ranks")),
        fiber_slices(obs::MetricsRegistry::global().counter(
            "spmd.engine.fiber_slices")) {}
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

}  // namespace

struct SuperstepEngine::Impl {
  enum class State : unsigned char { kRunnable, kRunning, kBlocked, kFinished };

  struct RankSlot {
    std::unique_ptr<Fiber> fiber;
    CoopToken token;
    State state = State::kRunnable;
    // A wake delivered while the rank was running (registered a waiter but
    // had not suspended yet): consumed when the rank next tries to block.
    bool wake_pending = false;
  };

  Impl(std::size_t ranks, std::size_t workers, std::size_t stack)
      : nranks(ranks), stack_bytes(stack), pool(workers) {}

  const std::size_t nranks;
  const std::size_t stack_bytes;

  // Engine shutdown lock ordering: `mutex` is the innermost lock — no
  // fiber body code runs while a worker holds it (fibers resume only
  // after the worker drops it), so it can never invert against the
  // Mailbox/CountingBarrier locks a rank body takes.
  util::Mutex mutex;
  util::CondVar cv;  // drainers: runnable rank / every rank finished.

  // `slots` is structurally written (resize, fiber/token setup) only in
  // run() before the drain starts and after it ends; per-slot
  // state/wake_pending mutate under the lock for real.  A worker resumes
  // `slot.fiber` through a reference taken under the lock while the slot
  // is in State::kRunning, which the state machine makes exclusive.
  std::vector<RankSlot> slots MWR_GUARDED_BY(mutex);
  std::deque<int> runnable MWR_GUARDED_BY(mutex);
  std::size_t unfinished MWR_GUARDED_BY(mutex) = 0;
  std::size_t running MWR_GUARDED_BY(mutex) = 0;
  // Ranks suspended in waits an external agent (a transport drain thread)
  // can satisfy; while nonzero, all-blocked is not a deadlock.
  std::size_t external_waiters MWR_GUARDED_BY(mutex) = 0;
  bool active MWR_GUARDED_BY(mutex) = false;  // a run() is in flight.
  bool aborting MWR_GUARDED_BY(mutex) = false;
  std::size_t aborted_ranks MWR_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error MWR_GUARDED_BY(mutex);

  // The workers: every participant of a run drains the same fiber set.
  ThreadPool pool;

  // Makes `rank` runnable and pokes one worker.
  void enqueue_locked(int rank) MWR_REQUIRES(mutex) {
    slots[static_cast<std::size_t>(rank)].state = State::kRunnable;
    runnable.push_back(rank);
    engine_metrics().runnable_ranks.record_max(
        static_cast<double>(runnable.size()));
    cv.notify_one();
  }

  // If every unfinished rank is blocked, no progress is possible: unwind
  // them by requeuing with the abort flag set, so their suspension point
  // throws SuperstepAbort and the stacks unwind cleanly.
  void check_deadlock_locked() MWR_REQUIRES(mutex) {
    if (aborting || running != 0 || !runnable.empty() || unfinished == 0 ||
        external_waiters != 0)
      return;
    aborting = true;
    for (std::size_t r = 0; r < slots.size(); ++r) {
      if (slots[r].state == State::kBlocked) {
        ++aborted_ranks;
        enqueue_locked(static_cast<int>(r));
      }
    }
    cv.notify_all();
  }

  // Schedules runnable ranks until every rank finished.  Entered and
  // exited holding the lock.
  void drain_fibers_locked(util::MutexLock& lock) MWR_REQUIRES(mutex) {
    for (;;) {
      while (runnable.empty() && unfinished != 0) cv.wait(mutex);
      if (unfinished == 0) return;
      const int rank = runnable.front();
      runnable.pop_front();
      RankSlot& slot = slots[static_cast<std::size_t>(rank)];
      slot.state = State::kRunning;
      ++running;
      lock.unlock();

      coop_set_current(&slot.token);
      slot.fiber->resume();
      coop_set_current(nullptr);
      engine_metrics().fiber_slices.add(1);

      lock.lock();
      --running;
      if (slot.fiber->finished()) {
        slot.state = State::kFinished;
        if (--unfinished == 0) cv.notify_all();
      } else if (slot.wake_pending) {
        // The wake raced the suspension; run the rank again so it
        // re-checks its predicate.
        slot.wake_pending = false;
        enqueue_locked(rank);
      } else {
        slot.state = State::kBlocked;
      }
      check_deadlock_locked();
    }
  }

  // One participant's share of a run.
  void drain_fibers() MWR_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    drain_fibers_locked(lock);
  }
};

SuperstepEngine::SuperstepEngine(std::size_t ranks, Config config) {
  if (ranks == 0)
    throw std::invalid_argument("SuperstepEngine needs >= 1 rank");
  impl_ = std::make_unique<Impl>(ranks, resolve_worker_count(config.workers),
                                 config.stack_bytes);
}

SuperstepEngine::~SuperstepEngine() = default;

std::size_t SuperstepEngine::ranks() const noexcept { return impl_->nranks; }

std::size_t SuperstepEngine::workers() const noexcept {
  return impl_->pool.size();
}

void SuperstepEngine::run(const std::function<void(int)>& body) {
  Impl& impl = *impl_;
  {
    util::MutexLock lock(impl.mutex);
    if (impl.active)
      throw std::logic_error("SuperstepEngine::run: engine already busy");
    impl.slots.resize(impl.nranks);
    impl.runnable.clear();
    impl.aborting = false;
    impl.aborted_ranks = 0;
    impl.first_error = nullptr;
    for (std::size_t r = 0; r < impl.nranks; ++r) {
      Impl::RankSlot& slot = impl.slots[r];
      slot.token = CoopToken{this, static_cast<int>(r)};
      slot.state = Impl::State::kRunnable;
      slot.wake_pending = false;
      slot.fiber = std::make_unique<Fiber>(
          [&impl, &body, r] {
            try {
              body(static_cast<int>(r));
            } catch (const SuperstepAbort&) {
              // Engine-initiated unwind of a blocked rank; not a body
              // error.
            } catch (...) {
              util::MutexLock error_lock(impl.mutex);
              if (!impl.first_error)
                impl.first_error = std::current_exception();
            }
          },
          impl.stack_bytes);
      impl.runnable.push_back(static_cast<int>(r));
    }
    impl.unfinished = impl.nranks;
    impl.active = true;
    engine_metrics().runnable_ranks.record_max(
        static_cast<double>(impl.runnable.size()));
  }

  // One index per participant; each drains until every rank finished.
  impl.pool.parallel_for_index(impl.pool.size(),
                               [&impl](std::size_t) { impl.drain_fibers(); });

  std::exception_ptr first_error;
  std::size_t aborted_ranks = 0;
  {
    util::MutexLock lock(impl.mutex);
    impl.active = false;
    first_error = impl.first_error;
    aborted_ranks = impl.aborted_ranks;
    // Destroy the fibers now: their entries capture `body`, which dies
    // with this frame.
    for (auto& slot : impl.slots) slot.fiber.reset();
  }
  if (first_error) std::rethrow_exception(first_error);
  if (aborted_ranks != 0) {
    throw std::runtime_error(
        "superstep engine: deadlock — " + std::to_string(aborted_ranks) +
        " of " + std::to_string(impl.nranks) +
        " ranks blocked with no runnable peer (unwound)");
  }
}

void SuperstepEngine::suspend_current() {
  Impl& impl = *impl_;
  Fiber* fiber = Fiber::current();
  {
    util::MutexLock lock(impl.mutex);
    if (impl.aborting) throw SuperstepAbort{};
  }
  fiber->yield();
  // Resumed (possibly on another worker).  Under abort the resume exists
  // only to unwind this stack.
  {
    util::MutexLock lock(impl.mutex);
    if (impl.aborting) throw SuperstepAbort{};
  }
}

void SuperstepEngine::wake(int rank) {
  Impl& impl = *impl_;
  util::MutexLock lock(impl.mutex);
  Impl::RankSlot& slot = impl.slots[static_cast<std::size_t>(rank)];
  switch (slot.state) {
    case Impl::State::kBlocked:
      impl.enqueue_locked(rank);
      break;
    case Impl::State::kRunning:
      slot.wake_pending = true;
      break;
    case Impl::State::kRunnable:
      // Already queued: it will re-check its predicate when it runs.
      break;
    case Impl::State::kFinished:
      // Stale wake for a rank that aborted or returned; ignore.
      break;
  }
}

void SuperstepEngine::note_superstep_boundary() noexcept {
  engine_metrics().supersteps.add(1);
}

void SuperstepEngine::note_external_wait(int delta) noexcept {
  Impl& impl = *impl_;
  util::MutexLock lock(impl.mutex);
  if (delta > 0) {
    impl.external_waiters += static_cast<std::size_t>(delta);
  } else {
    impl.external_waiters -= static_cast<std::size_t>(-delta);
  }
}

}  // namespace mwr::parallel
