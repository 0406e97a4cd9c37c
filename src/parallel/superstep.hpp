// Bounded-thread superstep execution engine.
//
// Runs P logical ranks as cooperative fibers multiplexed onto W workers
// (default: hardware_concurrency), so population scale is a parameter
// instead of an OS-thread wall.  The workers are a ThreadPool(W): W - 1
// parked threads plus the thread that calls run(), which drains fibers
// alongside them.  Blocking points in the
// communication substrate (Mailbox::recv, CountingBarrier) suspend the
// *fiber* through the coop hook (parallel/coop.hpp); barriers thereby
// become superstep boundaries — between two barriers the engine simply
// drains the runnable set — instead of P parked OS threads.
//
// Determinism: the engine adds no randomness and imposes no ordering the
// thread-per-rank substrate did not already allow.  Every recv is filtered
// by (source, tag) over non-overtaking per-channel queues and every rank
// draws from its private RngStream, so any legal interleaving — including
// the engine's, at any worker count — produces bit-identical trajectories
// (pinned by tests/test_superstep.cpp and the driver bit-identity tests).
//
// Failure handling improves on thread-per-rank: when every unfinished rank
// is blocked (a rank threw while peers wait on it, or a genuine protocol
// deadlock), the engine unwinds the blocked fibers by making their
// suspension throw SuperstepAbort — stacks run their destructors — and
// run() rethrows the first body exception, or reports the deadlock.
#pragma once

#include <cstddef>
#include <functional>

#include "parallel/coop.hpp"
#include "parallel/fiber.hpp"

namespace mwr::parallel {

/// Thrown through a blocked rank's stack when the engine unwinds it; only
/// the engine itself catches this.  Deliberately not derived from
/// std::exception so rank bodies' catch(const std::exception&) handlers
/// cannot swallow the unwind.
struct SuperstepAbort {};

class SuperstepEngine final : public CoopScheduler {
 public:
  struct Config {
    std::size_t workers = 0;  ///< 0 = hardware_concurrency.
    std::size_t stack_bytes = kDefaultFiberStackBytes;
  };

  SuperstepEngine(std::size_t ranks, Config config);
  /// Joins the worker pool.  run() returns with every worker back at the
  /// pool's idle wait, so by the time the destructor can legally run no
  /// thread holds the engine lock and no fiber stack is live; there is no
  /// shutdown lock ordering to get wrong (the engine lock itself is
  /// innermost by construction; see the Impl::mutex note in the .cpp).
  ~SuperstepEngine() override;

  SuperstepEngine(const SuperstepEngine&) = delete;
  SuperstepEngine& operator=(const SuperstepEngine&) = delete;

  /// Runs body(rank) for every rank in [0, ranks) to completion on the
  /// workers, the caller among them.  Rethrows the first exception any
  /// body threw; throws std::runtime_error when unfinished ranks
  /// deadlocked (after unwinding them).  Reusable: each run allocates
  /// fresh fibers.  Calls must not overlap, and a body must not call
  /// run() on any engine — the caller resumes fibers itself, and fibers
  /// do not nest.
  void run(const std::function<void(int)>& body);

  [[nodiscard]] std::size_t ranks() const noexcept;
  [[nodiscard]] std::size_t workers() const noexcept;

  // CoopScheduler interface (called from primitives via coop_current()).
  void suspend_current() override;
  void wake(int rank) override;
  void note_superstep_boundary() noexcept override;
  void note_external_wait(int delta) noexcept override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mwr::parallel
