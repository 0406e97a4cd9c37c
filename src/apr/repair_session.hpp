// Step-wise execution of the MWRepair online phase (Fig 6) — one update
// cycle per step() call.
//
// MwRepair::run() is the right shape for a batch CLI but the wrong shape
// for a server: a daemon multiplexing thousands of campaigns needs to
// advance each search a few cycles at a time (a quantum per epoch),
// checkpoint a search between cycles, and resume it after a
// restart without replaying paid-for probes.  RepairSession is the same
// algorithm unrolled into a resumable object: construct, call step()
// until it returns true, read outcome().  MwRepair::run() is now a thin
// loop over a session, so the two paths cannot diverge — every draw from
// the RngStream happens in the same order as the historical monolithic
// loop, making session-stepped trajectories bit-identical to run() (and
// to every prior release).
//
// Checkpointing: save() captures everything the next cycle depends on —
// MWU strategy state (core::export_state), the 256-bit RNG state, cycle /
// probe counters, and the running trajectory hash.  restore() into a
// freshly constructed session over the same oracle + pool continues the
// search bit-identically (pinned by tests/test_serve.cpp).  Snapshots are
// only meaningful at cycle boundaries, which is the only place step()
// returns control.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "apr/mwrepair.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "core/mwu.hpp"
#include "obs/metrics.hpp"

namespace mwr::parallel {
class ThreadPool;
}  // namespace mwr::parallel

namespace mwr::apr {

class RepairSession {
 public:
  /// Mid-search state between two update cycles; everything is plain
  /// numbers so checkpoint writers can encode it losslessly.
  struct State {
    std::vector<double> strategy;          ///< core::export_state vector.
    std::uint64_t rng_seed = 0;
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t iterations = 0;          ///< completed update cycles.
    std::uint64_t probes = 0;              ///< suite runs so far.
    std::uint64_t trajectory_hash = 0;
  };

  /// `oracle` and `pool` must outlive the session.  Probes are drawn in
  /// pool index space and evaluated through the oracle's per-pool table
  /// (TestOracle::prime_wave).  When `prime` is true (the single-tenant
  /// default) the session builds that table from `pool` itself; servers
  /// sharing one oracle across tenants pass false and prime it once
  /// centrally with a pool that contains every working member (re-priming
  /// would race concurrent evaluations — see serve/oracle_hub.hpp).  Each
  /// member of `pool` is mapped to the table member equal to it; throws
  /// std::invalid_argument when one is missing.  The oracle must not be
  /// re-primed with another pool while the session runs.
  RepairSession(const MwRepairConfig& config, const TestOracle& oracle,
                const MutationPool& pool, bool prime = true);

  /// Runs one MWU update cycle (sample -> probe -> reward -> update), or
  /// finishes early when a probe repairs.  Returns true when the session
  /// is done (repair found or iteration budget exhausted); further calls
  /// are no-ops returning true.  `workers` optionally fans the suite runs
  /// out (bit-identical for any worker count, as in MwRepair::run).  A
  /// null `workers` evaluates the probes in a plain loop on the calling
  /// thread: the campaign server's epoch tasks step sessions that way, so
  /// a campaign step never posts or counts a nested pool job.
  bool step(parallel::ThreadPool* workers = nullptr);

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Valid once done(); partially filled (probes/iterations) before that.
  [[nodiscard]] const RepairOutcome& outcome() const noexcept {
    return outcome_;
  }
  /// Suite runs the most recent step() issued (per-cycle cost for
  /// scheduler accounting and probe-latency math).
  [[nodiscard]] std::size_t probes_last_cycle() const noexcept {
    return probes_last_cycle_;
  }
  /// Running FNV-1a fold over every sampled arm, drawn patch, and reward
  /// of the search so far — the bit-identity fingerprint the
  /// checkpoint/resume tests compare.
  [[nodiscard]] std::uint64_t trajectory_hash() const noexcept {
    return trajectory_hash_;
  }

  [[nodiscard]] const MwRepairConfig& config() const noexcept {
    return repair_.config();
  }

  /// Snapshot between cycles; callable only while !done().
  [[nodiscard]] State save() const;
  /// Restores a snapshot taken from an identically configured session
  /// over the same (oracle, pool).  Throws std::invalid_argument on a
  /// strategy-state shape mismatch.
  void restore(const State& state);

 private:
  // One cycle of step(), split around the suite runs so they can fan out
  // (each is a pure table read, callable concurrently in any order):
  //   begin_cycle()   every stochastic draw of the cycle (arm sample,
  //                   patch draws, acceptance) and its trajectory folds,
  //                   before any evaluation; returns the number of probes
  //                   (0 when already done).
  //   finish_cycle()  rewards, MWU update, early-repair exit, budget
  //                   check.  `elapsed_seconds` is telemetry only.
  std::size_t begin_cycle();
  bool finish_cycle(double elapsed_seconds);
  void finish(bool repaired);

  MwRepair repair_;                  // validated/clamped config + arm grid.
  const TestOracle* oracle_;
  const MutationPool* pool_;
  std::unique_ptr<core::MwuStrategy> strategy_;
  util::RngStream rng_;
  std::uint32_t baseline_;
  bool done_ = false;
  std::size_t probes_last_cycle_ = 0;
  std::uint64_t trajectory_hash_;
  RepairOutcome outcome_;
  double online_seconds_ = 0.0;      // accumulated across steps.

  // Working-pool position -> position in the oracle's primed pool.
  // Monotone (both pools are key-sorted), so ascending working indices
  // stay ascending: the canonical patch order survives the translation.
  std::vector<std::uint32_t> table_index_;

  // Scratch reused across cycles.  Patches are ascending primed-pool
  // positions; Mutations are built only for a winning patch.
  std::vector<std::vector<std::uint32_t>> index_patches_;
  std::vector<std::size_t> staged_arms_;
  std::vector<double> acceptance_;
  std::vector<Evaluation> evaluations_;
  std::vector<double> rewards_;

  // Global telemetry handles, fetched once (same names as MwRepair::run).
  obs::Counter* cycle_counter_;
  obs::Counter* probe_counter_;
  obs::Histogram* cycle_seconds_;
  obs::Histogram* phase_seconds_;
  obs::Gauge* repaired_gauge_;
};

}  // namespace mwr::apr
