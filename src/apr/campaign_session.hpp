// Step-wise, checkpointable execution of a multi-bug repair campaign —
// run_campaign (§III-C) unrolled into a resumable state machine.
//
// A campaign server multiplexing thousands of tenants cannot afford
// run_campaign's shape (one blocking call per campaign): it needs to
// advance each campaign a bounded number of update cycles per scheduling
// quantum, snapshot a campaign between cycles, and resume it after a
// daemon restart bit-identically.  CampaignSession is that shape.  The
// phases mirror the historical loop exactly:
//
//   kPrecompute  — phase 1, once: build the safe-mutation pool.
//   kBugStart    — per bug: grow the suite, revalidate the working pool
//                  (incremental maintenance), construct the online search.
//   kOnline      — one MWU update cycle per step (RepairSession).
//   kFinishBug   — close the bug's ledger; next bug or kDone.
//
// Every stochastic draw happens in the same order as run_campaign, so a
// session stepped to completion produces the same CampaignOutcome —
// run_campaign is now implemented as exactly that loop.
//
// Sharing seam: by default a session builds private programs, oracles,
// and pools.  A ScenarioServices implementation (serve/oracle_hub.hpp)
// lets co-resident campaigns on the same scenario share them; suite-run
// accounting is analytic (precompute = pool attempts, maintenance = pool
// size per revalidation — both exact identities of the implementations),
// so a shared oracle's global counter never pollutes a tenant's ledger.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apr/campaign.hpp"
#include "apr/repair_session.hpp"
#include "datasets/scenario.hpp"

namespace mwr::obs {
class ScopedMetrics;
}  // namespace mwr::obs

namespace mwr::apr {

/// Provider of the heavyweight per-scenario resources a campaign needs.
/// Implementations may dedup across campaigns (the server's oracle hub);
/// the default used when none is supplied builds private instances,
/// reproducing single-tenant run_campaign exactly.
class ScenarioServices {
 public:
  /// A program + oracle pair; `program` owns the model `oracle` points
  /// into, so holders keep both alive together.  When `shared` is true
  /// the oracle is visible to other tenants: the lease owner has already
  /// primed its per-pool table, and the tenant must not re-prime it
  /// (prime_wave racing evaluate_pooled() is undefined).
  struct OracleLease {
    std::shared_ptr<const ProgramModel> program;
    std::shared_ptr<const TestOracle> oracle;
    bool shared = false;
  };
  /// A base (phase-1) pool plus the suite runs its construction cost.
  struct PoolLease {
    std::shared_ptr<const MutationPool> pool;
    std::uint64_t precompute_runs = 0;
  };

  virtual ~ScenarioServices() = default;

  /// Program + oracle for `spec` (the full spec, bug_id and grown test
  /// count included), its per-pool table primed from exactly
  /// `base_pool` — the campaign's phase-1 pool, of which every working
  /// pool is a subset.
  virtual OracleLease oracle_for(const datasets::ScenarioSpec& spec,
                                 const MutationPool& base_pool) = 0;

  /// The precomputed base pool for (spec, config).  Called once per
  /// campaign with the campaign's base spec.
  virtual PoolLease base_pool(const datasets::ScenarioSpec& spec,
                              const PoolConfig& config) = 0;
};

/// Everything needed to rebuild a mid-campaign session, as plain numbers
/// and mutation triples (serve/checkpoint.hpp encodes it into wire
/// frames).  Snapshots are taken between update cycles only.
struct CampaignSnapshot {
  /// Guards against resuming with a different scenario or configuration.
  std::uint64_t fingerprint = 0;
  std::uint32_t phase = 0;  ///< CampaignSession::Phase under the hood.
  std::uint64_t bug_index = 0;
  std::uint64_t repaired_so_far = 0;
  std::uint64_t current_tests = 0;
  std::uint64_t precompute_runs = 0;
  std::uint64_t initial_pool_size = 0;
  std::uint64_t trajectory_hash = 0;
  std::vector<BugOutcome> finished_bugs;
  BugOutcome current_bug;            ///< ledger-so-far (valid in kOnline).
  std::vector<Mutation> working_pool;
  bool has_repair_state = false;
  RepairSession::State repair;       ///< valid when has_repair_state.
};

class CampaignSession {
 public:
  /// `services` may be null (private resources) and must otherwise
  /// outlive the session.
  CampaignSession(datasets::ScenarioSpec base, CampaignConfig config,
                  ScenarioServices* services = nullptr);
  ~CampaignSession();

  CampaignSession(const CampaignSession&) = delete;
  CampaignSession& operator=(const CampaignSession&) = delete;

  /// Advances the campaign by at most `budget` units of work and returns
  /// the units consumed: exactly `budget` unless the campaign finishes
  /// within the call (0 once done).  One unit is one online MWU update
  /// cycle or one setup phase (precompute / bug start).
  /// `workers` optionally fans out suite runs inside a unit.  Distinct
  /// sessions may step concurrently: a session shares only its
  /// ScenarioServices and the metrics registry, both thread-safe.
  std::size_t step(std::size_t budget,
                   parallel::ThreadPool* workers = nullptr);

  [[nodiscard]] bool done() const noexcept { return phase_ == Phase::kDone; }
  /// Valid once done().
  [[nodiscard]] const CampaignOutcome& outcome() const noexcept {
    return outcome_;
  }
  /// Suite-run probes issued by the most recent step() call.
  [[nodiscard]] std::size_t probes_last_step() const noexcept {
    return probes_last_step_;
  }
  /// Bugs whose ledgers have closed so far (== bugs attempted when done).
  [[nodiscard]] std::size_t bugs_completed() const noexcept {
    return outcome_.bugs.size();
  }
  /// Of those, how many were repaired.
  [[nodiscard]] std::size_t bugs_repaired() const noexcept {
    return repaired_so_far_;
  }
  /// Campaign-level fingerprint: per-bug search trajectories plus the
  /// pool-maintenance ledger, folded in execution order.  Equal hashes
  /// mean bit-identical campaigns (the checkpoint/resume pin).
  [[nodiscard]] std::uint64_t trajectory_hash() const noexcept;

  /// Identity fold of (base spec, config); snapshots carry it so a resume
  /// against the wrong campaign definition fails loudly.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Snapshot between steps.  Valid in any phase; resuming a kDone
  /// snapshot yields a finished session.
  [[nodiscard]] CampaignSnapshot snapshot() const;
  /// Rebuilds a session from a snapshot taken for the same (base,
  /// config).  Throws std::invalid_argument on fingerprint mismatch.
  static std::unique_ptr<CampaignSession> resume(
      const CampaignSnapshot& snap, datasets::ScenarioSpec base,
      CampaignConfig config, ScenarioServices* services = nullptr);

  /// Extra per-campaign metric scope (e.g. "campaign/7"): when set, the
  /// session mirrors its cycle/probe/bug counters under that prefix in
  /// the global registry, giving the server per-tenant views.
  void set_metric_scope(const std::string& prefix);

 private:
  enum class Phase : std::uint32_t {
    kPrecompute = 0,
    kBugStart = 1,
    kOnline = 2,
    kFinishBug = 3,
    kDone = 4,
  };

  void do_precompute();
  void start_bug();
  void finish_bug();
  void finalize();
  void open_bug_oracle();  // (re)acquire program/oracle for bug_index_.
  [[nodiscard]] datasets::ScenarioSpec bug_spec() const;
  [[nodiscard]] MwRepairConfig bug_repair_config() const;

  datasets::ScenarioSpec base_;
  CampaignConfig config_;
  ScenarioServices* services_;  // null => private resources.
  std::uint64_t fingerprint_;

  Phase phase_ = Phase::kPrecompute;
  std::size_t bug_index_ = 0;
  std::size_t repaired_so_far_ = 0;
  std::size_t current_tests_;  // suite size the working pool is valid for.
  std::uint64_t trajectory_fold_;
  std::size_t probes_last_step_ = 0;

  MutationPool working_pool_;
  // The services' base pool (null for private resources, or until first
  // needed after a resume): what shared bug oracles are primed from.
  std::shared_ptr<const MutationPool> base_pool_;
  ScenarioServices::OracleLease bug_lease_;
  std::unique_ptr<RepairSession> repair_;
  BugOutcome current_bug_;
  double bug_seconds_ = 0.0;  // accumulated across steps for this bug.

  CampaignOutcome outcome_;

  // Global telemetry (same names as run_campaign) + optional tenant scope.
  obs::Counter* bugs_attempted_;
  obs::Counter* bugs_repaired_;
  obs::Counter* maintenance_runs_;
  obs::Histogram* bug_seconds_hist_;
  std::unique_ptr<obs::ScopedMetrics> scope_;
  // Per-cycle scoped counters, resolved once at set_metric_scope: the
  // string-keyed registry lookup is far too slow for the online loop.
  obs::Counter* scoped_cycles_ = nullptr;
  obs::Counter* scoped_probes_ = nullptr;
};

}  // namespace mwr::apr
