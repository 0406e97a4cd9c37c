// Cross-campaign sharing of programs, oracles, and base pools.
//
// Co-resident campaigns frequently target the same scenario family: a
// thousand-tenant load over ten named scenarios means ~a hundred
// campaigns per (program, suite, bug) triple.  Building a private
// ProgramModel + TestOracle per campaign would duplicate both the model
// memory and — far worse — the oracle's per-pool table, so every tenant
// would re-pay the hashes one build already paid.
//
// OracleHub is the ScenarioServices implementation the server hands its
// sessions.  It interns:
//
//   oracle_for()  — one shared TestOracle per (spec, base pool): the exact
//                   (program, suite, bug) triple plus a fingerprint of the
//                   campaign's base-pool members.  The hub primes the new
//                   oracle's table from exactly that pool, of which every
//                   tenant's working pool is a subset, and marks the lease
//                   shared so tenants never re-prime it — priming must not
//                   race concurrent evaluate_pooled()s.
//   base_pool()   — one phase-1 precompute per (spec, pool config).  The
//                   lease carries the analytic construction cost
//                   (suite runs == pool attempts) so each tenant's ledger
//                   charges the same precompute_runs a private build
//                   would have, while only the first tenant pays it.
//
// Thread model: sessions call in from per-campaign epoch tasks on many
// workers.  Lookups take the hub mutex; a cache miss publishes a pending
// entry, builds outside the lock, then marks it ready under the lock.
// Callers that race the builder wait on a condition variable — an
// OS-thread block, acceptable because builders never suspend and
// therefore always retire.  A build failure poisons the entry, rethrows
// to all waiters, and frees the key so the next tenant retries.  Both
// lookups run this one protocol (build_once).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "apr/campaign_session.hpp"
#include "util/sync.hpp"

namespace mwr::obs {
class Counter;
}  // namespace mwr::obs

namespace mwr::serve {

class OracleHub final : public apr::ScenarioServices {
 public:
  OracleHub();

  OracleHub(const OracleHub&) = delete;
  OracleHub& operator=(const OracleHub&) = delete;

  OracleLease oracle_for(const datasets::ScenarioSpec& spec,
                         const apr::MutationPool& base_pool) override;
  PoolLease base_pool(const datasets::ScenarioSpec& spec,
                      const apr::PoolConfig& config) override;

  struct Stats {
    std::uint64_t oracle_builds = 0;
    std::uint64_t oracle_hits = 0;
    std::uint64_t pool_builds = 0;
    std::uint64_t pool_hits = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  template <typename LeaseT>
  struct Entry {
    bool ready = false;
    bool failed = false;
    LeaseT lease;
  };
  template <typename LeaseT>
  using EntryMap = std::map<std::uint64_t, std::shared_ptr<Entry<LeaseT>>>;

  /// The build-once protocol both lookups share.  The first caller for
  /// `key` publishes a pending entry, counts a build and runs `build`
  /// outside the lock; callers that race it wait on ready_cv_ and count a
  /// hit.  A failed build poisons the entry, so its waiters throw, and
  /// erases it, so the next caller retries.  `entries` is a member
  /// pointer so the map is only ever touched under mutex_.
  template <typename LeaseT, typename Build>
  LeaseT build_once(EntryMap<LeaseT> OracleHub::*entries, std::uint64_t key,
                    const char* what, const std::string& name,
                    std::uint64_t Stats::*builds, std::uint64_t Stats::*hits,
                    obs::Counter& build_metric, obs::Counter& hit_metric,
                    Build build);

  mutable util::Mutex mutex_;
  util::CondVar ready_cv_;
  EntryMap<OracleLease> oracles_ MWR_GUARDED_BY(mutex_);
  EntryMap<PoolLease> pools_ MWR_GUARDED_BY(mutex_);
  Stats stats_ MWR_GUARDED_BY(mutex_);

  obs::Counter* oracle_builds_;
  obs::Counter* oracle_hits_;
  obs::Counter* pool_builds_;
  obs::Counter* pool_hits_;
};

}  // namespace mwr::serve
