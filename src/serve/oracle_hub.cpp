#include "serve/oracle_hub.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "apr/program.hpp"
#include "obs/registry.hpp"

namespace mwr::serve {

namespace {

/// Identity of one oracle: the scenario plus the exact members of the pool
/// its table is primed from.  Full members, not keys: a swap's operand
/// orientation changes the table's relevance bits.
std::uint64_t oracle_fingerprint(const datasets::ScenarioSpec& spec,
                                 const apr::MutationPool& pool) {
  std::uint64_t h = apr::fnv_fold(apr::spec_fingerprint(spec), pool.size());
  for (const apr::Mutation& m : pool.mutations()) {
    h = apr::stable_hash(h, m.key(), m.target);
  }
  return h;
}

/// Identity of one precomputed base pool: the scenario it was validated
/// against plus the pool-shaping knobs.  `threads` is excluded — the
/// precompute result is bit-identical for any worker count.
std::uint64_t pool_fingerprint(const datasets::ScenarioSpec& spec,
                               const apr::PoolConfig& config) {
  std::uint64_t h = apr::spec_fingerprint(spec);
  h = apr::fnv_fold(h, config.target_size);
  h = apr::fnv_fold(h, config.max_attempts);
  h = apr::fnv_fold(h, config.seed);
  return h;
}

}  // namespace

OracleHub::OracleHub() {
  auto& metrics = obs::MetricsRegistry::global();
  oracle_builds_ = &metrics.counter("serve.hub.oracle_builds");
  oracle_hits_ = &metrics.counter("serve.hub.oracle_hits");
  pool_builds_ = &metrics.counter("serve.hub.pool_builds");
  pool_hits_ = &metrics.counter("serve.hub.pool_hits");
}

OracleHub::Stats OracleHub::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

template <typename LeaseT, typename Build>
LeaseT OracleHub::build_once(EntryMap<LeaseT> OracleHub::*entries,
                             std::uint64_t key, const char* what,
                             const std::string& name,
                             std::uint64_t Stats::*builds,
                             std::uint64_t Stats::*hits,
                             obs::Counter& build_metric,
                             obs::Counter& hit_metric, Build build) {
  std::shared_ptr<Entry<LeaseT>> entry;
  {
    util::MutexLock lock(mutex_);
    auto& slot = (this->*entries)[key];
    if (slot) {
      entry = slot;
      while (!entry->ready) ready_cv_.wait(mutex_);
      if (entry->failed)
        throw std::runtime_error(std::string("OracleHub: ") + what +
                                 " build failed for " + name);
      ++(stats_.*hits);
      hit_metric.add(1);
      return entry->lease;
    }
    entry = slot = std::make_shared<Entry<LeaseT>>();
    ++(stats_.*builds);
  }

  LeaseT lease;
  try {
    lease = build();
  } catch (...) {
    util::MutexLock lock(mutex_);
    entry->failed = true;
    entry->ready = true;
    // Waiters already parked on this entry observe the failure, but the
    // map slot is released so a later campaign retries the build instead
    // of hitting a permanently poisoned fingerprint (the failure may
    // have been transient — allocation pressure, say).
    (this->*entries).erase(key);
    ready_cv_.notify_all();
    throw;
  }
  {
    util::MutexLock lock(mutex_);
    entry->lease = lease;
    entry->ready = true;
    ready_cv_.notify_all();
  }
  build_metric.add(1);
  return lease;
}

apr::ScenarioServices::OracleLease OracleHub::oracle_for(
    const datasets::ScenarioSpec& spec, const apr::MutationPool& base_pool) {
  return build_once(
      &OracleHub::oracles_, oracle_fingerprint(spec, base_pool), "oracle",
      spec.name, &Stats::oracle_builds, &Stats::oracle_hits, *oracle_builds_,
      *oracle_hits_, [&] {
        auto program = std::make_shared<const apr::ProgramModel>(spec);
        auto oracle = std::make_shared<const apr::TestOracle>(*program);
        // Nothing else can see this oracle until its entry is ready, so
        // the prime cannot race an evaluate_pooled().  The per-pool table
        // (masks, unsafe/relevant bitsets, interference CSR) holds every
        // hash the pooled scenario can charge, paid once here and
        // amortized over every tenant's probes.
        oracle->prime_wave(base_pool.mutations());
        OracleLease lease;
        lease.program = std::move(program);
        lease.oracle = std::move(oracle);
        lease.shared = true;
        return lease;
      });
}

apr::ScenarioServices::PoolLease OracleHub::base_pool(
    const datasets::ScenarioSpec& spec, const apr::PoolConfig& config) {
  return build_once(
      &OracleHub::pools_, pool_fingerprint(spec, config), "pool", spec.name,
      &Stats::pool_builds, &Stats::pool_hits, *pool_builds_, *pool_hits_,
      [&] {
        // The build uses a private oracle, so its suite-run counter is
        // this build's alone.  The analytic identity (precompute suite
        // runs == pool attempts) makes that counter transferable to every
        // tenant's ledger.
        const apr::ProgramModel program(spec);
        const apr::TestOracle oracle(program);
        PoolLease lease;
        lease.pool = std::make_shared<const apr::MutationPool>(
            apr::MutationPool::precompute(oracle, config));
        lease.precompute_runs = oracle.suite_runs();
        return lease;
      });
}

}  // namespace mwr::serve
