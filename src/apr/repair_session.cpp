#include "apr/repair_session.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "apr/program.hpp"
#include "core/serialization.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"

namespace mwr::apr {

RepairSession::RepairSession(const MwRepairConfig& config,
                             const TestOracle& oracle,
                             const MutationPool& pool, bool prime)
    : repair_(config),
      oracle_(&oracle),
      pool_(&pool),
      rng_(repair_.config().seed),
      baseline_(oracle.baseline_fitness()),
      trajectory_hash_(kFnvOffset) {
  if (pool.empty())
    throw std::invalid_argument("RepairSession: empty mutation pool");
  if (prime) oracle.prime_wave(pool.mutations());

  const MwRepairConfig& cfg = repair_.config();
  core::MwuConfig mwu_config;
  mwu_config.num_options = cfg.arms;
  mwu_config.num_agents = cfg.agents;
  mwu_config.max_iterations = cfg.max_iterations;
  mwu_config.learning_rate = cfg.learning_rate;
  mwu_config.exploration = cfg.exploration;
  strategy_ = core::make_mwu(cfg.mwu, mwu_config);

  auto& metrics = obs::MetricsRegistry::global();
  cycle_counter_ = &metrics.counter("repair.online.cycles");
  probe_counter_ = &metrics.counter("repair.online.probes");
  cycle_seconds_ = &metrics.histogram("repair.online.cycle_seconds");
  phase_seconds_ = &metrics.histogram("phase.online.seconds");
  repaired_gauge_ = &metrics.gauge("repair.repaired");

  // Map each working member onto the table member equal to it.  Key
  // equality alone is not enough — a swap's key orders its operands, and
  // the table's relevance bits bake in the coverage of its member's
  // concrete target.  Both pools are key-sorted, so one merge walk does;
  // an oracle without a table has no members to map onto.
  const std::span<const Mutation> table = oracle.wave_pool();
  table_index_.reserve(pool.size());
  std::size_t t = 0;
  for (const Mutation& m : pool.mutations()) {
    while (t < table.size() && table[t].key() < m.key()) ++t;
    if (t == table.size() || !(table[t] == m))
      throw std::invalid_argument(
          "RepairSession: working pool member missing from the oracle's "
          "pooled table");
    table_index_.push_back(static_cast<std::uint32_t>(t++));
  }
}

void RepairSession::finish(bool repaired) {
  done_ = true;
  phase_seconds_->observe(online_seconds_);
  repaired_gauge_->set(repaired ? 1.0 : 0.0);
}

std::size_t RepairSession::begin_cycle() {
  if (done_) return 0;
  strategy_->sample_into(rng_, staged_arms_);            // MWU_Sample
  const std::size_t n = staged_arms_.size();
  index_patches_.resize(n);
  acceptance_.clear();
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t count =
        std::min(repair_.count_for_arm(staged_arms_[j]), pool_->size());
    // Without-replacement draws emitted as ascending working-pool indices:
    // pool order is key order, so this names exactly the canonical patch
    // sample_from_pool would build (same RNG consumption), which the
    // monotone map then names in the oracle's table.
    std::vector<std::uint32_t>& patch = index_patches_[j];
    sample_from_pool_indexed(pool_->size(), count, rng_, patch);
    for (std::uint32_t& i : patch) i = table_index_[i];
    acceptance_.push_back(rng_.uniform());
  }
  // Fold this cycle's draws into the trajectory fingerprint before the
  // (order-free) evaluations, so the hash pins the stochastic sequence.
  const std::span<const Mutation> table = oracle_->wave_pool();
  trajectory_hash_ = fnv_fold(trajectory_hash_, outcome_.iterations);
  for (std::size_t j = 0; j < n; ++j) {
    trajectory_hash_ = fnv_fold(trajectory_hash_, staged_arms_[j]);
    trajectory_hash_ = fnv_fold(trajectory_hash_,
                                std::bit_cast<std::uint64_t>(acceptance_[j]));
    for (const std::uint32_t i : index_patches_[j]) {
      trajectory_hash_ = fnv_fold(trajectory_hash_, table[i].key());
    }
  }
  evaluations_.assign(n, Evaluation{});
  outcome_.probes += n;
  probes_last_cycle_ = n;
  probe_counter_->add(n);
  return n;
}

bool RepairSession::finish_cycle(double elapsed_seconds) {
  const MwRepairConfig& cfg = repair_.config();
  const auto max_count = static_cast<double>(cfg.max_count);
  online_seconds_ += elapsed_seconds;

  const std::size_t n = staged_arms_.size();
  rewards_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const Evaluation& e = evaluations_[j];
    const std::size_t patch_size = index_patches_[j].size();
    if (e.is_repair()) {                                 // terminate early
      outcome_.repaired = true;
      // Ascending table positions over the key-sorted pool name the
      // canonical Patch.
      const std::span<const Mutation> table = oracle_->wave_pool();
      outcome_.patch.clear();
      for (const std::uint32_t i : index_patches_[j]) {
        outcome_.patch.push_back(table[i]);
      }
      outcome_.iterations += 1;
      outcome_.preferred_count = patch_size;
      outcome_.arm_probabilities = strategy_->probabilities();
      cycle_counter_->add(1);
      trajectory_hash_ =
          fnv_fold(trajectory_hash_, std::uint64_t{0x5245504152});  // tag
      trajectory_hash_ = fnv_fold(trajectory_hash_, j);
      finish(true);
      return true;
    }
    const bool fitness_kept = e.fitness() >= baseline_;
    switch (cfg.reward) {
      case RewardMode::kFitnessNonDecrease:
        rewards_[j] = fitness_kept ? 1.0 : 0.0;
        break;
      case RewardMode::kSafeDensityProxy:
        // Accept in proportion to the validated combination size, making
        // E[reward | x] proportional to x * P(pass | x).
        rewards_[j] =
            (fitness_kept &&
             acceptance_[j] < static_cast<double>(patch_size) / max_count)
                ? 1.0
                : 0.0;
        break;
    }
  }
  for (const double r : rewards_) {
    trajectory_hash_ =
        fnv_fold(trajectory_hash_, std::bit_cast<std::uint64_t>(r));
  }
  strategy_->update(staged_arms_, rewards_, rng_);       // MWU_Update
  ++outcome_.iterations;
  cycle_counter_->add(1);

  if (outcome_.iterations >= cfg.max_iterations) {
    // Budget exhausted (Fig 6: return null).
    outcome_.preferred_count = repair_.count_for_arm(strategy_->best_option());
    outcome_.arm_probabilities = strategy_->probabilities();
    finish(false);
    return true;
  }
  return false;
}

bool RepairSession::step(parallel::ThreadPool* workers) {
  if (done_) return true;
  const obs::ScopedTimer cycle_timer(*cycle_seconds_);
  const std::size_t n = begin_cycle();
  const auto evaluate = [this](std::size_t j) {
    evaluations_[j] = oracle_->evaluate_pooled(index_patches_[j]);
  };
  if (workers != nullptr) {
    workers->parallel_for_index(n, evaluate);
  } else {
    for (std::size_t j = 0; j < n; ++j) evaluate(j);
  }
  return finish_cycle(cycle_timer.elapsed_seconds());
}

RepairSession::State RepairSession::save() const {
  if (done_)
    throw std::logic_error("RepairSession::save: session already finished");
  State state;
  state.strategy = core::export_state(*strategy_);
  state.rng_seed = rng_.seed();
  state.rng_state = rng_.state();
  state.iterations = outcome_.iterations;
  state.probes = outcome_.probes;
  state.trajectory_hash = trajectory_hash_;
  return state;
}

void RepairSession::restore(const State& state) {
  core::import_state(*strategy_, state.strategy);
  rng_.restore(state.rng_seed, state.rng_state);
  outcome_.iterations = state.iterations;
  outcome_.probes = state.probes;
  trajectory_hash_ = state.trajectory_hash;
  done_ = false;
}

}  // namespace mwr::apr
