// Per-layer measurements for the traced runs: the apr layer (session
// units, pool precompute and revalidation, oracle evaluation) on a sample
// of the workload's own requests, and the core learners' update cost.
#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "apr/campaign_session.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/program.hpp"
#include "apr/test_oracle.hpp"
#include "core/mwu.hpp"
#include "perfbench.hpp"
#include "serve/control.hpp"
#include "serve/oracle_hub.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// The first request of each family (at most `limit`).
std::vector<mwr::serve::SubmitRequest> sample_requests(
    const ServeWorkload& w, std::size_t limit) {
  std::vector<mwr::serve::SubmitRequest> out;
  std::map<std::string, bool> seen;
  for (const auto& request : w.requests) {
    if (out.size() >= limit) break;
    if (seen[request.scenario]) continue;
    seen[request.scenario] = true;
    out.push_back(request);
  }
  return out;
}

/// Patches of the sizes the learner's arm grid asks for (count_for_arm is
/// a linear grid over [1, max_count]), as ascending positions in a pool of
/// `members` mutations.
std::vector<std::vector<std::uint32_t>> draw_patches(
    std::size_t members, const mwr::serve::SubmitRequest& r,
    std::size_t how_many, InputRng& rng) {
  std::vector<std::vector<std::uint32_t>> patches;
  if (members == 0) return patches;
  std::vector<std::uint32_t> order(members);
  for (std::size_t p = 0; p < how_many; ++p) {
    const std::size_t arm = rng.below(r.arms);
    const std::size_t count =
        r.arms <= 1 ? r.max_count
                    : 1 + arm * (r.max_count - 1) / (r.arms - 1);
    const std::size_t take = std::min(count, members);
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = 0; i < take; ++i)
      std::swap(order[i], order[i + rng.below(order.size() - i)]);
    std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(take));
    patches.emplace_back(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return patches;
}

}  // namespace

void measure_apr_layers(const ServeWorkload& w, Tracer& tracer,
                        Report& report) {
  const Span root(tracer, "bench.apr_layers");
  const std::vector<mwr::serve::SubmitRequest> sample = sample_requests(w, 6);

  // CampaignSession::step(1), unit by unit, with sessions sharing one hub
  // the way the server's tenants do.  A unit that issued probes is an
  // online MWU cycle; the others are setup units (precompute, bug start,
  // finalize).
  std::vector<double> online_us;
  std::vector<double> setup_us;
  {
    mwr::serve::OracleHub hub;
    for (std::size_t j = 0; j < sample.size(); ++j) {
      mwr::serve::CampaignPlan plan = mwr::serve::plan_campaign(sample[j]);
      mwr::apr::CampaignSession session(plan.spec, plan.config, &hub);
      while (!session.done()) {
        const Clock::time_point t0 = Clock::now();
        {
          const Span span(tracer, "session.step", j + 1);
          (void)session.step(1);
        }
        const double us = seconds_since(t0) * 1e6;
        (session.probes_last_step() > 0 ? online_us : setup_us).push_back(us);
      }
    }
  }
  std::printf("# session samples: %zu online units, %zu setup units over %zu "
              "campaigns\n",
              online_us.size(), setup_us.size(), sample.size());
  report.set("session.online_unit_us", percentile(online_us, 0.5), "us");
  report.set("session.setup_unit_us", percentile(setup_us, 0.5), "us");

  // Pool precompute and revalidation, then one probe per patch drawn at the
  // workload's counts, on an oracle primed the way OracleHub primes a
  // shared one.  A pool within the pooled-table limit is wave-ready, and
  // the daemon's probes then run TestOracle::evaluate_pooled on ascending
  // pool positions, so that is what is timed; a larger pool takes
  // TestOracle::evaluate.
  std::vector<double> precompute_ms;
  std::vector<double> revalidate_ms;
  double safe = 0.0;
  double attempts = 0.0;
  double evaluate_s = 0.0;
  std::size_t evaluations = 0;
  std::size_t pooled = 0;
  InputRng rng(0x5eed0f0a11ULL ^ w.requests.size());
  for (std::size_t j = 0; j < std::min<std::size_t>(sample.size(), 3); ++j) {
    const mwr::serve::CampaignPlan plan = mwr::serve::plan_campaign(sample[j]);
    const mwr::apr::ProgramModel program(plan.spec);
    const mwr::apr::TestOracle build_oracle(program);
    Clock::time_point t0 = Clock::now();
    mwr::apr::MutationPool pool;
    {
      const Span span(tracer, "pool.precompute", j + 1);
      pool = mwr::apr::MutationPool::precompute(build_oracle, plan.config.pool);
    }
    precompute_ms.push_back(seconds_since(t0) * 1e3);
    safe += static_cast<double>(pool.size());
    attempts += static_cast<double>(pool.attempts());

    mwr::apr::MutationPool copy = pool;
    t0 = Clock::now();
    {
      const Span span(tracer, "pool.revalidate", j + 1);
      (void)copy.revalidate(build_oracle, 1);
    }
    revalidate_ms.push_back(seconds_since(t0) * 1e3);

    const mwr::apr::TestOracle oracle(program);
    oracle.prime_wave(pool.mutations());
    const bool wave = oracle.wave_ready();
    const std::span<const mwr::apr::Mutation> members =
        wave ? oracle.wave_pool() : pool.mutations();
    const auto patches = draw_patches(members.size(), sample[j], 256, rng);
    if (patches.empty()) continue;
    std::vector<std::vector<mwr::apr::Mutation>> mutation_patches;
    if (!wave) {
      for (const auto& patch : patches) {
        auto& out = mutation_patches.emplace_back();
        for (const std::uint32_t i : patch) out.push_back(members[i]);
      }
    }
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < 0.15) {
      const Clock::time_point b0 = Clock::now();
      {
        const Span span(tracer, "oracle.evaluate", j + 1);
        if (wave) {
          for (const auto& patch : patches) (void)oracle.evaluate_pooled(patch);
        } else {
          for (const auto& patch : mutation_patches) (void)oracle.evaluate(patch);
        }
      }
      evaluate_s += seconds_since(b0);
      evaluations += patches.size();
      if (wave) pooled += patches.size();
    }
  }
  std::printf("# pool base: %.0f safe of %.0f attempts; %zu evaluations, %zu "
              "of them evaluate_pooled\n",
              safe, attempts, evaluations, pooled);
  report.set("pool.precompute_ms", percentile(precompute_ms, 0.5), "ms");
  report.set("pool.revalidate_ms", percentile(revalidate_ms, 0.5), "ms");
  report.set("pool.safe_ratio", attempts > 0.0 ? safe / attempts : 0.0,
             "share");
  report.set("oracle.evaluate_ns",
             evaluations > 0
                 ? evaluate_s * 1e9 / static_cast<double>(evaluations)
                 : 0.0,
             "ns");
}

void measure_mwu_layers(Tracer& tracer, Report& report, bool tiny) {
  const Span root(tracer, "bench.mwu_layers");
  const std::size_t k = tiny ? 64 : 1024;
  const double budget_s = tiny ? 0.02 : 0.25;
  const struct {
    mwr::core::MwuKind kind;
    const char* metric;
  } kinds[] = {{mwr::core::MwuKind::kStandard, "mwu.standard_update_ns"},
               {mwr::core::MwuKind::kSlate, "mwu.slate_update_ns"},
               {mwr::core::MwuKind::kDistributed, "mwu.distributed_update_ns"}};
  for (const auto& [kind, metric] : kinds) {
    mwr::core::MwuConfig config;
    config.num_options = k;
    auto strategy = mwr::core::make_mwu(kind, config);
    strategy->init();
    mwr::util::RngStream rng(0x3141592653ULL + k);
    InputRng rewards_rng(0x2718281828ULL + k);
    double update_s = 0.0;
    std::size_t updates = 0;
    std::vector<double> rewards;
    while (update_s < budget_s) {
      const std::vector<std::size_t> options = strategy->sample(rng);
      rewards.resize(options.size());
      for (std::size_t i = 0; i < options.size(); ++i) {
        // Better options pay off more often, so the learner moves.
        const double p = 0.1 + 0.8 * static_cast<double>(options[i]) /
                                   static_cast<double>(k);
        rewards[i] = rewards_rng.uniform01() < p ? 1.0 : 0.0;
      }
      const Clock::time_point t0 = Clock::now();
      {
        const Span span(tracer, "mwu.update", updates + 1);
        strategy->update(options, rewards, rng);
      }
      update_s += seconds_since(t0);
      ++updates;
      if (strategy->converged()) strategy->init();
    }
    std::printf("# %s: %zu updates at k = %zu\n", metric, updates, k);
    report.set(metric, update_s * 1e9 / static_cast<double>(updates), "ns");
  }
}

}  // namespace perfbench
