#include "core/regret.hpp"

#include <algorithm>
#include <cmath>

namespace mwr::core {

double RegretTrace::at_cycle(std::size_t cycle) const noexcept {
  if (cumulative.empty()) return 0.0;
  const std::size_t index = std::min(cycle, cumulative.size()) -
                            (cycle == 0 ? 0 : 1);
  if (cycle == 0) return 0.0;
  return cumulative[index];
}

RegretTrace run_mwu_with_regret(MwuKind kind, const OptionSet& options,
                                const MwuConfig& config, util::RngStream rng) {
  RegretTrace trace;
  if (kind == MwuKind::kDistributed &&
      distributed_population(config) > config.max_population) {
    trace.result.intractable = true;
    return trace;
  }
  const auto strategy = make_mwu(kind, config);
  const BernoulliOracle oracle(options);
  trace.probes_per_cycle = strategy->cpus_per_cycle();
  trace.result.cpus_per_cycle = trace.probes_per_cycle;

  const double best = options.best_value();
  double cumulative = 0.0;
  std::vector<std::size_t> probes;
  std::vector<double> rewards;
  for (std::size_t t = 0; t < config.max_iterations; ++t) {
    strategy->sample_into(rng, probes);
    rewards.resize(probes.size());
    oracle.sample_batch(probes, rng, rewards);
    for (const std::size_t option : probes) {
      cumulative += best - options.value(option);
    }
    trace.result.evaluations += probes.size();
    strategy->update(probes, rewards, rng);
    trace.cumulative.push_back(cumulative);
    const auto p = strategy->probabilities();
    trace.max_probability.push_back(*std::max_element(p.begin(), p.end()));
    ++trace.result.iterations;
    if (strategy->converged()) {
      trace.result.converged = true;
      break;
    }
  }
  trace.result.best_option = strategy->best_option();
  trace.result.probabilities = strategy->probabilities();
  return trace;
}

double adversarial_regret_bound(double probes, std::size_t num_options,
                                double constant) {
  const auto k = static_cast<double>(num_options);
  return constant * std::sqrt(std::max(0.0, probes) * k * std::log(k));
}

}  // namespace mwr::core
