#include "core/option_set.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mwr::core {

OptionSet::OptionSet(std::string name, std::vector<double> values)
    : name_(std::move(name)), values_(std::move(values)) {
  if (values_.empty())
    throw std::invalid_argument("OptionSet '" + name_ + "' is empty");
  for (double v : values_) {
    if (!(v >= 0.0 && v <= 1.0) || !std::isfinite(v))
      throw std::invalid_argument("OptionSet '" + name_ +
                                  "' has a value outside [0, 1]");
  }
  best_ = static_cast<std::size_t>(
      std::max_element(values_.begin(), values_.end()) - values_.begin());
}

double OptionSet::accuracy_percent(std::size_t chosen) const {
  const double best = best_value();
  if (best <= 0.0) return 100.0;  // every option is optimal
  const double err = std::abs(best - value(chosen)) / best;
  return 100.0 * (1.0 - err);
}

void BernoulliOracle::sample_batch(std::span<const std::size_t> options,
                                   util::RngStream& rng,
                                   std::span<double> rewards) const {
  // Draws from a local copy of the stream, written back at the end (and
  // before a throw): the options are size_t loads that could alias the
  // caller's uint64_t generator state, so drawing through `rng` would
  // store and reload that state around every probe (DESIGN.md §8.5).
  util::RngStream local = rng;
  const std::span<const double> values = options_->values();
  for (std::size_t j = 0; j < options.size(); ++j) {
    const std::size_t option = options[j];
    if (option >= values.size()) {
      rng = local;
      throw std::out_of_range("BernoulliOracle: option " +
                              std::to_string(option) + " out of range");
    }
    // bool -> double is exactly 1.0 / 0.0, without a branch on a coin flip.
    rewards[j] = static_cast<double>(local.bernoulli(values[option]));
  }
  rng = local;
}

}  // namespace mwr::core
