#include "core/distributed_mwu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

DistributedMwu::DistributedMwu(const MwuConfig& config) : config_(config) {
  if (config.num_options == 0)
    throw std::invalid_argument("DistributedMwu: num_options == 0");
  if (config.exploration < 0.0 || config.exploration > 1.0)
    throw std::invalid_argument("DistributedMwu: mu must be in [0, 1]");
  if (config.adopt_failure > config.adopt_success)
    throw std::invalid_argument("DistributedMwu: requires alpha <= beta");
  if (config.adopt_success > 1.0 || config.adopt_failure < 0.0)
    throw std::invalid_argument("DistributedMwu: alpha/beta outside [0, 1]");
  const std::size_t pop = distributed_population(config);
  if (pop > config.max_population)
    throw std::length_error("DistributedMwu: population " +
                            std::to_string(pop) + " exceeds max_population");
  choices_.resize(pop);
  popularity_.resize(config.num_options);
  init();
}

void DistributedMwu::init() {
  // Round-robin initialization: each option starts with pop/k holders,
  // matching the paper's Fig 3 initialization loop.
  std::fill(popularity_.begin(), popularity_.end(), 0u);
  for (std::size_t j = 0; j < choices_.size(); ++j) {
    choices_[j] = static_cast<std::uint32_t>(j % config_.num_options);
    ++popularity_[choices_[j]];
  }
}

void DistributedMwu::set_choices(const std::vector<std::uint32_t>& choices) {
  if (choices.size() != choices_.size())
    throw std::invalid_argument("DistributedMwu::set_choices: wrong size");
  for (const auto c : choices) {
    if (c >= config_.num_options)
      throw std::invalid_argument(
          "DistributedMwu::set_choices: option out of range");
  }
  choices_ = choices;
  std::fill(popularity_.begin(), popularity_.end(), 0u);
  for (const auto c : choices_) ++popularity_[c];
}

// Both agent loops draw from a local copy of the caller's stream and write
// it back once (DESIGN.md §8.5).  The loops store size_t observations and
// load size_t options — the same type as the generator's uint64_t state —
// so through `rng` every draw would have to store and reload that state;
// the local copy stays in registers.  Each trial is bernoulli(p) in its
// exact integer form (RngStream::bernoulli_threshold), so every draw and
// outcome matches the per-agent bernoulli/uniform_index sequence.
void DistributedMwu::sample_into(util::RngStream& rng,
                                 std::vector<std::size_t>& out) {
  const std::size_t population = choices_.size();
  const std::size_t k = config_.num_options;
  const std::uint64_t explore =
      util::RngStream::bernoulli_threshold(config_.exploration);
  const std::uint32_t* choices = choices_.data();
  out.resize(population);
  std::size_t* observed = out.data();
  util::RngStream local = rng;
  for (std::size_t j = 0; j < population; ++j) {
    if (local.bernoulli_below(explore)) {
      observed[j] = local.uniform_index(k);  // random option
    } else {
      observed[j] = choices[local.uniform_index(population)];  // a neighbor
    }
  }
  rng = local;
}

void DistributedMwu::update(std::span<const std::size_t> options,
                            std::span<const double> rewards,
                            util::RngStream& rng) {
  const std::size_t population = choices_.size();
  if (options.size() != population || rewards.size() != population)
    throw std::invalid_argument("DistributedMwu::update: size mismatch");
  const std::uint64_t adopt_success =
      util::RngStream::bernoulli_threshold(config_.adopt_success);
  const std::uint64_t adopt_failure =
      util::RngStream::bernoulli_threshold(config_.adopt_failure);
  std::uint32_t* choices = choices_.data();
  std::uint32_t* popularity = popularity_.data();
  util::RngStream local = rng;
  for (std::size_t j = 0; j < population; ++j) {
    const bool success = rewards[j] > 0.0;
    if (local.bernoulli_below(success ? adopt_success : adopt_failure)) {
      --popularity[choices[j]];
      choices[j] = static_cast<std::uint32_t>(options[j]);
      ++popularity[choices[j]];
    }
  }
  rng = local;
}

std::vector<double> DistributedMwu::probabilities() const {
  // Census materialization: p[i] = popularity[i] / population, through the
  // dispatched widening-convert + divide kernel (population < 2^31, so the
  // conversion is exact on both paths).
  std::vector<double> p(popularity_.size());
  util::simd::active().materialize_counts(p.data(), popularity_.data(),
                                          popularity_.size(),
                                          static_cast<double>(choices_.size()));
  return p;
}

bool DistributedMwu::converged() const {
  const auto max_count =
      *std::max_element(popularity_.begin(), popularity_.end());
  return static_cast<double>(max_count) >=
         config_.plurality_threshold * static_cast<double>(choices_.size());
}

std::size_t DistributedMwu::best_option() const {
  return static_cast<std::size_t>(
      std::max_element(popularity_.begin(), popularity_.end()) -
      popularity_.begin());
}

}  // namespace mwr::core
