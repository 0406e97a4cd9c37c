// Slate MWU (bandit slate selection; paper Fig 2, after [13]).
//
// Global-memory variant specialized for choosing a fixed-size subset of
// options per cycle.  The mixing parameter gamma both floors exploration
// (probabilities are (1 - gamma) * w / sum(w) + gamma / k) and fixes the
// slate size as a fraction of the option set — the paper observes that the
// fixed gamma "sets the k/n ratio to a constant" (§IV-F), which is why the
// CPU count of Slate grows with instance size in Table IV.
//
// Only slate members receive weight updates, and the exploration floor caps
// how much probability the leader can accumulate; both effects make Slate
// the slowest variant in update cycles (Table II) while the persistent
// exploration gives it the consistently high accuracy of Table III.
#pragma once

#include <vector>

#include "core/mwu.hpp"
#include "util/fenwick_sampler.hpp"

namespace mwr::core {

class SlateMwu final : public MwuStrategy {
 public:
  explicit SlateMwu(const MwuConfig& config);

  void init() override;
  void sample_into(util::RngStream& rng,
                   std::vector<std::size_t>& out) override;
  void update(std::span<const std::size_t> options,
              std::span<const double> rewards, util::RngStream& rng) override;
  [[nodiscard]] std::vector<double> probabilities() const override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::size_t best_option() const override;
  [[nodiscard]] std::size_t cpus_per_cycle() const override {
    return slate_size_;
  }
  [[nodiscard]] MwuKind kind() const override { return MwuKind::kSlate; }

  [[nodiscard]] std::size_t slate_size() const noexcept { return slate_size_; }

  /// The slate size gamma implies for a k-option instance:
  /// max(1, round(gamma * k)), clamped to k.
  [[nodiscard]] static std::size_t slate_size_for(std::size_t num_options,
                                                  double gamma);

  /// Selects the sampler realizing the capped marginals.  Systematic
  /// sampling (default) is O(k) per cycle; the explicit convex
  /// decomposition is the O(k^2) construction the paper describes in
  /// §II-C — build the mixture of slate vertices, then draw one component
  /// by its coefficient.  Both realize identical inclusion marginals.
  enum class Sampler { kSystematic, kDecomposition };
  void set_sampler(Sampler sampler) noexcept { sampler_ = sampler; }
  [[nodiscard]] Sampler sampler() const noexcept { return sampler_; }

  /// Highest probability any single option can reach given the gamma floor:
  /// (1 - gamma) + gamma / k.  Convergence is measured against this.
  [[nodiscard]] double max_achievable_probability() const noexcept;

  /// Raw weights — exposed for checkpointing.
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }
  /// Replaces the weight state (checkpoint restore).
  void set_weights(std::vector<double> weights);

 private:
  /// Writes probabilities() into `p`; returns their strict left-to-right
  /// sum and sets `max_p` to their maximum.
  double materialize_probabilities(std::vector<double>& p,
                                   double& max_p) const;

  MwuConfig config_;
  std::size_t slate_size_ = 1;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  Sampler sampler_ = Sampler::kSystematic;
  /// Per-cycle probabilities p and capped marginals q, reused by every
  /// sample_into() call.
  std::vector<double> p_scratch_;
  std::vector<double> q_scratch_;
  /// Decomposition mode's coefficient draw (kept as a member so repeated
  /// sample_into() calls reuse its storage).
  util::FenwickSampler coefficient_sampler_;
};

}  // namespace mwr::core
