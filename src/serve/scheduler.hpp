// Deficit-round-robin fair scheduling over resident campaigns.
//
// The serving problem: campaign work units are wildly uneven — one
// tenant's precompute unit costs thousands of suite runs while another's
// online cycle costs eight — and campaign lengths span two orders of
// magnitude.  A naive run-to-completion or FIFO policy lets one huge
// campaign monopolize the epoch while small ones starve.
//
// DeficitScheduler applies the classic DRR discipline at unit (not
// byte) granularity.  Every scheduling epoch, each resident campaign's
// deficit counter is credited one quantum of work units; the epoch then
// grants each campaign a budget equal to its accumulated deficit, and
// settle() debits what the campaign actually consumed.  Unused credit
// carries over (a campaign whose single unit is enormous still gets its
// fair share across epochs) but is capped at a small multiple of the
// quantum so an idle tenant cannot hoard an unbounded burst.
//
// Fairness invariants (asserted by tests/test_serve.cpp and watched by
// the server's serve.starved_epochs counter):
//   * every resident campaign receives a grant of >= 1 unit every epoch
//     (quantum >= 1 and credits precede grants), so no campaign can be
//     starved by any mix of co-tenants — the zero-starvation guarantee;
//   * no campaign can consume more than (quantum + carried deficit)
//     units in one epoch, bounding how far a huge campaign can pull
//     ahead between grants to everyone else.
//
// Grant order is ascending campaign id — a deterministic order so a
// server epoch is reproducible given the same resident set.
#pragma once

#include <cstdint>
#include <cstddef>
#include <map>
#include <vector>

namespace mwr::serve {

class DeficitScheduler {
 public:
  /// `quantum`: work units credited per campaign per epoch (>= 1
  /// enforced).  `max_carry_quanta`: cap on accumulated deficit, in
  /// quanta.
  explicit DeficitScheduler(std::size_t quantum,
                            std::size_t max_carry_quanta = 4);

  /// Registers a campaign with zero deficit.  Duplicate admission of a
  /// live id is a logic error (throws std::invalid_argument).
  void admit(std::uint64_t id);
  /// Forgets a campaign (done or evicted); unknown ids are ignored.
  void remove(std::uint64_t id);

  [[nodiscard]] std::size_t resident() const noexcept;
  [[nodiscard]] std::size_t quantum() const noexcept { return quantum_; }

  struct Grant {
    std::uint64_t id = 0;
    std::size_t budget = 0;
  };

  /// Credits every resident campaign one quantum and returns this
  /// epoch's grants in ascending id order.  Every grant's budget is
  /// >= quantum >= 1.
  [[nodiscard]] std::vector<Grant> begin_epoch();

  /// Debits `used` units from `id`'s deficit after its grant ran.
  /// Consuming more than the granted budget throws std::logic_error
  /// (the epoch-side contract is budget-bounded stepping).
  void settle(std::uint64_t id, std::size_t used);

  /// Current deficit for a campaign (0 for unknown ids) — test hook.
  [[nodiscard]] std::size_t deficit(std::uint64_t id) const;

 private:
  std::size_t quantum_;
  std::size_t max_deficit_;
  std::map<std::uint64_t, std::size_t> deficit_;
  std::map<std::uint64_t, std::size_t> granted_;  ///< live epoch's budgets.
};

}  // namespace mwr::serve
