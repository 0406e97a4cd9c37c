// Simulated test-suite execution: the deterministic semantics of a bug
// scenario.
//
// The model (calibrated to the paper's published regularities, §III-B):
//
//   safety        — a mutation breaks each required test independently with
//                   a per-test rate b calibrated so that a single mutation
//                   passes the whole suite with probability safe_rate
//                   ((1-b)^T = safe_rate; ~55% for whole-statement edits on
//                   the C scenarios — the cross-benchmark figure the paper
//                   cites is ~30%, rising for coarse statement edits).
//                   "Safe" means it breaks none of the current tests.
//                   Breakage is a deterministic function of the mutation
//                   key, the test index, and the scenario seed, so the same
//                   edit always behaves identically — and a grown suite can
//                   expose a previously-safe mutation only through its new
//                   tests, which drives incremental pool maintenance.
//   interference  — every unordered pair of safe mutations interferes with
//                   probability q = spec.interference(), breaking one
//                   hash-chosen test.  This reproduces Fig 4a's decay:
//                   P(pass | x safe mutations) = (1-q)^(x choose 2).
//   repair        — a safe mutation is repair-relevant with probability
//                   repair_rate; the bug-inducing test passes iff the patch
//                   contains at least min_repair_edits relevant mutations.
//                   A *repair* passes the bug test AND the required suite.
//
// Because the semantics are a pure function of (spec, mutation key), a
// pool known in advance can be evaluated once, eagerly: prime_wave() builds
// one per-pool table (per-member broken masks, unsafe / repair-relevant
// bitsets, and for pools up to kMaxPairDimension the sparse CSR of
// interfering safe pairs), and evaluate_pooled() then answers a patch named
// by ascending pool positions from that table alone (DESIGN.md §8.2).
// evaluate() is the plain uncached reference for arbitrary patches; the
// two are bit-identical (golden-tested in tests/test_oracle_cache.cpp).
//
// Every evaluate() or evaluate_pooled() call counts one test-suite run —
// the unit in which the paper measures APR cost (§IV-G) — via a relaxed
// atomic, so concurrent probes from the thread pool can share one oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "apr/mutation.hpp"
#include "apr/program.hpp"

namespace mwr::apr {

/// Outcome of running the suite on a patched program.
struct Evaluation {
  std::uint32_t required_passed = 0;
  std::uint32_t required_total = 0;
  bool bug_test_passed = false;

  /// GenProg-style fitness: passing required tests weighted 1, the
  /// bug-inducing test weighted like a required test.
  [[nodiscard]] std::uint32_t fitness() const noexcept {
    return required_passed + (bug_test_passed ? 1u : 0u);
  }
  /// A repair passes everything.
  [[nodiscard]] bool is_repair() const noexcept {
    return bug_test_passed && required_passed == required_total;
  }

  friend bool operator==(const Evaluation&, const Evaluation&) = default;
};

class TestOracle {
 public:
  /// Pools up to this many members get the interference CSR in their
  /// table; above it evaluate_pooled hashes the patch's safe pairs
  /// directly (an eager pair pass over a larger pool costs more to build
  /// than a whole run saves — DESIGN.md §8.2).
  static constexpr std::size_t kMaxPairDimension = 2048;

  explicit TestOracle(const ProgramModel& program);

  /// Runs the (simulated) suite on original-program-plus-patch.  The
  /// uncached reference path: every call re-derives each member's
  /// breakage and every safe pair's interference.
  [[nodiscard]] Evaluation evaluate(std::span<const Mutation> patch) const;

  /// Fitness of the unpatched program: passes all required tests, fails the
  /// bug-inducing test.
  [[nodiscard]] std::uint32_t baseline_fitness() const noexcept {
    return required_tests_;
  }

  [[nodiscard]] std::uint32_t required_tests() const noexcept {
    return required_tests_;
  }

  /// Model introspection (deterministic; does not count as a suite run).
  [[nodiscard]] bool is_safe(const Mutation& m) const;
  [[nodiscard]] bool is_repair_relevant(const Mutation& m) const;

  /// Builds the per-pool table over `pool` (key-sorted and unique, the
  /// MutationPool invariant; throws std::invalid_argument otherwise):
  /// per-member broken masks, unsafe / repair-relevant bitsets with the
  /// localized-coverage predicate folded in, and — for pools of at most
  /// kMaxPairDimension members — the sparse CSR of interfering safe pairs
  /// with each row's OR-ed mask.  A no-op when the same pool is already
  /// primed; a different pool replaces the table.  Must not race
  /// evaluate_pooled(); counts no suite runs.
  void prime_wave(std::span<const Mutation> pool) const;

  /// True once prime_wave has installed a table.
  [[nodiscard]] bool wave_ready() const noexcept {
    return wave_ready_.load(std::memory_order_acquire);
  }

  /// The primed pool members (valid only while wave_ready()) — what
  /// callers map their working pools onto by full Mutation equality.
  [[nodiscard]] std::span<const Mutation> wave_pool() const noexcept {
    return wave_.pool;
  }

  /// evaluate() for a patch named by strictly ascending positions in the
  /// primed pool (the canonical patch in index space — see
  /// sample_from_pool_indexed).  Bit-identical to evaluate() over the same
  /// mutations and counts one suite run.  Word-parallel over the patch's
  /// membership bitset: it walks only the partner rows of interfering
  /// members (or, above kMaxPairDimension, hashes the safe members' pairs),
  /// skips work that cannot break a new test, and stops once every test is
  /// broken (DESIGN.md §8.2).  Safe to call from many threads at once.
  [[nodiscard]] Evaluation evaluate_pooled(
      std::span<const std::uint32_t> pool_indices) const;

  /// Total suite runs so far (the cost currency of §IV-G).
  [[nodiscard]] std::uint64_t suite_runs() const noexcept {
    return suite_runs_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ProgramModel& program() const noexcept {
    return *program_;
  }

 private:
  /// Everything a pooled-patch evaluation needs, laid out for a
  /// word-parallel pass over pool-membership bitsets.  The CSR stores each
  /// interfering safe pair once, in the row of its lower index; it is
  /// empty for pools above kMaxPairDimension.
  struct WaveTable {
    std::vector<Mutation> pool;                 ///< the primed members.
    std::vector<std::uint64_t> masks;           ///< broken mask per member.
    std::vector<std::uint64_t> unsafe_words;    ///< bitset: broken_mask != 0.
    std::vector<std::uint64_t> relevant_words;  ///< bitset: counts toward
                                                ///< the repair threshold.
    std::vector<std::uint64_t> pair_words;      ///< bitset: nonempty CSR
                                                ///< row.
    std::vector<std::uint32_t> partner_offsets; ///< CSR row starts, size n+1.
    std::vector<std::uint32_t> partner_idx;     ///< interfering partner,
                                                ///< above the row's index.
    std::vector<std::uint64_t> partner_masks;   ///< that pair's broken bit.
    std::vector<std::uint64_t> row_masks;       ///< OR of each row's
                                                ///< partner_masks.
    std::uint64_t full_mask = 0;                ///< one bit per required
                                                ///< test (~0 when T = 64).
  };

  [[nodiscard]] std::uint64_t broken_mask_single(const Mutation& m) const;
  /// Whether a safe mutation counts toward the repair threshold.
  [[nodiscard]] bool relevant_if_safe(const Mutation& m) const;
  [[nodiscard]] std::uint64_t pair_interference_mask(std::uint64_t lo,
                                                     std::uint64_t hi) const;

  const ProgramModel* program_;
  std::uint32_t required_tests_;
  double interference_;
  double per_test_break_rate_ = 0.0;
  // The relevance-hash threshold, hoisted out of is_repair_relevant: the
  // plain repair_rate, or the region-rescaled rate when relevance is
  // localized (constant per scenario either way).
  double relevance_rate_ = 0.0;
  mutable std::atomic<std::uint64_t> suite_runs_{0};

  // The per-pool table.  It only ever stores pure functions of the spec,
  // so building it from const prime_wave() preserves logical constness.
  mutable WaveTable wave_;
  mutable std::atomic<bool> wave_ready_{false};
};

}  // namespace mwr::apr
