// Synthetic program model: the substrate MWRepair and the baselines search
// over.
//
// Substitution (DESIGN.md §2): the paper mutates real C/Java programs and
// runs their regression suites.  What every search algorithm actually
// consumes is (a) a universe of statement-level edits restricted to covered
// code and (b) a deterministic mapping from a set of edits to test
// outcomes.  ProgramModel provides (a): statements with a coverage bitmap
// derived from the scenario's coverage fraction; TestOracle (test_oracle.hpp)
// provides (b).
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/scenario.hpp"
#include "util/rng.hpp"

namespace mwr::apr {

/// Stable hashing for the scenario's deterministic semantics: the same
/// (seed, parts...) always produces the same 64-bit value, independent of
/// platform.  Used for coverage, safety, interference, and repair relevance.
/// Inline: the oracle's pair passes call it millions of times per run.
[[nodiscard]] inline std::uint64_t stable_hash(std::uint64_t seed,
                                               std::uint64_t a,
                                               std::uint64_t b = 0,
                                               std::uint64_t c = 0) noexcept {
  util::SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                      (b * 0xc2b2ae3d27d4eb4fULL) ^
                      (c * 0x165667b19e3779f9ULL));
  sm.next();
  return sm.next();
}

/// Maps a stable hash to a uniform double in [0, 1).
[[nodiscard]] inline double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The mutable program under repair.
class ProgramModel {
 public:
  explicit ProgramModel(datasets::ScenarioSpec spec);

  [[nodiscard]] const datasets::ScenarioSpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] std::size_t num_statements() const noexcept {
    return spec_.statements;
  }

  /// Whether the regression suite executes this statement.  Mutations are
  /// restricted to covered statements ("to avoid mutations applied to dead
  /// or untested code", §III).
  [[nodiscard]] bool is_covered(std::size_t statement) const;

  /// All covered statement ids, ascending (materialized once).
  [[nodiscard]] const std::vector<std::uint32_t>& covered_statements()
      const noexcept {
    return covered_;
  }

 private:
  datasets::ScenarioSpec spec_;
  std::vector<std::uint32_t> covered_;
};

}  // namespace mwr::apr
