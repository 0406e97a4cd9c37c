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

#include <bit>
#include <cstdint>
#include <string>
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

/// FNV-1a offset basis and prime (64-bit).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a fold of a 64-bit value, one byte at a time (low byte first).
/// The fold behind every trajectory hash and definition fingerprint, so
/// its output is part of the checkpoint format: never change it.
[[nodiscard]] inline std::uint64_t fnv_fold(std::uint64_t h,
                                            std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds a double's exact bit pattern.
[[nodiscard]] inline std::uint64_t fnv_fold(std::uint64_t h,
                                            double v) noexcept {
  return fnv_fold(h, std::bit_cast<std::uint64_t>(v));
}

/// Folds a string's length, then its bytes.
[[nodiscard]] inline std::uint64_t fnv_fold(std::uint64_t h,
                                            const std::string& s) noexcept {
  h = fnv_fold(h, static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Identity of one scenario: every ScenarioSpec field, the bug targeted
/// and the suite size included.  Campaign checkpoints fold it into their
/// definition fingerprint; the serve layer's OracleHub keys shared
/// oracles and pools by it.
[[nodiscard]] std::uint64_t spec_fingerprint(
    const datasets::ScenarioSpec& spec);

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
