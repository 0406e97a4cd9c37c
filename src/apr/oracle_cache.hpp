// Oracle memoization — the test-result cache that makes repeated probes of
// pooled mutations nearly free (paper §III-C amortization; the same
// technique GenProg-scale APR relies on to stay tractable).
//
// TestOracle's semantics are a pure function of (scenario spec, mutation
// key): the broken-test mask costs T stable hashes per mutation (T up to
// 64) and each unordered pair of safe mutations costs another hash in the
// O(x^2) interference pass.  During MWRepair phase 2 every probe re-draws
// from the same precomputed pool, so the same masks and the same pairs are
// recomputed thousands of times.  This cache stores them once:
//
//   mutation-key cache  — sharded (mutex-striped) hash map from the 64-bit
//                         mutation key to {broken mask, repair-relevance},
//                         safe for concurrent insert from the precompute
//                         thread pool;
//   primed fast path    — after a pool is known, prime() freezes its
//                         members into a flat array indexed by pool
//                         position (key lookup = binary search over the
//                         pool's sorted keys), read lock-free;
//   pair cache          — bounded triangular array of atomic bytes over
//                         pool-index pairs, recording "no interference" or
//                         the broken test bit.  Exact by construction (the
//                         index pair *is* the identity — no hash
//                         collisions), lock-free, and capped at
//                         kMaxPairDimension pool members (~2 MiB).
//
// Everything cached is deterministic, so cached and uncached evaluation are
// bit-identical — the golden tests in tests/test_oracle_cache.cpp compare
// the two paths directly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "apr/mutation.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::apr {

/// The memoizable per-mutation semantics: which required tests the lone
/// mutation breaks, and whether its relevance hash clears the scenario's
/// relevance rate.  Both are pure functions of the canonical mutation
/// *key* — the localized-relevance coverage predicate is deliberately NOT
/// cached here, because a swap's key orders its operands while coverage
/// depends on the concrete `target`; TestOracle re-checks that O(1)
/// predicate at query time so cached and uncached answers stay
/// bit-identical for either operand orientation.
struct MutationSemantics {
  std::uint64_t broken_mask = 0;
  bool relevance_hash_pass = false;
};

class OracleCache {
 public:
  /// Pool members beyond this bound fall back to the sharded map and
  /// direct pair computation; the triangular pair array for the bound is
  /// kMaxPairDimension^2 / 2 bytes (~2 MiB).
  static constexpr std::size_t kMaxPairDimension = 2048;

  /// Pair-outcome encoding inside the triangular byte array.
  static constexpr std::uint8_t kPairUnknown = 0;
  static constexpr std::uint8_t kPairClean = 1;   ///< no interference.
  static constexpr std::uint8_t kPairBitBase = 2; ///< broken bit = v - 2.

  OracleCache() = default;
  OracleCache(const OracleCache&) = delete;
  OracleCache& operator=(const OracleCache&) = delete;

  // --- sharded mutation-key cache (any mutation, any thread) ---

  [[nodiscard]] std::optional<MutationSemantics> lookup(
      std::uint64_t key) const;
  void store(std::uint64_t key, MutationSemantics value);

  // --- primed pooled-mutation fast path ---

  /// Freezes the pooled mutations' semantics into the flat fast path.
  /// `sorted_keys` must be ascending and unique (the MutationPool
  /// invariant) and aligned with `semantics`.  Must not race evaluate():
  /// call between phases, as MutationPool::precompute and MwRepair::run
  /// do.  Subsequent calls with the same keys are no-ops; a different
  /// pool re-primes.
  void prime(std::vector<std::uint64_t> sorted_keys,
             std::vector<MutationSemantics> semantics);

  [[nodiscard]] bool primed() const noexcept {
    return primed_.load(std::memory_order_acquire);
  }

  /// True when the cache is primed with exactly these keys — lets callers
  /// skip recomputing pool semantics before a redundant prime().
  [[nodiscard]] bool primed_with(std::span<const std::uint64_t> keys) const;

  /// Pool index of `key`, or npos when unprimed / not pooled.  One probe
  /// of a flat open-addressing table built by prime() (load factor <= 1/4,
  /// linear probing) — constant time, the per-mutation cost of a warm
  /// phase-2 probe.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t pool_index(std::uint64_t key) const {
    if (!primed()) return npos;
    std::size_t slot = mix_key(key) & table_mask_;
    while (true) {
      const IndexEntry& e = index_table_[slot];
      if (e.index_plus_one == 0) return npos;
      if (e.key == key) return e.index_plus_one - 1;
      slot = (slot + 1) & table_mask_;
    }
  }

  [[nodiscard]] const MutationSemantics& pooled(std::size_t index) const {
    return pool_semantics_[index];
  }

  /// Key of the primed pool member at `index`.
  [[nodiscard]] std::uint64_t pool_key(std::size_t index) const {
    return pool_keys_[index];
  }

  // --- bounded pair-interference cache (pool indices, lock-free) ---

  /// Whether the pair (i, j) of pool indices is cacheable (both below the
  /// dimension bound).
  [[nodiscard]] bool pair_cacheable(std::size_t i, std::size_t j) const {
    return i < pair_dimension_ && j < pair_dimension_;
  }

  /// Encoded pair outcome, kPairUnknown when never stored.
  [[nodiscard]] std::uint8_t lookup_pair(std::size_t i, std::size_t j) const {
    return pairs_[pair_slot(i, j)].load(std::memory_order_relaxed);
  }

  void store_pair(std::size_t i, std::size_t j, std::uint8_t encoded) {
    pairs_[pair_slot(i, j)].store(encoded, std::memory_order_relaxed);
  }

  /// Encodes a pair-interference outcome for store_pair.
  [[nodiscard]] static std::uint8_t encode_pair(bool interferes,
                                                std::uint32_t broken_bit) {
    return interferes ? static_cast<std::uint8_t>(kPairBitBase + broken_bit)
                      : kPairClean;
  }

  /// Decodes lookup_pair's value into the broken-test mask contribution.
  [[nodiscard]] static std::uint64_t decode_pair_mask(std::uint8_t encoded) {
    return encoded >= kPairBitBase
               ? (std::uint64_t{1} << (encoded - kPairBitBase))
               : 0;
  }

  /// ORs the interference masks of every unordered pair among
  /// `sorted_indices` (strictly ascending pool indices, all below the
  /// pair-cache dimension).  The hot path of a phase-2 probe: with the
  /// indices sorted, each row's cached slots are contiguous bytes, so a
  /// warm probe is a sequential scan rather than per-pair index
  /// arithmetic.  Unknown slots are resolved through `miss(i, j)` (which
  /// returns the encoded outcome) and recorded.  `hits`/`misses`
  /// accumulate counter deltas for the caller to flush.
  template <typename MissFn>
  std::uint64_t fold_pair_masks(std::span<const std::size_t> sorted_indices,
                                MissFn&& miss, std::uint64_t& hits,
                                std::uint64_t& misses) {
    std::uint64_t mask = 0;
    for (std::size_t a = 0; a + 1 < sorted_indices.size(); ++a) {
      const std::size_t i = sorted_indices[a];
      // pair_slot(i, j) = base + j for every j > i in this row.
      const std::size_t base =
          i * (2 * pair_dimension_ - i - 1) / 2 - i - 1;
      for (std::size_t b = a + 1; b < sorted_indices.size(); ++b) {
        const std::size_t j = sorted_indices[b];
        std::uint8_t v = pairs_[base + j].load(std::memory_order_relaxed);
        if (v == kPairUnknown) {
          ++misses;
          v = miss(i, j);
          pairs_[base + j].store(v, std::memory_order_relaxed);
        } else {
          ++hits;
        }
        mask |= decode_pair_mask(v);
      }
    }
    return mask;
  }

  // --- probe-wave table (eager per-oracle evaluation operands) ---

  /// Everything a pooled-patch evaluation needs, laid out for a
  /// word-parallel pass over pool-membership bitsets: per-member broken
  /// masks, unsafe / repair-relevant / has-a-partner membership as
  /// bitsets over pool indices, and the sparse CSR of interfering safe
  /// pairs (partner index + interference mask per edge), each pair stored
  /// once, in the row of its lower index.  `row_masks` lets
  /// evaluate_pooled skip a row whose every bit is already broken, and
  /// `full_mask` lets it stop once every test is.  Built once by
  /// TestOracle::prime_wave; read lock-free by every evaluate_pooled
  /// (DESIGN.md §8.2).
  struct WaveTable {
    std::vector<Mutation> pool;                 ///< the primed members, so
                                                ///< mappers can verify full
                                                ///< equality (not just key).
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

  /// Installs the wave table for the currently primed pool.  Same no-race
  /// contract as prime(); re-priming with a different pool drops it.
  void install_wave(WaveTable table);

  [[nodiscard]] bool wave_ready() const noexcept {
    return wave_ready_.load(std::memory_order_acquire);
  }

  /// Valid only while wave_ready().
  [[nodiscard]] const WaveTable& wave() const noexcept { return wave_; }

 private:
  /// SplitMix64 finalizer — scrambles the structured mutation-key bits
  /// into table-probe entropy.
  [[nodiscard]] static std::uint64_t mix_key(std::uint64_t k) noexcept {
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
    return k ^ (k >> 31);
  }

  /// Open-addressing slot: index_plus_one == 0 marks an empty slot (a
  /// mutation key itself may legitimately be zero).
  struct IndexEntry {
    std::uint64_t key = 0;
    std::uint32_t index_plus_one = 0;
  };

  [[nodiscard]] std::size_t pair_slot(std::size_t i, std::size_t j) const {
    // Upper-triangular (i < j) row-major index.
    if (i > j) std::swap(i, j);
    return i * (2 * pair_dimension_ - i - 1) / 2 + (j - i - 1);
  }

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable util::Mutex mutex;
    // Keyed lookup/insert only — never iterated, so the unordered layout
    // can't leak nondeterminism into probe results (mwr_lint's
    // unordered-iteration rule keeps it that way).
    std::unordered_map<std::uint64_t, MutationSemantics> map
        MWR_GUARDED_BY(mutex);
  };
  [[nodiscard]] Shard& shard_for(std::uint64_t key) const {
    // Mutation keys concentrate their entropy in the low bits (donor) and
    // bits 31.. (target); fold before striping.
    return shards_[(key ^ (key >> 31)) % kShards];
  }

  mutable std::array<Shard, kShards> shards_;

  std::vector<std::uint64_t> pool_keys_;
  std::vector<MutationSemantics> pool_semantics_;
  std::vector<IndexEntry> index_table_;
  std::size_t table_mask_ = 0;
  std::size_t pair_dimension_ = 0;
  std::vector<std::atomic<std::uint8_t>> pairs_;
  std::atomic<bool> primed_{false};

  WaveTable wave_;
  std::atomic<bool> wave_ready_{false};
};

}  // namespace mwr::apr
