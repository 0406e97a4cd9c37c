#include "apr/test_oracle.hpp"

#include "apr/fault_localization.hpp"
#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace mwr::apr {

namespace {
// Domain separators for the scenario's deterministic semantics.
constexpr std::uint64_t kBreakDomain = 0xB4EA;
constexpr std::uint64_t kPairDomain = 0x9A12;
constexpr std::uint64_t kRepairDomain = 0x4E9A;
}  // namespace

TestOracle::TestOracle(const ProgramModel& program, bool enable_cache)
    : program_(&program),
      required_tests_(static_cast<std::uint32_t>(program.spec().tests)),
      interference_(program.spec().interference()) {
  if (required_tests_ == 0 || required_tests_ > 64)
    throw std::invalid_argument(
        "TestOracle: required tests must be in [1, 64] (bitmask model)");
  // Safety is test-granular: a mutation breaks each test independently with
  // rate b, calibrated so a single mutation passes the whole suite with
  // probability safe_rate: (1-b)^T = safe_rate.  Because b shrinks as the
  // suite grows, a mutation that passed every old test keeps passing them
  // under a grown suite — only the *new* tests can expose it, which is
  // exactly the incremental pool-maintenance story of §III-C.
  per_test_break_rate_ =
      1.0 - std::pow(program.spec().safe_rate,
                     1.0 / static_cast<double>(required_tests_));
  const auto& spec = program.spec();
  relevance_rate_ =
      spec.relevance_localized
          ? std::min(1.0, spec.repair_rate / kFailingRegionFraction)
          : spec.repair_rate;
  if (enable_cache) {
    cache_ = std::make_unique<OracleCache>();
    auto& metrics = obs::MetricsRegistry::global();
    mask_hits_ = &metrics.counter("oracle.mask_cache_hits");
    mask_misses_ = &metrics.counter("oracle.mask_cache_misses");
    pair_hits_ = &metrics.counter("oracle.pair_cache_hits");
    pair_misses_ = &metrics.counter("oracle.pair_cache_misses");
  }
}

bool TestOracle::is_safe(const Mutation& m) const {
  return semantics_for(m).broken_mask == 0;
}

bool TestOracle::is_repair_relevant(const Mutation& m) const {
  const auto& spec = program_->spec();
  // The coverage predicate depends on the concrete target statement (a
  // swap's key orders its operands), so it is evaluated here rather than
  // cached — one stable hash, same cost as a map probe.
  if (spec.relevance_localized && !failing_test_covers(spec, m.target))
    return false;
  const MutationSemantics s = semantics_for(m);
  return s.broken_mask == 0 && s.relevance_hash_pass;
}

std::uint64_t TestOracle::broken_mask_single(const Mutation& m) const {
  const auto& spec = program_->spec();
  std::uint64_t mask = 0;
  for (std::uint32_t t = 0; t < required_tests_; ++t) {
    if (hash_to_unit(stable_hash(spec.seed, kBreakDomain, m.key(), t)) <
        per_test_break_rate_) {
      mask |= (std::uint64_t{1} << t);
    }
  }
  return mask;
}

MutationSemantics TestOracle::compute_semantics(const Mutation& m) const {
  const auto& spec = program_->spec();
  MutationSemantics s;
  s.broken_mask = broken_mask_single(m);
  s.relevance_hash_pass =
      hash_to_unit(stable_hash(spec.seed, kRepairDomain ^ (spec.bug_id << 8),
                               m.key())) < relevance_rate_;
  return s;
}

MutationSemantics TestOracle::semantics_for(const Mutation& m) const {
  if (!cache_) return compute_semantics(m);
  const std::uint64_t key = m.key();
  // Lock-free pooled fast path first, sharded map second.
  const std::size_t idx = cache_->pool_index(key);
  if (idx != OracleCache::npos) {
    mask_hits_->add(1);
    return cache_->pooled(idx);
  }
  if (const auto hit = cache_->lookup(key)) {
    mask_hits_->add(1);
    return *hit;
  }
  mask_misses_->add(1);
  const MutationSemantics s = compute_semantics(m);
  cache_->store(key, s);
  return s;
}

std::uint64_t TestOracle::pair_interference_mask(std::uint64_t lo,
                                                 std::uint64_t hi) const {
  const std::uint64_t h =
      stable_hash(program_->spec().seed, kPairDomain, lo, hi);
  if (hash_to_unit(h) < interference_) {
    return std::uint64_t{1} << (h % required_tests_);
  }
  return 0;
}

Evaluation TestOracle::evaluate(std::span<const Mutation> patch) const {
  suite_runs_.fetch_add(1, std::memory_order_relaxed);
  const auto& spec = program_->spec();

  // Per-mutation breakage first (cached: two probes; uncached: O(T)
  // hashes), so the pair loop below can test safety as a flag lookup
  // instead of re-hashing the suite.  Cache counters are accumulated in
  // locals and flushed once per call — per-pair atomic increments would
  // cost more than the cached lookups they measure.
  // Per-thread scratch: evaluate() runs millions of times from the probe
  // thread pool, so its working vectors are reused across calls instead of
  // reallocated.
  thread_local std::vector<unsigned char> safe;
  thread_local std::vector<MutationSemantics> semantics;
  thread_local std::vector<std::size_t> pool_idx;
  thread_local std::vector<std::size_t> cacheable;  // sorted pool indices
  thread_local std::vector<std::size_t> rest;       // patch positions

  std::uint64_t broken = 0;
  safe.assign(patch.size(), 0);
  semantics.assign(patch.size(), MutationSemantics{});
  const bool primed = cache_ && cache_->primed();
  if (primed) pool_idx.assign(patch.size(), OracleCache::npos);
  std::uint64_t mask_hits = 0;
  std::uint64_t mask_misses = 0;
  for (std::size_t i = 0; i < patch.size(); ++i) {
    if (cache_) {
      const std::uint64_t key = patch[i].key();
      const std::size_t idx = primed ? cache_->pool_index(key)
                                     : OracleCache::npos;
      if (idx != OracleCache::npos) {
        pool_idx[i] = idx;
        semantics[i] = cache_->pooled(idx);
        ++mask_hits;
      } else if (const auto hit = cache_->lookup(key)) {
        semantics[i] = *hit;
        ++mask_hits;
      } else {
        ++mask_misses;
        semantics[i] = compute_semantics(patch[i]);
        cache_->store(key, semantics[i]);
      }
    } else {
      semantics[i] = compute_semantics(patch[i]);
    }
    broken |= semantics[i].broken_mask;
    safe[i] = (semantics[i].broken_mask == 0);
  }
  if (cache_) {
    if (mask_hits) mask_hits_->add(mask_hits);
    if (mask_misses) mask_misses_->add(mask_misses);
  }

  std::size_t relevant = 0;
  for (std::size_t i = 0; i < patch.size(); ++i) {
    if (safe[i] && semantics[i].relevance_hash_pass &&
        (!spec.relevance_localized ||
         failing_test_covers(spec, patch[i].target))) {
      ++relevant;
    }
  }

  // Pairwise interference among safe mutations (Fig 4a's mechanism).
  // Safe members split into the pair-cacheable set (pooled, below the
  // cache's dimension bound) and the rest; cacheable-vs-cacheable pairs go
  // through the lock-free triangular byte cache — exact, since the
  // pool-index pair *is* the identity — and every pair touching the rest
  // is hashed directly, as before.  A duplicate pool index (a degenerate
  // non-canonical patch) disables the cached split so the hash count stays
  // identical to the reference path.
  std::uint64_t pair_hits = 0;
  std::uint64_t pair_misses = 0;
  cacheable.clear();
  rest.clear();
  bool degenerate = false;
  if (primed) {
    for (std::size_t i = 0; i < patch.size(); ++i) {
      if (!safe[i]) continue;
      if (pool_idx[i] != OracleCache::npos &&
          cache_->pair_cacheable(pool_idx[i], pool_idx[i])) {
        cacheable.push_back(pool_idx[i]);
      } else {
        rest.push_back(i);
      }
    }
    std::sort(cacheable.begin(), cacheable.end());
    degenerate = std::adjacent_find(cacheable.begin(), cacheable.end()) !=
                 cacheable.end();
  }
  if (primed && !degenerate) {
    broken |= cache_->fold_pair_masks(
        cacheable,
        [&](std::size_t i, std::size_t j) {
          // Pool indices ascend with keys, so (i, j) is already (lo, hi).
          const std::uint64_t pair_mask =
              pair_interference_mask(cache_->pool_key(i),
                                     cache_->pool_key(j));
          return OracleCache::encode_pair(
              pair_mask != 0,
              static_cast<std::uint32_t>(std::countr_zero(
                  pair_mask | (std::uint64_t{1} << 63))));
        },
        pair_hits, pair_misses);
    // Pairs with at least one non-cacheable member.
    for (std::size_t a = 0; a < rest.size(); ++a) {
      const std::uint64_t key_a = patch[rest[a]].key();
      for (const std::size_t i : cacheable) {
        std::uint64_t lo = key_a;
        std::uint64_t hi = cache_->pool_key(i);
        if (hi < lo) std::swap(lo, hi);
        broken |= pair_interference_mask(lo, hi);
      }
      for (std::size_t b = a + 1; b < rest.size(); ++b) {
        std::uint64_t lo = key_a;
        std::uint64_t hi = patch[rest[b]].key();
        if (hi < lo) std::swap(lo, hi);
        broken |= pair_interference_mask(lo, hi);
      }
    }
  } else {
    for (std::size_t i = 0; i < patch.size(); ++i) {
      if (!safe[i]) continue;
      for (std::size_t j = i + 1; j < patch.size(); ++j) {
        if (!safe[j]) continue;
        std::uint64_t lo = patch[i].key();
        std::uint64_t hi = patch[j].key();
        if (hi < lo) std::swap(lo, hi);
        broken |= pair_interference_mask(lo, hi);
      }
    }
  }
  if (cache_ && (pair_hits || pair_misses)) {
    if (pair_hits) pair_hits_->add(pair_hits);
    if (pair_misses) pair_misses_->add(pair_misses);
  }

  Evaluation result;
  result.required_total = required_tests_;
  result.required_passed =
      required_tests_ - static_cast<std::uint32_t>(std::popcount(broken));
  result.bug_test_passed =
      relevant >= spec.min_repair_edits && spec.min_repair_edits > 0;
  return result;
}

Evaluation TestOracle::evaluate_pooled(
    std::span<const std::uint32_t> pool_indices) const {
  suite_runs_.fetch_add(1, std::memory_order_relaxed);
  const auto& spec = program_->spec();
  const OracleCache::WaveTable& wave = cache_->wave();

  // The patch as a pool-membership bitset: every pass below runs word by
  // word against the table's bitsets, so its cost follows bitset words
  // and the rows of interfering members, not the partner edges of the
  // whole patch.  All integer ops — bit-identical to the member loop of
  // evaluate() by construction.
  thread_local std::vector<std::uint64_t> member_words;
  const std::size_t words = wave.unsafe_words.size();
  member_words.assign(words, 0);
  for (const std::uint32_t i : pool_indices) {
    member_words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  const std::uint64_t* member = member_words.data();

  // Safe and relevant counts are popcounts; per-member breakage ORs in
  // only the unsafe members' masks (a safe member's mask is 0).
  std::size_t n_safe = 0;
  std::size_t relevant = 0;
  std::uint64_t broken = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t unsafe = wave.unsafe_words[w] & member[w];
    n_safe += static_cast<std::size_t>(std::popcount(member[w] & ~unsafe));
    relevant += static_cast<std::size_t>(
        std::popcount(wave.relevant_words[w] & member[w]));
    for (std::uint64_t bits = unsafe; bits != 0; bits &= bits - 1) {
      broken |= wave.masks[(w << 6) | std::countr_zero(bits)];
    }
  }

  // Pairwise interference: walk the partner row of each member that has
  // one, ORing the masks of partners also in the patch (a branch-free
  // select per edge).  `broken` only ever gains bits below T, so a row
  // whose masks are all already broken cannot change the result and is
  // skipped, and once every test is broken the pass stops: neither
  // shortcut can move required_passed.
  for (std::size_t w = 0; w < words && broken != wave.full_mask; ++w) {
    for (std::uint64_t bits = wave.pair_words[w] & member[w]; bits != 0;
         bits &= bits - 1) {
      const std::size_t i = (w << 6) | std::countr_zero(bits);
      if ((wave.row_masks[i] & ~broken) == 0) continue;
      const std::uint32_t end = wave.partner_offsets[i + 1];
      for (std::uint32_t o = wave.partner_offsets[i]; o < end; ++o) {
        const std::uint32_t j = wave.partner_idx[o];
        const std::uint64_t in_patch = (member[j >> 6] >> (j & 63)) & 1;
        broken |= wave.partner_masks[o] & (std::uint64_t{0} - in_patch);
      }
      if (broken == wave.full_mask) break;
    }
  }

  // Book the exact cache traffic a fully warm evaluate() of this patch
  // would: one mask hit per member, one pair hit per safe pair.
  mask_hits_->add(pool_indices.size());
  if (n_safe >= 2) pair_hits_->add(n_safe * (n_safe - 1) / 2);

  Evaluation result;
  result.required_total = required_tests_;
  result.required_passed =
      required_tests_ - static_cast<std::uint32_t>(std::popcount(broken));
  result.bug_test_passed =
      relevant >= spec.min_repair_edits && spec.min_repair_edits > 0;
  return result;
}

void TestOracle::prime_wave(std::span<const Mutation> pool) const {
  if (!cache_ || pool.empty()) return;
  prime_cache(pool);
  if (cache_->wave_ready()) return;  // same pool: prime_cache kept the wave.
  if (pool.size() > OracleCache::kMaxPairDimension) return;
  const auto& spec = program_->spec();
  const std::size_t n = pool.size();
  const std::size_t words = (n + 63) / 64;
  OracleCache::WaveTable wave;
  wave.pool.assign(pool.begin(), pool.end());
  wave.masks.resize(n);
  wave.unsafe_words.assign(words, 0);
  wave.relevant_words.assign(words, 0);
  wave.pair_words.assign(words, 0);
  wave.full_mask = ~std::uint64_t{0} >> (64 - required_tests_);
  for (std::size_t i = 0; i < n; ++i) {
    const MutationSemantics& s = cache_->pooled(i);
    wave.masks[i] = s.broken_mask;
    if (s.broken_mask != 0) {
      wave.unsafe_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    } else if (s.relevance_hash_pass &&
               (!spec.relevance_localized ||
                failing_test_covers(spec, pool[i].target))) {
      wave.relevant_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  // Every interference hash the pooled scenario can charge, paid once:
  // C(n_safe, 2) hashes here amortize over thousands of per-probe pair
  // loops.  Row a of the CSR lists only the partners b > a: the pair pass
  // visits rows in ascending order, so it meets a pair at its lower
  // member's row first, and a second visit could only re-OR a mask that
  // is already in.  Pool indices ascend with keys, so (a, b) is already
  // (lo, hi).
  wave.partner_offsets.assign(n + 1, 0);
  wave.row_masks.assign(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n && wave.masks[a] == 0; ++b) {
      if (wave.masks[b] != 0) continue;
      const std::uint64_t mask =
          pair_interference_mask(cache_->pool_key(a), cache_->pool_key(b));
      if (mask == 0) continue;
      wave.partner_idx.push_back(static_cast<std::uint32_t>(b));
      wave.partner_masks.push_back(mask);
      wave.row_masks[a] |= mask;
    }
    wave.partner_offsets[a + 1] =
        static_cast<std::uint32_t>(wave.partner_idx.size());
    if (wave.row_masks[a] != 0) {
      wave.pair_words[a >> 6] |= std::uint64_t{1} << (a & 63);
    }
  }
  cache_->install_wave(std::move(wave));
}

void TestOracle::prime_cache(std::span<const Mutation> pool) const {
  if (!cache_ || pool.empty()) return;
  std::vector<std::uint64_t> keys;
  keys.reserve(pool.size());
  for (const Mutation& m : pool) {
    keys.push_back(m.key());
    // Pools are sorted by key and deduplicated (MutationPool invariant);
    // verify monotonicity cheaply so a malformed span cannot corrupt the
    // binary-search fast path.
    if (keys.size() > 1 && keys[keys.size() - 2] >= keys.back()) {
      throw std::invalid_argument(
          "TestOracle::prime_cache: pool must be key-sorted and unique");
    }
  }
  if (cache_->primed_with(keys)) return;
  std::vector<MutationSemantics> semantics;
  semantics.reserve(pool.size());
  for (const Mutation& m : pool) semantics.push_back(compute_semantics(m));
  cache_->prime(std::move(keys), std::move(semantics));
}

}  // namespace mwr::apr
