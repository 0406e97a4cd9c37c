#include "apr/test_oracle.hpp"

#include "apr/fault_localization.hpp"

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

TestOracle::TestOracle(const ProgramModel& program)
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
}

bool TestOracle::is_safe(const Mutation& m) const {
  return broken_mask_single(m) == 0;
}

bool TestOracle::is_repair_relevant(const Mutation& m) const {
  return is_safe(m) && relevant_if_safe(m);
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

bool TestOracle::relevant_if_safe(const Mutation& m) const {
  const auto& spec = program_->spec();
  // The coverage predicate depends on the concrete target statement (a
  // swap's key orders its operands), so two orientations of one swap key
  // can differ here.
  if (spec.relevance_localized && !failing_test_covers(spec, m.target))
    return false;
  return hash_to_unit(stable_hash(spec.seed, kRepairDomain ^ (spec.bug_id << 8),
                                  m.key())) < relevance_rate_;
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

  // Per-mutation breakage and relevance, then pairwise interference among
  // the safe members (Fig 4a's mechanism).  Per-thread scratch: the
  // baselines call this from the probe thread pool millions of times.
  thread_local std::vector<std::uint64_t> safe_keys;
  safe_keys.clear();
  std::uint64_t broken = 0;
  std::size_t relevant = 0;
  for (const Mutation& m : patch) {
    const std::uint64_t mask = broken_mask_single(m);
    broken |= mask;
    if (mask != 0) continue;
    safe_keys.push_back(m.key());
    if (relevant_if_safe(m)) ++relevant;
  }
  for (std::size_t a = 0; a < safe_keys.size(); ++a) {
    for (std::size_t b = a + 1; b < safe_keys.size(); ++b) {
      broken |= pair_interference_mask(std::min(safe_keys[a], safe_keys[b]),
                                       std::max(safe_keys[a], safe_keys[b]));
    }
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
  const WaveTable& wave = wave_;

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

  // The relevant count is a popcount; per-member breakage ORs in only the
  // unsafe members' masks (a safe member's mask is 0).
  std::size_t relevant = 0;
  std::uint64_t broken = 0;
  for (std::size_t w = 0; w < words; ++w) {
    relevant += static_cast<std::size_t>(
        std::popcount(wave.relevant_words[w] & member[w]));
    for (std::uint64_t bits = wave.unsafe_words[w] & member[w]; bits != 0;
         bits &= bits - 1) {
      broken |= wave.masks[(w << 6) | std::countr_zero(bits)];
    }
  }

  // Pairwise interference.  `broken` only ever gains bits below T, so once
  // every test is broken neither pass can move required_passed and both
  // stop early.
  if (wave.pool.size() <= kMaxPairDimension) {
    // Walk the partner row of each member that has one, ORing the masks
    // of partners also in the patch (a branch-free select per edge); a row
    // whose masks are all already broken is skipped.
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
  } else {
    // No CSR: hash the safe members' pairs directly.  Ascending pool
    // indices are ascending keys, so each pair is already (lo, hi).
    thread_local std::vector<std::uint64_t> safe_keys;
    safe_keys.clear();
    for (const std::uint32_t i : pool_indices) {
      if (wave.masks[i] == 0) safe_keys.push_back(wave.pool[i].key());
    }
    for (std::size_t a = 0; a < safe_keys.size() && broken != wave.full_mask;
         ++a) {
      for (std::size_t b = a + 1; b < safe_keys.size(); ++b) {
        broken |= pair_interference_mask(safe_keys[a], safe_keys[b]);
      }
    }
  }

  Evaluation result;
  result.required_total = required_tests_;
  result.required_passed =
      required_tests_ - static_cast<std::uint32_t>(std::popcount(broken));
  result.bug_test_passed =
      relevant >= spec.min_repair_edits && spec.min_repair_edits > 0;
  return result;
}

void TestOracle::prime_wave(std::span<const Mutation> pool) const {
  for (std::size_t i = 1; i < pool.size(); ++i) {
    // Pool order must be key order: the CSR and the direct pair pass both
    // read ascending indices as (lo, hi) keys.
    if (pool[i - 1].key() >= pool[i].key()) {
      throw std::invalid_argument(
          "TestOracle::prime_wave: pool must be key-sorted and unique");
    }
  }
  if (wave_ready() && std::equal(pool.begin(), pool.end(), wave_.pool.begin(),
                                 wave_.pool.end())) {
    return;
  }
  wave_ready_.store(false, std::memory_order_release);
  const std::size_t n = pool.size();
  const std::size_t words = (n + 63) / 64;
  WaveTable wave;
  wave.pool.assign(pool.begin(), pool.end());
  wave.masks.resize(n);
  wave.unsafe_words.assign(words, 0);
  wave.relevant_words.assign(words, 0);
  wave.full_mask = ~std::uint64_t{0} >> (64 - required_tests_);
  for (std::size_t i = 0; i < n; ++i) {
    wave.masks[i] = broken_mask_single(pool[i]);
    if (wave.masks[i] != 0) {
      wave.unsafe_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    } else if (relevant_if_safe(pool[i])) {
      wave.relevant_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  if (n <= kMaxPairDimension) {
    // Every interference hash the pooled scenario can charge, paid once:
    // C(n_safe, 2) hashes here amortize over thousands of per-probe pair
    // loops.  Row a of the CSR lists only the partners b > a: the pair
    // pass visits rows in ascending order, so it meets a pair at its lower
    // member's row first, and a second visit could only re-OR a mask that
    // is already in.
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = pool[i].key();
    wave.pair_words.assign(words, 0);
    wave.partner_offsets.assign(n + 1, 0);
    wave.row_masks.assign(n, 0);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n && wave.masks[a] == 0; ++b) {
        if (wave.masks[b] != 0) continue;
        const std::uint64_t mask = pair_interference_mask(keys[a], keys[b]);
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
  }
  wave_ = std::move(wave);
  wave_ready_.store(true, std::memory_order_release);
}

}  // namespace mwr::apr
