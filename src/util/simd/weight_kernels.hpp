// Structure-of-arrays weight kernels — the vectorized hot loop under every
// MWU learner (DESIGN.md §12).
//
// The per-arm learner state (weights, reward counts, probabilities) lives in
// contiguous double arrays; these kernels are the only code that walks them
// on the per-cycle path.  Two implementations exist: a portable scalar one
// and an AVX2 one (weight_kernels_avx2.cpp, compiled with -mavx2 in its own
// TU), selected once per process by runtime dispatch (cpuid).  The pair is
// **bit-identical by contract**:
//
//  - Elementwise kernels (scale_divide, materialize_*) perform exactly one
//    IEEE-754 operation sequence per element — multiply, divide, add, in a
//    fixed order with FMA contraction disabled — so lane width cannot change
//    any result bit.
//  - max_reduce / argmax exploit that max() is exactly associative and
//    commutative over non-NaN doubles; argmax preserves std::max_element's
//    first-occurrence tie-breaking (lane-local strictly-greater updates,
//    lowest index among lanes at the global maximum).
//  - pow_update / exp_update vectorize only the search for active entries
//    (exponent > 0); the transcendental itself is the same libm call on
//    both paths, so every multiplication is identical.
//  - sum_seq / normalize_sum keep the historical strict left-to-right
//    fold: THE reduction-order contract.  Reassociating the sum (lane
//    partials) would perturb normalization totals by ulps and with them
//    every downstream probability and draw; these two therefore share one
//    scalar definition across dispatch and are bit-identical by
//    construction.  The throughput win comes from the passes that can
//    vectorize without reordering arithmetic.
//
// Dispatch: AVX2 when the CPU reports it, unless MWR_FORCE_SCALAR is set in
// the environment (any value except "0" / empty) or a tool passed
// --force-scalar.  Tests flip dispatch at runtime via
// force_scalar_for_testing() to pin scalar<->AVX2 trajectory identity.
//
// Direct intrinsics use outside src/util/simd/ is banned by the raw-simd
// lint rule (tools/mwr_lint.py), mirroring raw-ipc: every SIMD loop must
// live behind this dispatch seam so the bit-identity contract stays
// auditable in one place.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mwr::util::simd {

/// The dispatch table: one function pointer per kernel.  All pointers are
/// always non-null.  `n` may be 0 for every kernel except max_reduce and
/// argmax, which require n >= 1.
struct WeightKernels {
  /// w[i] *= pow(base, exps[i]) for every i with exps[i] > 0.
  void (*pow_update)(double* w, const double* exps, std::size_t n,
                     double base);
  /// w[i] *= exp(exps[i]) for every i with exps[i] > 0.
  void (*exp_update)(double* w, const double* exps, std::size_t n);
  /// Maximum element value (n >= 1; no NaNs).
  double (*max_reduce)(const double* w, std::size_t n);
  /// Index of the first maximum element — std::max_element semantics
  /// (n >= 1; no NaNs).
  std::size_t (*argmax)(const double* w, std::size_t n);
  /// w[i] /= divisor.
  void (*scale_divide)(double* w, std::size_t n, double divisor);
  /// dst[i] = scale * src[i] / denom + shift, evaluated in exactly that
  /// order with no FMA contraction.
  void (*materialize_affine)(double* dst, const double* src, std::size_t n,
                             double scale, double denom, double shift);
  /// dst[i] = double(src[i]) / denom.  Counts must be < 2^31 (the widening
  /// conversion is exact; the signed-lane AVX2 convert requires the bound).
  void (*materialize_counts)(double* dst, const std::uint32_t* src,
                             std::size_t n, double denom);
  /// The fused renormalize → Fenwick-rebuild pass: divides w by `divisor`
  /// in place (skipped exactly when divisor == 1.0), rebuilds the 1-based
  /// Fenwick tree (`tree` must hold n + 1 doubles; prior contents ignored)
  /// with the canonical linear construction order, and returns the strict
  /// left-to-right total of the divided weights.  Only the divide is
  /// lane-parallel; every tree and total add runs the same scalar sequence
  /// on both dispatches, so tree node values, the total, and with them all
  /// Fenwick draws are bit-identical to the unfused historical pass.
  double (*fenwick_rebuild)(double* w, double* tree, std::size_t n,
                            double divisor);
  /// Implementation name, for telemetry: "scalar" or "avx2".
  const char* name;
};

/// The active dispatch table (resolved once, overridable for tests).
[[nodiscard]] const WeightKernels& active() noexcept;

/// Strict left-to-right sum — the canonical reduction order.  Shared scalar
/// code on every dispatch (see the header comment for why).
[[nodiscard]] double sum_seq(const double* w, std::size_t n) noexcept;

/// Fused renormalization: w[i] /= divisor, returning the strict
/// left-to-right sum of the divided values.  Shared scalar code on every
/// dispatch — the fold is the reduction-order contract.
double normalize_sum(double* w, std::size_t n, double divisor) noexcept;

/// True when the CPU supports AVX2 and the AVX2 TU was compiled in.
[[nodiscard]] bool avx2_available() noexcept;

/// What --version reports: "avx2", "scalar", or "scalar (forced)".
[[nodiscard]] const char* dispatch_name() noexcept;

/// Re-resolves dispatch with scalar forced on/off.  Test hook — the
/// cross-dispatch bit-identity suites flip this between runs; production
/// code uses the MWR_FORCE_SCALAR environment variable instead.
void force_scalar_for_testing(bool force) noexcept;

/// The AVX2 table, or nullptr when the TU was built without AVX2 support.
/// Internal seam between the two translation units.
[[nodiscard]] const WeightKernels* avx2_kernels() noexcept;

namespace detail {

/// The one shared materialize_affine body: dst[i] = scale*src[i]/denom +
/// shift, one IEEE op sequence per element.  The pass is divide-bound —
/// vdivpd's reciprocal throughput dominates whatever lane-parallelism
/// buys — so both dispatch tables point here and the bench's
/// kernel_materialize row honestly reports ~1.0x instead of advertising a
/// vectorization that measured 0.99x.
inline void materialize_affine_portable(double* dst, const double* src,
                                        std::size_t n, double scale,
                                        double denom, double shift) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = (scale * src[i]) / denom + shift;
  }
}

/// Single-source Fenwick construction shared by both dispatch TUs (each
/// instantiates it with its own 4-wide divide; that divide is the only
/// lane-parallel step).  The bottom two tree levels are register-blocked:
/// odd nodes and lsb-2 nodes are pure functions of their 4-element block,
/// so only the lsb>=4 node per block touches memory it did not just write —
/// this removes the store-to-load-forwarding chain of the one-node-at-a-time
/// build while performing the same additions in the same order.  The total
/// is the strict left-to-right fold (the reduction-order contract).
template <typename Div4>
inline double fenwick_rebuild_impl(double* w, double* tree, std::size_t n,
                                   double divisor, Div4&& div4) {
  tree[0] = 0.0;
  // Only nodes with lsb >= 4 (1-based index divisible by 4) accumulate
  // pushes from earlier blocks; they and the sub-block tail are the only
  // slots that need pre-zeroing.  Everything else is stored outright.
  for (std::size_t i = 4; i <= n; i += 4) tree[i] = 0.0;
  const std::size_t nblk = n & ~std::size_t{3};
  for (std::size_t i = nblk + 1; i <= n; ++i) tree[i] = 0.0;
  const bool divide = divisor != 1.0;
  double total = 0.0;
  std::size_t b = 1;
  for (; b + 3 <= n; b += 4) {
    double* wp = w + (b - 1);
    if (divide) div4(wp, divisor);
    const double w0 = wp[0];
    const double w1 = wp[1];
    const double w2 = wp[2];
    const double w3 = wp[3];
    const double t1 = w0;
    const double t2 = t1 + w1;
    const double t3 = w2;
    const double t4 = ((tree[b + 3] + t2) + t3) + w3;
    tree[b] = t1;
    tree[b + 1] = t2;
    tree[b + 2] = t3;
    tree[b + 3] = t4;
    const std::size_t node = b + 3;
    const std::size_t parent = node + (node & (~node + 1));
    if (parent <= n) tree[parent] += t4;
    total = (((total + w0) + w1) + w2) + w3;
  }
  // Tail (< 4 elements): the historical one-node-at-a-time construction.
  for (std::size_t i = b; i <= n; ++i) {
    if (divide) w[i - 1] /= divisor;
    tree[i] += w[i - 1];
    const std::size_t parent = i + (i & (~i + 1));
    if (parent <= n) tree[parent] += tree[i];
    total += w[i - 1];
  }
  return total;
}

}  // namespace detail

}  // namespace mwr::util::simd
