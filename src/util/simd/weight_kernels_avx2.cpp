// AVX2 realization of the weight kernels.  This translation unit is the
// ONLY one compiled with -mavx2 (and the only place intrinsics are allowed
// — the raw-simd lint rule enforces it); when the toolchain or target
// cannot build AVX2 code, MWR_SIMD_AVX2 is left undefined and
// avx2_kernels() degrades to nullptr, leaving the scalar table active.
//
// Every kernel here is bit-identical to its scalar twin in
// weight_kernels.cpp — see the contract in weight_kernels.hpp.  The
// mechanism per kernel:
//   pow/exp_update    vector compare + movemask finds active lanes; the
//                     transcendental and the multiply stay scalar libm.
//   max_reduce        max is exactly associative/commutative (no NaNs), so
//                     lane-parallel maxpd folds to the same value.
//   argmax            exact max, then first element comparing equal to it
//                     == std::max_element's first occurrence (no NaNs).
//   scale_divide /    one IEEE op sequence per element (vdivpd, vmulpd,
//   materialize_*     vaddpd — never vfmadd), so lanes equal scalar ops.
//   fenwick_rebuild   shared scalar construction (detail::
//                     fenwick_rebuild_impl); only the 4-wide divide is
//                     vectorized.
#include "util/simd/weight_kernels.hpp"

#if defined(MWR_SIMD_AVX2)

#include <immintrin.h>

#include <cmath>

namespace mwr::util::simd {

namespace {

void avx2_pow_update(double* w, const double* exps, std::size_t n,
                     double base) {
  const __m256d zero = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d e = _mm256_loadu_pd(exps + i);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(e, zero, _CMP_GT_OQ));
    if (mask == 0) continue;
    for (int lane = 0; lane < 4; ++lane) {
      if (mask & (1 << lane)) {
        w[i + static_cast<std::size_t>(lane)] *=
            std::pow(base, exps[i + static_cast<std::size_t>(lane)]);
      }
    }
  }
  for (std::size_t i = n4; i < n; ++i) {
    if (exps[i] > 0.0) w[i] *= std::pow(base, exps[i]);
  }
}

void avx2_exp_update(double* w, const double* exps, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d e = _mm256_loadu_pd(exps + i);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(e, zero, _CMP_GT_OQ));
    if (mask == 0) continue;
    for (int lane = 0; lane < 4; ++lane) {
      if (mask & (1 << lane)) {
        w[i + static_cast<std::size_t>(lane)] *=
            std::exp(exps[i + static_cast<std::size_t>(lane)]);
      }
    }
  }
  for (std::size_t i = n4; i < n; ++i) {
    if (exps[i] > 0.0) w[i] *= std::exp(exps[i]);
  }
}

double avx2_max_reduce(const double* w, std::size_t n) {
  if (n < 16) {
    double m = w[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (w[i] > m) m = w[i];
    }
    return m;
  }
  // Two accumulator chains: max is exactly associative and commutative
  // over non-NaN doubles, so reassociating across chains cannot change
  // the result — it only halves the latency-bound dependency chain.
  __m256d acc0 = _mm256_loadu_pd(w);
  __m256d acc1 = _mm256_loadu_pd(w + 4);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 8; i < n8; i += 8) {
    acc0 = _mm256_max_pd(acc0, _mm256_loadu_pd(w + i));
    acc1 = _mm256_max_pd(acc1, _mm256_loadu_pd(w + i + 4));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_max_pd(acc0, acc1));
  double m = lanes[0];
  for (int lane = 1; lane < 4; ++lane) {
    if (lanes[lane] > m) m = lanes[lane];
  }
  for (std::size_t i = n8; i < n; ++i) {
    if (w[i] > m) m = w[i];
  }
  return m;
}

std::size_t avx2_argmax(const double* w, std::size_t n) {
  if (n < 8) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (w[i] > w[best]) best = i;
    }
    return best;
  }
  // Max first, then the first element equal to it.  For non-NaN input the
  // first equality hit is exactly std::max_element's first strictly-greater
  // occurrence, and two cheap passes beat one blendv-chained pass.
  const double m = avx2_max_reduce(w, n);
  const __m256d vm = _mm256_set1_pd(m);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(w + i), vm, _CMP_EQ_OQ));
    if (mask != 0) {
      return i +
             static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (std::size_t i = n4; i < n; ++i) {
    if (w[i] == m) return i;
  }
  return n - 1;  // unreachable for non-NaN input
}

void avx2_scale_divide(double* w, std::size_t n, double divisor) {
  const __m256d d = _mm256_set1_pd(divisor);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(w + i, _mm256_div_pd(_mm256_loadu_pd(w + i), d));
  }
  for (std::size_t i = n4; i < n; ++i) w[i] /= divisor;
}

// materialize_affine is divide-bound: the vdivpd version measured 0.99x
// against scalar, so the dispatch row routes to the shared portable body
// (detail::materialize_affine_portable) instead of pretending to vectorize.

void avx2_materialize_counts(double* dst, const std::uint32_t* src,
                             std::size_t n, double denom) {
  const __m256d vd = _mm256_set1_pd(denom);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128i counts = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_pd(dst + i,
                     _mm256_div_pd(_mm256_cvtepi32_pd(counts), vd));
  }
  for (std::size_t i = n4; i < n; ++i) {
    dst[i] = static_cast<double>(src[i]) / denom;
  }
}

double avx2_fenwick_rebuild(double* w, double* tree, std::size_t n,
                            double divisor) {
  return detail::fenwick_rebuild_impl(
      w, tree, n, divisor, [](double* wp, double d) {
        _mm256_storeu_pd(
            wp, _mm256_div_pd(_mm256_loadu_pd(wp), _mm256_set1_pd(d)));
      });
}

constexpr WeightKernels kAvx2Kernels = {
    avx2_pow_update,
    avx2_exp_update,
    avx2_max_reduce,
    avx2_argmax,
    avx2_scale_divide,
    detail::materialize_affine_portable,
    avx2_materialize_counts,
    avx2_fenwick_rebuild,
    "avx2",
};

}  // namespace

const WeightKernels* avx2_kernels() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  // Compiled-in support still needs the running CPU to report AVX2.
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &kAvx2Kernels : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace mwr::util::simd

#else  // !MWR_SIMD_AVX2

namespace mwr::util::simd {

const WeightKernels* avx2_kernels() noexcept { return nullptr; }

}  // namespace mwr::util::simd

#endif  // MWR_SIMD_AVX2
