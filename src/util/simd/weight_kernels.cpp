#include "util/simd/weight_kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>

namespace mwr::util::simd {

namespace {

// --- scalar reference implementation ------------------------------------
// The AVX2 TU mirrors these element-for-element; see the header for the
// bit-identity contract each kernel upholds.

void scalar_pow_update(double* w, const double* exps, std::size_t n,
                       double base) {
  for (std::size_t i = 0; i < n; ++i) {
    if (exps[i] > 0.0) w[i] *= std::pow(base, exps[i]);
  }
}

void scalar_exp_update(double* w, const double* exps, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (exps[i] > 0.0) w[i] *= std::exp(exps[i]);
  }
}

double scalar_max_reduce(const double* w, std::size_t n) {
  double m = w[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (w[i] > m) m = w[i];
  }
  return m;
}

std::size_t scalar_argmax(const double* w, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (w[i] > w[best]) best = i;
  }
  return best;
}

void scalar_scale_divide(double* w, std::size_t n, double divisor) {
  for (std::size_t i = 0; i < n; ++i) w[i] /= divisor;
}

void scalar_materialize_counts(double* dst, const std::uint32_t* src,
                               std::size_t n, double denom) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(src[i]) / denom;
  }
}

double scalar_fenwick_rebuild(double* w, double* tree, std::size_t n,
                              double divisor) {
  return detail::fenwick_rebuild_impl(
      w, tree, n, divisor, [](double* wp, double d) {
        wp[0] /= d;
        wp[1] /= d;
        wp[2] /= d;
        wp[3] /= d;
      });
}

constexpr WeightKernels kScalarKernels = {
    scalar_pow_update,
    scalar_exp_update,
    scalar_max_reduce,
    scalar_argmax,
    scalar_scale_divide,
    detail::materialize_affine_portable,
    scalar_materialize_counts,
    scalar_fenwick_rebuild,
    "scalar",
};

// --- dispatch ------------------------------------------------------------

bool env_forces_scalar() {
  const char* env = std::getenv("MWR_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

enum class Mode : int { kAuto = 0, kForcedScalar = 1 };

std::atomic<int>& mode_flag() {
  static std::atomic<int> mode{
      static_cast<int>(env_forces_scalar() ? Mode::kForcedScalar
                                           : Mode::kAuto)};
  return mode;
}

const WeightKernels* resolve() {
  if (static_cast<Mode>(mode_flag().load(std::memory_order_acquire)) ==
      Mode::kForcedScalar) {
    return &kScalarKernels;
  }
  if (const WeightKernels* avx2 = avx2_kernels()) return avx2;
  return &kScalarKernels;
}

}  // namespace

const WeightKernels& active() noexcept { return *resolve(); }

double sum_seq(const double* w, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += w[i];
  return total;
}

double normalize_sum(double* w, std::size_t n, double divisor) noexcept {
  // One fused pass: the division pipelines under the add-latency chain, so
  // splitting this into a vector divide plus a second summing pass would be
  // slower, not faster — and the fold order is the bit-identity contract.
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] /= divisor;
    total += w[i];
  }
  return total;
}

bool avx2_available() noexcept { return avx2_kernels() != nullptr; }

const char* dispatch_name() noexcept {
  if (static_cast<Mode>(mode_flag().load(std::memory_order_acquire)) ==
      Mode::kForcedScalar) {
    return "scalar (forced)";
  }
  return active().name;
}

void force_scalar_for_testing(bool force) noexcept {
  mode_flag().store(static_cast<int>(force ? Mode::kForcedScalar
                                           : Mode::kAuto),
                    std::memory_order_release);
}

}  // namespace mwr::util::simd
