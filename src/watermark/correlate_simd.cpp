// The vectorized despread lane: multi-accumulator, multi-offset-blocked
// scan (CorrelationKernel::scan_simd / despread_simd).
//
// Why the scalar lane is slow: seq_correlate keeps ONE accumulator
// chain per statistic, so every element's add depends on the previous
// one — the loop is bound by FP-add latency (~4 cycles), not by FMA
// throughput (~0.5 cycles).  That single-chain discipline is exactly
// what buys the scalar lane its bit-identity contract, so it stays; the
// SIMD lane trades the contract for the hardware:
//
//   * 4-offset lane blocking (AVX2): offsets off..off+3 are scored
//     together.  Window element i of lane k is x[off + k + i], so ONE
//     unaligned 32-byte load at x + off + i feeds all four lanes — the
//     overlapping windows that make the naive scan O(k·n) are what make
//     the blocked scan nearly free of extra memory traffic (the loads
//     hit L1, shifted by one element per lane).
//   * 4-deep unroll per statistic: accumulator registers j = i mod 4
//     give 4 independent vector chains (= 4 chains per offset for the
//     blocked scan, 16 scalar chains for the single-window despread),
//     enough to cover the FMA latency×throughput product on any recent
//     x86.  The chip factor is a broadcast from the kernel's 64-byte-
//     aligned chip lane (util::Arena::allocate_aligned), so the only
//     unaligned traffic is the rate series itself.
//   * reduction order is FIXED (chain 0+1, 2+3, then pairwise; lane 0
//     through 3 in order): the lane is deterministic for a given build
//     and host — it differs from the scalar oracle, but never from
//     itself.  Tests and A-SIMD pin verdict identity against the scalar
//     lane and bound the correlation's ULP distance by kSimdMaxUlp.
//
// Compile-time gate: the file is always built, but the vector body is
// compiled only when the build sets LEXFOR_SIMD (CMake option) AND the
// translation unit has AVX2+FMA available (CMake adds -mavx2 -mfma to
// this file alone when the compiler supports them — the rest of the
// codebase keeps the portable baseline ISA).  Runtime gate:
// __builtin_cpu_supports, checked once; without it scan_simd forwards
// to the scalar scan, so a binary built here still runs anywhere.

#include "watermark/correlate.h"

#include <cmath>

#include "obs/obs.h"

#if defined(LEXFOR_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define LEXFOR_SIMD_AVX2 1
#include <immintrin.h>
#else
#define LEXFOR_SIMD_AVX2 0
#endif

namespace lexfor::watermark {
namespace {

#if LEXFOR_SIMD_AVX2

bool runtime_cpu_ok() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

// Horizontal sum of one __m256d in fixed lane order 0..3 (determinism
// within the lane, not identity with the scalar chain).
inline double hsum_ordered(__m256d v) noexcept {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

// Scores FOUR consecutive offsets in one sweep: out[k] is the
// normalized mean-removed despread of x[off+k .. off+k+n) against
// chips[0..n), for k = 0..3, where x already points at offset `off`.
inline void despread4_avx2(const double* x, const double* chips,
                           std::size_t n, double out[4]) noexcept {
  const __m256d zero = _mm256_setzero_pd();

  // Pass 1 — window sums.  Lane k of loadu(x + i) is x[i + k], so the
  // accumulators build the four shifted window sums simultaneously;
  // 4 chains (j = i mod 4) break the add-latency dependency.
  __m256d s0 = zero, s1 = zero, s2 = zero, s3 = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 = _mm256_add_pd(s0, _mm256_loadu_pd(x + i));
    s1 = _mm256_add_pd(s1, _mm256_loadu_pd(x + i + 1));
    s2 = _mm256_add_pd(s2, _mm256_loadu_pd(x + i + 2));
    s3 = _mm256_add_pd(s3, _mm256_loadu_pd(x + i + 3));
  }
  __m256d sum = _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3));
  for (; i < n; ++i) sum = _mm256_add_pd(sum, _mm256_loadu_pd(x + i));

  const __m256d n_v = _mm256_set1_pd(static_cast<double>(n));
  const __m256d mean = _mm256_div_pd(sum, n_v);

  // Pass 2 — fused mean-removed correlate: num/denom, 4 chains each.
  __m256d num0 = zero, num1 = zero, num2 = zero, num3 = zero;
  __m256d den0 = zero, den1 = zero, den2 = zero, den3 = zero;
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d c0 = _mm256_broadcast_sd(chips + i);
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(x + i), mean);
    num0 = _mm256_fmadd_pd(d0, c0, num0);
    den0 = _mm256_fmadd_pd(d0, d0, den0);
    const __m256d c1 = _mm256_broadcast_sd(chips + i + 1);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 1), mean);
    num1 = _mm256_fmadd_pd(d1, c1, num1);
    den1 = _mm256_fmadd_pd(d1, d1, den1);
    const __m256d c2 = _mm256_broadcast_sd(chips + i + 2);
    const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 2), mean);
    num2 = _mm256_fmadd_pd(d2, c2, num2);
    den2 = _mm256_fmadd_pd(d2, d2, den2);
    const __m256d c3 = _mm256_broadcast_sd(chips + i + 3);
    const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 3), mean);
    num3 = _mm256_fmadd_pd(d3, c3, num3);
    den3 = _mm256_fmadd_pd(d3, d3, den3);
  }
  __m256d num =
      _mm256_add_pd(_mm256_add_pd(num0, num1), _mm256_add_pd(num2, num3));
  __m256d den =
      _mm256_add_pd(_mm256_add_pd(den0, den1), _mm256_add_pd(den2, den3));
  for (; i < n; ++i) {
    const __m256d c = _mm256_broadcast_sd(chips + i);
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mean);
    num = _mm256_fmadd_pd(d, c, num);
    den = _mm256_fmadd_pd(d, d, den);
  }

  // corr = num / sqrt(den·n); a flat window (den <= 0) scores 0, same
  // boundary the scalar lane applies.  sqrt of a negative lane yields
  // NaN, which the mask then zeroes.
  const __m256d corr =
      _mm256_div_pd(num, _mm256_sqrt_pd(_mm256_mul_pd(den, n_v)));
  const __m256d keep = _mm256_cmp_pd(den, zero, _CMP_GT_OQ);
  _mm256_storeu_pd(out, _mm256_and_pd(corr, keep));
}

// Single-window despread, vectorized across the window: 4 vector
// chains = 16 scalar chains per statistic, reduced in fixed order.
inline double despread1_avx2(const double* x, const double* chips,
                             std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  __m256d s0 = zero, s1 = zero, s2 = zero, s3 = zero;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 = _mm256_add_pd(s0, _mm256_loadu_pd(x + i));
    s1 = _mm256_add_pd(s1, _mm256_loadu_pd(x + i + 4));
    s2 = _mm256_add_pd(s2, _mm256_loadu_pd(x + i + 8));
    s3 = _mm256_add_pd(s3, _mm256_loadu_pd(x + i + 12));
  }
  __m256d sum_v = _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3));
  for (; i + 4 <= n; i += 4) {
    sum_v = _mm256_add_pd(sum_v, _mm256_loadu_pd(x + i));
  }
  double sum = hsum_ordered(sum_v);
  for (; i < n; ++i) sum += x[i];
  const double mean = sum / static_cast<double>(n);

  const __m256d mean_v = _mm256_set1_pd(mean);
  __m256d num0 = zero, num1 = zero, num2 = zero, num3 = zero;
  __m256d den0 = zero, den1 = zero, den2 = zero, den3 = zero;
  i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(x + i), mean_v);
    num0 = _mm256_fmadd_pd(d0, _mm256_loadu_pd(chips + i), num0);
    den0 = _mm256_fmadd_pd(d0, d0, den0);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), mean_v);
    num1 = _mm256_fmadd_pd(d1, _mm256_loadu_pd(chips + i + 4), num1);
    den1 = _mm256_fmadd_pd(d1, d1, den1);
    const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 8), mean_v);
    num2 = _mm256_fmadd_pd(d2, _mm256_loadu_pd(chips + i + 8), num2);
    den2 = _mm256_fmadd_pd(d2, d2, den2);
    const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 12), mean_v);
    num3 = _mm256_fmadd_pd(d3, _mm256_loadu_pd(chips + i + 12), num3);
    den3 = _mm256_fmadd_pd(d3, d3, den3);
  }
  __m256d num_v =
      _mm256_add_pd(_mm256_add_pd(num0, num1), _mm256_add_pd(num2, num3));
  __m256d den_v =
      _mm256_add_pd(_mm256_add_pd(den0, den1), _mm256_add_pd(den2, den3));
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mean_v);
    num_v = _mm256_fmadd_pd(d, _mm256_loadu_pd(chips + i), num_v);
    den_v = _mm256_fmadd_pd(d, d, den_v);
  }
  double num = hsum_ordered(num_v);
  double den = hsum_ordered(den_v);
  for (; i < n; ++i) {
    const double d = x[i] - mean;
    num += d * chips[i];
    den += d * d;
  }
  if (den <= 0.0) return 0.0;
  return num / std::sqrt(den * static_cast<double>(n));
}

#endif  // LEXFOR_SIMD_AVX2

}  // namespace

bool CorrelationKernel::simd_lane_available() noexcept {
#if LEXFOR_SIMD_AVX2
  return runtime_cpu_ok();
#else
  return false;
#endif
}

double CorrelationKernel::despread_simd(const double* x,
                                        std::size_t code_begin,
                                        std::size_t len) const noexcept {
#if LEXFOR_SIMD_AVX2
  if (runtime_cpu_ok()) {
    // chips_aligned_ is 64-byte aligned; code_begin (multibit segments)
    // may start mid-cache-line, so chip loads use loadu instructions —
    // free on aligned addresses, correct on segment starts.  Never
    // despread4 here: its shifted loads read up to 3 doubles past a
    // single window.
    return despread1_avx2(x, chips_aligned_ + code_begin, len);
  }
#endif
  return despread(x, code_begin, len);
}

Result<ScanResult> CorrelationKernel::scan_simd(std::span<const double> rates,
                                                std::size_t max_offset,
                                                std::size_t code_begin,
                                                std::size_t code_length) const {
#if LEXFOR_SIMD_AVX2
  if (!runtime_cpu_ok()) return scan(rates, max_offset, code_begin, code_length);
  // The same validation and threshold as scan(): the SIMD lane
  // reassociates scores, never the checks or the decision rule.
  auto plan_r = plan_scan(rates.size(), max_offset, code_begin, code_length);
  if (!plan_r.ok()) return plan_r.status();
  const ScanPlan& plan = plan_r.value();

  LEXFOR_OBS_PROFILE("watermark.kernel.scan_simd");

  ScanResult best;
  best.best.correlation = -2.0;
  best.best.threshold = plan.threshold;
  const double* x = rates.data();
  const double* chips = chips_aligned_ + code_begin;
  std::size_t off = 0;
  double lane[4];
  for (; off + 4 <= plan.last_offset + 1; off += 4) {
    despread4_avx2(x + off, chips, plan.n, lane);
    for (std::size_t k = 0; k < 4; ++k) {
      if (lane[k] > best.best.correlation) {  // strict >: earliest offset wins
        best.best.correlation = lane[k];
        best.offset = off + k;
      }
    }
  }
  for (; off <= plan.last_offset; ++off) {
    const double corr = despread_simd(x + off, code_begin, plan.n);
    if (corr > best.best.correlation) {
      best.best.correlation = corr;
      best.offset = off;
    }
  }
  best.best.detected = best.best.correlation > plan.threshold;
  return best;
#else
  return scan(rates, max_offset, code_begin, code_length);
#endif
}

}  // namespace lexfor::watermark
