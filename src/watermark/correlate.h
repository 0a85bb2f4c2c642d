// Sliding-window correlation kernel for DSSS watermark detection.
//
// The §IV.B traceback runs the matched filter against EVERY candidate
// flow an ISP vantage point observes, and alignment-free detection runs
// it at every candidate offset of every flow.  The original scan path
// copied the tail of the rate series into a fresh vector per offset and
// recomputed the statistics from scratch — O(k·n) flops buried under
// O(k·tail) copies and k heap allocations.  CorrelationKernel is the
// one scoring path: ScanBatch (scan_batch.h) fans its scans out across
// threads, stream::OnlineDespreader feeds it one bin at a time, and the
// multibit decoder scores code segments with it.
//
//   * the PN code is pre-converted once into a contiguous ±1.0 double
//     buffer, so the despread loop is a straight-line dot product with
//     no int8→double conversion per element;
//   * the per-offset mean/correlate passes are manually unrolled 4-wide
//     over that buffer, read the observed series in place through
//     std::span, and never allocate;
//   * per-offset work is exactly the two passes the aligned detector
//     does — nothing else.  No window copy, no obs emission inside the
//     loop.
//
// Bit-identity contract: detect(), scan() and despread() perform the
// SAME floating-point operations in the SAME order as the naive
// per-offset scan oracle (tests/oracles/naive_scan.h) and the historic
// multibit decoder loop.  The unrolling below keeps a single
// accumulator chain per statistic, so it reorders nothing.  We
// deliberately rejected a prefix-sum O(1)-per-offset formulation for
// the mean/denominator: differencing running sums reassociates the
// additions and breaks the bit-for-bit oracle test (and loses digits to
// cancellation on long series).  The measured win is in killing the
// per-offset copy/allocation, not the flops — see A-SCAN in
// EXPERIMENTS.md.
//
// The SIMD lane (scan_simd / despread_simd, correlate_simd.cpp) is the
// one deliberate exception to that contract, and a caller reaches it
// only by calling scan_simd by name.  It runs 4–8 independent
// accumulator chains per statistic (AVX2 4-lane registers × 4-deep
// unroll, multi-offset lane blocking in scan) over a 64-byte-aligned
// copy of the chip buffer, which REASSOCIATES the FP additions: scores
// differ from the scalar lane in the last bits.  Where the scalar lane
// rejects prefix sums outright, the SIMD lane is instead gated the way
// reassociation can be gated — the scalar path stays the oracle, and
// the lane ships only under (1) verdict identity (same best offset,
// same detected flag, bit-identical threshold) and (2) a measured
// max-ULP distance on the correlation, bounded by kSimdMaxUlp
// (rationale in DESIGN §15; measured values in EXPERIMENTS A-SIMD,
// orders of magnitude under the bound).  Callers that need
// courtroom-reproducible bits — everything that feeds an evidentiary
// record — use the scalar lane; the SIMD lane exists for wire-speed
// triage over thousands of candidate flows.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.h"
#include "util/status.h"
#include "watermark/pn_code.h"

namespace lexfor::watermark {

struct DetectionResult {
  double correlation = 0.0;  // normalized despread score in [-1, 1]
  double threshold = 0.0;    // decision threshold actually used
  bool detected = false;
};

struct ScanResult {
  DetectionResult best;
  std::size_t offset = 0;  // bin offset where the best despread occurred
};

// ULP distance between two finite doubles: how many representable
// values lie between them (0 = bit-identical).  The unit the SIMD
// lane's divergence from the scalar oracle is measured and gated in.
[[nodiscard]] std::uint64_t ulp_distance(double a, double b) noexcept;

class CorrelationKernel {
 public:
  // `threshold_sigmas`: decision threshold in units of the null-model
  // standard deviation 1/sqrt(N) (N = code length).  5 sigma keeps the
  // false-positive rate negligible for the code lengths used here.
  explicit CorrelationKernel(PnCode code, double threshold_sigmas = 5.0);

  // Copies rebuild the arena-backed aligned chip lane; moves are cheap
  // (the arena's chunks are pointer-stable, so chips_aligned_ survives).
  CorrelationKernel(const CorrelationKernel& other);
  CorrelationKernel& operator=(const CorrelationKernel& other);
  CorrelationKernel(CorrelationKernel&&) noexcept = default;
  CorrelationKernel& operator=(CorrelationKernel&&) noexcept = default;
  ~CorrelationKernel() = default;

  // Aligned detection over the full code: mean-removed matched filter
  // on rates[0..length).  Short series are an error; extra bins are
  // ignored.  Allocation-free.
  [[nodiscard]] Result<DetectionResult> detect(
      std::span<const double> rates) const;

  // Alignment-free detection: slides the code over offsets
  // [0, min(max_offset, rates.size() - n)] and returns the best
  // despread under a Bonferroni-inflated threshold (+sqrt(2 ln k)
  // sigma for k offsets).  Ties keep the earliest offset.
  //
  // `code_begin`/`code_length` select a sub-range of the code to
  // despread against (the multibit decoder scores chips
  // [i·L, (i+1)·L) per bit); code_length 0 means the full code.
  [[nodiscard]] Result<ScanResult> scan(std::span<const double> rates,
                                        std::size_t max_offset,
                                        std::size_t code_begin = 0,
                                        std::size_t code_length = 0) const;

  // The vectorized multi-accumulator scan lane: same arguments, same
  // threshold formula (scan_threshold through the same code path, so
  // the threshold is bit-identical), same earliest-offset tie-breaking
  // over ITS scores — but correlations are computed with 4–8
  // independent accumulator chains per offset and 4-offset lane
  // blocking, so they may differ from scan() by up to kSimdMaxUlp ULPs.
  // Falls back to the scalar scan when the lane is unavailable
  // (LEXFOR_SIMD=OFF build, or no AVX2/FMA at runtime), so callers may
  // call it unconditionally.  Never the default: see the header comment.
  [[nodiscard]] Result<ScanResult> scan_simd(std::span<const double> rates,
                                             std::size_t max_offset,
                                             std::size_t code_begin = 0,
                                             std::size_t code_length = 0) const;

  // Single-window SIMD despread (the scan_simd building block for tail
  // offsets and aligned detection).  Same caller contract as despread().
  [[nodiscard]] double despread_simd(const double* x, std::size_t code_begin,
                                     std::size_t len) const noexcept;

  // True when scan_simd actually runs vectorized on this build + host
  // (compile-time LEXFOR_SIMD option AND runtime CPU support); false
  // means scan_simd forwards to the scalar lane.
  [[nodiscard]] static bool simd_lane_available() noexcept;

  // Documented ceiling on the ULP distance between the SIMD and scalar
  // correlation for any single window.  Reassociating k chains over n
  // terms perturbs the despread numerator by O(eps·Σ|dᵢcᵢ|); divided by
  // the normalizer that is ~eps·√n/|corr| RELATIVE to the score, so the
  // ULP distance scales with 1/|corr| and √n — small scores cost ULPs
  // even though the absolute error stays ~1e-14.  2^26 (~1.5e-8
  // relative) covers degree-12 codes with scores down to ~1e-4 with two
  // orders of magnitude to spare; A-SIMD measures and reports the
  // actual maximum (typically < 2^20) and gates it against this bound.
  static constexpr std::uint64_t kSimdMaxUlp = std::uint64_t{1} << 26;

  // Segment despread primitive: the normalized, segment-mean-removed
  // correlation of x[0..len) against code chips
  // [code_begin, code_begin + len).  Returns 0.0 for a flat segment.
  // The caller guarantees code_begin + len <= length().  The window sum
  // adds x in index order, so stream::OnlineDespreader, which calls this
  // the moment a window's last bin arrives, scores bit-identically to
  // scan() over the same bins.
  [[nodiscard]] double despread(const double* x, std::size_t code_begin,
                                std::size_t len) const noexcept;

  // The Bonferroni-inflated decision threshold scan() applies when `k`
  // candidate offsets are tried over a despread window of
  // `code_length` chips (0 = the full code).  k = 1 reduces to the
  // aligned detect() threshold, bit for bit.  Exposed so the streaming
  // despreader applies the same formula through the same code path.
  [[nodiscard]] double scan_threshold(std::size_t k,
                                      std::size_t code_length = 0) const
      noexcept;

  // Normalized mean-removed cross-correlation of two equal-length series
  // (the Pearson coefficient): the passive flow-correlation baseline's
  // score, computed with the same sequential-order accumulation loops as
  // the despread above so the repo has exactly one scoring
  // implementation.  Bit-identical to the naive pearson loops kept as
  // the test oracle (tests/oracles/pearson.h).  Degenerate input —
  // mismatched lengths, fewer than two samples, zero variance — scores
  // 0.0.
  [[nodiscard]] static double cross_score(std::span<const double> a,
                                          std::span<const double> b) noexcept;

  [[nodiscard]] const PnCode& code() const noexcept { return code_; }
  [[nodiscard]] std::size_t length() const noexcept {
    return chips_f64_.size();
  }
  [[nodiscard]] double threshold_sigmas() const noexcept {
    return threshold_sigmas_;
  }

 private:
  // What a scan request resolves to once validated: despread length,
  // last candidate offset, and the Bonferroni threshold.  Both lanes
  // get it from plan_scan, so they check and decide identically.
  struct ScanPlan {
    std::size_t n = 0;
    std::size_t last_offset = 0;
    double threshold = 0.0;
  };
  [[nodiscard]] Result<ScanPlan> plan_scan(std::size_t series_length,
                                           std::size_t max_offset,
                                           std::size_t code_begin,
                                           std::size_t code_length) const;

  void build_aligned_lane();

  PnCode code_;
  std::vector<double> chips_f64_;  // code chips pre-converted to ±1.0
  double threshold_sigmas_;
  // 64-byte-aligned copy of chips_f64_ for the SIMD lane, carved from
  // the kernel's own arena via allocate_aligned so vector loads never
  // straddle a cache line.  The scalar lane keeps reading chips_f64_ —
  // its memory layout (and therefore its codegen) is untouched.
  util::Arena lane_arena_;
  double* chips_aligned_ = nullptr;
};

}  // namespace lexfor::watermark
