// CorrelationKernel bit-identity: the allocation-free scan must produce
// the EXACT bits the naive scan oracle produces — correlation,
// threshold, offset and decision — on randomized series, flat series,
// short-series errors, and the max_offset clamp edge.

#include "watermark/correlate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "oracles/naive_scan.h"
#include "oracles/pearson.h"
#include "util/rng.h"

namespace lexfor::watermark {
namespace {

void expect_bit_identical(const ScanResult& kernel, const ScanResult& ref) {
  EXPECT_EQ(kernel.offset, ref.offset);
  EXPECT_EQ(kernel.best.detected, ref.best.detected);
  // EXPECT_DOUBLE_EQ tolerates 4 ULPs; the contract is 0.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.best.correlation),
            std::bit_cast<std::uint64_t>(ref.best.correlation))
      << "correlation " << kernel.best.correlation << " vs "
      << ref.best.correlation;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.best.threshold),
            std::bit_cast<std::uint64_t>(ref.best.threshold))
      << "threshold " << kernel.best.threshold << " vs "
      << ref.best.threshold;
}

// The oracle scan under the kernel's own code and threshold.
Result<ScanResult> reference_scan(const CorrelationKernel& kernel,
                                  std::span<const double> rates,
                                  std::size_t max_offset) {
  return oracles::naive_scan(kernel.code(), kernel.threshold_sigmas(), rates,
                             max_offset);
}

std::vector<double> random_series(const PnCode& code, std::size_t offset,
                                  std::size_t tail, bool marked, double depth,
                                  double noise_sigma, Rng& rng) {
  std::vector<double> rates;
  rates.reserve(offset + code.length() + tail);
  for (std::size_t i = 0; i < offset; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  for (const auto c : code.chips()) {
    const double mark = marked ? 100.0 * depth * static_cast<double>(c) : 0.0;
    rates.push_back(100.0 + mark + rng.normal(0.0, noise_sigma));
  }
  for (std::size_t i = 0; i < tail; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  return rates;
}

TEST(CorrelationKernelTest, RandomizedScanMatchesReferenceBitForBit) {
  Rng rng{2026};
  for (int trial = 0; trial < 60; ++trial) {
    const int degree = 5 + static_cast<int>(rng.uniform(5));  // 5..9
    const auto code = PnCode::m_sequence(degree).value();
    const std::size_t offset = rng.uniform(40);
    const std::size_t tail = rng.uniform(30);
    const bool marked = rng.bernoulli(0.5);
    const double sigma = 1.0 + 30.0 * rng.uniform01();
    const auto rates =
        random_series(code, offset, tail, marked, 0.3, sigma, rng);
    const std::size_t max_offset = rng.uniform(80);

    const CorrelationKernel det(code);
    const auto kernel_r = det.scan(rates, max_offset);
    const auto ref_r = reference_scan(det, rates, max_offset);
    ASSERT_TRUE(kernel_r.ok());
    ASSERT_TRUE(ref_r.ok());
    expect_bit_identical(kernel_r.value(), ref_r.value());
  }
}

TEST(CorrelationKernelTest, FlatSeriesMatchesReference) {
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel det(code);
  const std::vector<double> flat(code.length() + 50, 42.0);
  const auto kernel_r = det.scan(flat, 20).value();
  const auto ref_r = reference_scan(det, flat, 20).value();
  expect_bit_identical(kernel_r, ref_r);
  EXPECT_DOUBLE_EQ(kernel_r.best.correlation, 0.0);
  EXPECT_FALSE(kernel_r.best.detected);
  EXPECT_EQ(kernel_r.offset, 0u);  // ties keep the earliest offset
}

TEST(CorrelationKernelTest, ShortSeriesErrorsMatchReference) {
  const auto code = PnCode::m_sequence(9).value();
  const CorrelationKernel det(code);
  const std::vector<double> short_series(code.length() - 1, 1.0);
  const auto kernel_r = det.scan(short_series, 10);
  const auto ref_r = reference_scan(det, short_series, 10);
  EXPECT_FALSE(kernel_r.ok());
  EXPECT_FALSE(ref_r.ok());
  EXPECT_EQ(kernel_r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kernel_r.status().code(), ref_r.status().code());
}

TEST(CorrelationKernelTest, MaxOffsetClampEdgeMatchesReference) {
  Rng rng{31};
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel det(code);
  const auto rates = random_series(code, 13, 0, true, 0.3, 4.0, rng);
  // rates.size() - n == 13: every max_offset at or past the clamp edge
  // must scan exactly offsets [0, 13] — including the huge ask.
  for (const std::size_t max_offset : {std::size_t{13}, std::size_t{14},
                                       std::size_t{1} << 20}) {
    const auto kernel_r = det.scan(rates, max_offset).value();
    const auto ref_r = reference_scan(det, rates, max_offset).value();
    expect_bit_identical(kernel_r, ref_r);
    EXPECT_EQ(kernel_r.offset, 13u);
  }
}

TEST(CorrelationKernelTest, ExactSizeSeriesScansSingleOffset) {
  Rng rng{33};
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel det(code);
  const auto rates = random_series(code, 0, 0, true, 0.3, 2.0, rng);
  ASSERT_EQ(rates.size(), code.length());
  const auto kernel_r = det.scan(rates, 500).value();
  const auto ref_r = reference_scan(det, rates, 500).value();
  expect_bit_identical(kernel_r, ref_r);
  // k = 1: no Bonferroni inflation, so the scan threshold equals the
  // aligned detector's.
  const auto aligned = det.detect(rates).value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel_r.best.threshold),
            std::bit_cast<std::uint64_t>(aligned.threshold));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel_r.best.correlation),
            std::bit_cast<std::uint64_t>(aligned.correlation));
}

TEST(CorrelationKernelTest, ScanRejectsCodeSegmentsPastTheEnd) {
  // code_begin + code_length wraps for a length near SIZE_MAX; both
  // lanes must still refuse the segment instead of reading past the
  // chip buffer.
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  const std::vector<double> rates(code.length(), 1.0);
  constexpr std::size_t kMax = SIZE_MAX;
  const std::size_t n = kernel.length();
  struct Segment {
    std::size_t begin, length;
  };
  for (const Segment seg : {Segment{0, kMax}, Segment{1, kMax},
                            Segment{kMax, 1}, Segment{n + 1, 0},
                            Segment{n, 1}, Segment{1, n}}) {
    EXPECT_EQ(kernel.scan(rates, 0, seg.begin, seg.length).status().code(),
              StatusCode::kInvalidArgument)
        << seg.begin << "+" << seg.length;
    EXPECT_EQ(
        kernel.scan_simd(rates, 0, seg.begin, seg.length).status().code(),
        StatusCode::kInvalidArgument)
        << seg.begin << "+" << seg.length;
  }
  // The last chip alone is still a valid one-chip segment.
  EXPECT_TRUE(kernel.scan(rates, 0, n - 1, 1).ok());
}

TEST(CorrelationKernelTest, AlignedDetectMatchesNaiveFormula) {
  Rng rng{35};
  const auto code = PnCode::m_sequence(9).value();
  const auto rates = random_series(code, 0, 10, true, 0.25, 8.0, rng);
  const CorrelationKernel kernel(code, 5.0);
  const auto r = kernel.detect(rates).value();

  // Independent naive despread, the historic aligned-detector loop.
  const std::size_t n = code.length();
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += rates[i];
  mean /= static_cast<double>(n);
  double num = 0.0, denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rates[i] - mean;
    num += x * static_cast<double>(code.chips()[i]);
    denom += x * x;
  }
  const double expected = num / std::sqrt(denom * static_cast<double>(n));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.correlation),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(CorrelationKernelTest, DetectCountsScratchOverloadIsIdentical) {
  // Hot per-flow loops convert counts into one reused scratch buffer and
  // detect over it; the kernel keeps no state between calls, so reuse
  // must not change a bit.
  Rng rng{37};
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel det(code);
  std::vector<std::uint32_t> counts;
  for (std::size_t i = 0; i < code.length() + 5; ++i) {
    counts.push_back(40 + static_cast<std::uint32_t>(rng.uniform(40)));
  }
  const std::vector<double> fresh(counts.begin(), counts.end());
  const auto plain = det.detect(fresh).value();
  std::vector<double> scratch(3, -1.0);
  scratch.assign(counts.begin(), counts.end());
  const auto reused = det.detect(scratch).value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.correlation),
            std::bit_cast<std::uint64_t>(reused.correlation));
  EXPECT_EQ(plain.detected, reused.detected);
  EXPECT_EQ(scratch.size(), counts.size());
  // The scratch buffer is reusable across calls.
  scratch.assign(counts.begin(), counts.end());
  const auto again = det.detect(scratch).value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.correlation),
            std::bit_cast<std::uint64_t>(again.correlation));
}

TEST(CorrelationKernelTest, SegmentDespreadMatchesNaiveSegmentLoop) {
  Rng rng{39};
  const auto code = PnCode::m_sequence(10).value();
  const std::size_t L = 63;
  std::vector<double> rates;
  for (std::size_t i = 0; i < 8 * L; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, 20.0));
  }
  const CorrelationKernel kernel(code);
  for (std::size_t b = 0; b < 8; ++b) {
    const std::size_t begin = b * L;
    double mean = 0.0;
    for (std::size_t j = 0; j < L; ++j) mean += rates[begin + j];
    mean /= static_cast<double>(L);
    double num = 0.0, denom = 0.0;
    for (std::size_t j = 0; j < L; ++j) {
      const double x = rates[begin + j] - mean;
      num += x * static_cast<double>(code.chips()[begin + j]);
      denom += x * x;
    }
    const double expected =
        denom > 0.0 ? num / std::sqrt(denom * static_cast<double>(L)) : 0.0;
    const double got = kernel.despread(rates.data() + begin, begin, L);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(expected))
        << "segment " << b;
  }
}

TEST(CorrelationKernelTest, CrossScoreMatchesPearsonBitForBit) {
  // cross_score is the kernel-side replacement for the hand-rolled
  // passive correlation in bench_baseline; the naive pearson oracle is
  // what it must match exactly.
  Rng rng{20260805};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.uniform(200);
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.normal(100.0, 25.0);
      b[i] = 0.4 * a[i] + rng.normal(0.0, 10.0);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  CorrelationKernel::cross_score(a, b)),
              std::bit_cast<std::uint64_t>(oracles::pearson(a, b)))
        << "trial " << trial << " n " << n;
  }
}

TEST(CorrelationKernelTest, CrossScoreDegenerateInputsAreZero) {
  const std::vector<double> flat(8, 3.0);
  const std::vector<double> ramp{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const std::vector<double> one{1.0};
  const std::vector<double> shorter{1.0, 2.0};
  EXPECT_EQ(CorrelationKernel::cross_score(flat, ramp), 0.0);   // zero variance
  EXPECT_EQ(CorrelationKernel::cross_score(ramp, flat), 0.0);
  EXPECT_EQ(CorrelationKernel::cross_score(one, one), 0.0);     // n < 2
  EXPECT_EQ(CorrelationKernel::cross_score(ramp, shorter), 0.0);  // mismatch
  EXPECT_EQ(CorrelationKernel::cross_score({}, {}), 0.0);
}

}  // namespace
}  // namespace lexfor::watermark
