// The SIMD despread lane's contract: opt-in, verdict-identical to the
// scalar oracle, correlation within kSimdMaxUlp ULPs, graceful scalar
// fallback when the lane is unavailable.  Every property here holds on
// BOTH CI legs — with LEXFOR_SIMD=OFF scan_simd forwards to scan and
// the bounds below collapse to 0 ULPs, so one test binary covers both.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "oracles/naive_scan.h"
#include "util/rng.h"
#include "watermark/correlate.h"
#include "watermark/pn_code.h"

namespace lexfor::watermark {
namespace {

std::vector<double> random_series(const PnCode& code, std::size_t offset,
                                  std::size_t tail, bool marked, double sigma,
                                  Rng& rng) {
  std::vector<double> rates;
  rates.reserve(offset + code.length() + tail);
  for (std::size_t i = 0; i < offset; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, sigma));
  }
  for (const auto c : code.chips()) {
    const double mark = marked ? 30.0 * static_cast<double>(c) : 0.0;
    rates.push_back(100.0 + mark + rng.normal(0.0, sigma));
  }
  for (std::size_t i = 0; i < tail; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, sigma));
  }
  return rates;
}

// The lane's shipping gate, in test form: same offset, same decision,
// bit-identical threshold, ULP-bounded correlation.
void expect_verdict_identical(const ScanResult& scalar, const ScanResult& simd,
                              const char* what) {
  EXPECT_EQ(scalar.offset, simd.offset) << what;
  EXPECT_EQ(scalar.best.detected, simd.best.detected) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar.best.threshold),
            std::bit_cast<std::uint64_t>(simd.best.threshold))
      << what;
  EXPECT_LE(ulp_distance(scalar.best.correlation, simd.best.correlation),
            CorrelationKernel::kSimdMaxUlp)
      << what;
}

TEST(UlpDistanceTest, CountsRepresentableSteps) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(ulp_distance(1.0, next), 1u);
  EXPECT_EQ(ulp_distance(next, 1.0), 1u);  // symmetric
  // Crossing zero counts the steps through both signs' subnormals.
  const double pos = std::nextafter(0.0, 1.0);
  const double neg = std::nextafter(0.0, -1.0);
  EXPECT_EQ(ulp_distance(pos, neg), 2u);
  // Monotone: further apart means more ULPs.
  EXPECT_GT(ulp_distance(1.0, 1.5), ulp_distance(1.0, 1.25));
}

TEST(CorrelateSimdTest, VerdictIdenticalAcrossDegreesAndOffsets) {
  // The ISSUE's acceptance matrix: degrees {8, 10, 12} x offset windows
  // {0, 256}, randomized marked/unmarked series.
  Rng rng{20260809};
  for (const int degree : {8, 10, 12}) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code);
    for (const std::size_t max_offset : {std::size_t{0}, std::size_t{256}}) {
      for (int trial = 0; trial < 10; ++trial) {
        const std::size_t embed = rng.uniform(max_offset + 1);
        const std::size_t tail = max_offset - embed + rng.uniform(8);
        const auto rates =
            random_series(code, embed, tail, rng.bernoulli(0.5),
                          1.0 + 30.0 * rng.uniform01(), rng);
        const auto scalar = kernel.scan(rates, max_offset).value();
        const auto simd = kernel.scan_simd(rates, max_offset).value();
        expect_verdict_identical(scalar, simd, "scan_simd vs scan");
        const auto oracle = oracles::naive_scan(
            code, kernel.threshold_sigmas(), rates, max_offset);
        expect_verdict_identical(oracle.value(), simd,
                                 "scan_simd vs naive scan oracle");
      }
    }
  }
}

TEST(CorrelateSimdTest, DespreadSimdMatchesScalarOnCodeSegments) {
  // Multibit decoding despreads mid-code segments (code_begin != 0,
  // unaligned against the 64-byte chip lane); the single-window SIMD
  // despread must stay ULP-close on every segment.
  Rng rng{7};
  const auto code = PnCode::m_sequence(10).value();  // 1023 chips
  const CorrelationKernel kernel(code);
  const std::size_t seg = 93;  // deliberately not a multiple of 4
  std::vector<double> x(seg);
  for (std::size_t begin = 0; begin + seg <= kernel.length(); begin += seg) {
    for (auto& v : x) v = 100.0 + rng.normal(0.0, 20.0);
    const double scalar = kernel.despread(x.data(), begin, seg);
    const double simd = kernel.despread_simd(x.data(), begin, seg);
    EXPECT_LE(ulp_distance(scalar, simd), CorrelationKernel::kSimdMaxUlp)
        << "segment at " << begin;
  }
}

TEST(CorrelateSimdTest, FlatWindowScoresExactlyZero) {
  // The denominator guard is a semantic boundary, not a rounding one:
  // both lanes must return exactly 0.0 for a flat window.
  const auto code = PnCode::m_sequence(8).value();
  const CorrelationKernel kernel(code);
  const std::vector<double> flat(kernel.length(), 42.0);
  EXPECT_EQ(kernel.despread(flat.data(), 0, kernel.length()), 0.0);
  EXPECT_EQ(kernel.despread_simd(flat.data(), 0, kernel.length()), 0.0);
}

TEST(CorrelateSimdTest, ErrorPathsMatchScalarScan) {
  const auto code = PnCode::m_sequence(8).value();
  const CorrelationKernel kernel(code);
  const std::vector<double> short_series(kernel.length() - 1, 100.0);
  const auto scalar_short = kernel.scan(short_series, 0);
  const auto simd_short = kernel.scan_simd(short_series, 0);
  ASSERT_FALSE(scalar_short.ok());
  ASSERT_FALSE(simd_short.ok());
  EXPECT_EQ(scalar_short.status().code(), simd_short.status().code());

  const std::vector<double> ok_series(kernel.length(), 100.0);
  const auto scalar_seg = kernel.scan(ok_series, 0, 10, kernel.length());
  const auto simd_seg = kernel.scan_simd(ok_series, 0, 10, kernel.length());
  ASSERT_FALSE(scalar_seg.ok());
  ASSERT_FALSE(simd_seg.ok());
  EXPECT_EQ(scalar_seg.status().code(), simd_seg.status().code());
}

TEST(CorrelateSimdTest, CopiedKernelKeepsAWorkingLane) {
  // Copies rebuild the arena-backed aligned chip buffer; a stale
  // pointer into the source's arena would read freed memory here.
  Rng rng{11};
  const auto code = PnCode::m_sequence(9).value();
  const CorrelationKernel original(code);
  const CorrelationKernel copy(original);      // copy-construct
  CorrelationKernel assigned(PnCode::m_sequence(5).value());
  assigned = original;                         // copy-assign
  const auto rates = random_series(code, 13, 40, true, 10.0, rng);
  const auto want = original.scan_simd(rates, 32).value();
  const auto via_copy = copy.scan_simd(rates, 32).value();
  const auto via_assign = assigned.scan_simd(rates, 32).value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.best.correlation),
            std::bit_cast<std::uint64_t>(via_copy.best.correlation));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.best.correlation),
            std::bit_cast<std::uint64_t>(via_assign.best.correlation));
}

}  // namespace
}  // namespace lexfor::watermark
