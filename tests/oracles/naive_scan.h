// Oracle: the naive per-offset watermark scan.
//
// Copies each candidate window and recomputes every statistic from
// scratch through independent plain loops.  It shares no code with
// watermark::CorrelationKernel, so the kernel's bit-identity contract
// (tests and the A-SCAN bench gate) compares two implementations, not
// one with itself.  A-SCAN also times it as the kernel's baseline.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "util/status.h"
#include "watermark/correlate.h"
#include "watermark/pn_code.h"

namespace lexfor::oracles {

// The scan CorrelationKernel(code, threshold_sigmas).scan(rates,
// max_offset) must reproduce bit for bit: offsets [0, min(max_offset,
// rates.size() - n)], best score kept at the earliest offset, threshold
// inflated by sqrt(2 ln k) sigma for k offsets (Bonferroni).
[[nodiscard]] inline Result<watermark::ScanResult> naive_scan(
    const watermark::PnCode& code, double threshold_sigmas,
    std::span<const double> rates, std::size_t max_offset) {
  const std::size_t n = code.length();
  if (rates.size() < n) {
    return InvalidArgument("naive_scan: series shorter than the code");
  }
  const std::size_t last_offset = std::min(max_offset, rates.size() - n);

  // Scanning k offsets multiplies the null false-positive probability by
  // ~k; for a Gaussian tail, adding sqrt(2 ln k) sigma is a simple, safe
  // inflation at the scales used here.
  const double k = static_cast<double>(last_offset + 1);
  const double sigma_inflation = std::sqrt(2.0 * std::log(std::max(k, 1.0)));
  const double adjusted_sigmas = threshold_sigmas + sigma_inflation;
  const auto& chips = code.chips();

  watermark::ScanResult best;
  best.best.correlation = -2.0;  // below any achievable value
  for (std::size_t off = 0; off <= last_offset; ++off) {
    const std::vector<double> window(
        rates.begin() + static_cast<std::ptrdiff_t>(off),
        rates.begin() + static_cast<std::ptrdiff_t>(off + n));
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += window[i];
    mean /= static_cast<double>(n);

    double num = 0.0, denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = window[i] - mean;
      num += x * static_cast<double>(chips[i]);
      denom += x * x;
    }

    watermark::DetectionResult r;
    r.threshold = adjusted_sigmas / std::sqrt(static_cast<double>(n));
    if (denom <= 0.0) {
      r.correlation = 0.0;  // a perfectly flat window carries no mark
    } else {
      r.correlation = num / std::sqrt(denom * static_cast<double>(n));
    }
    r.detected = r.correlation > r.threshold;
    if (r.correlation > best.best.correlation) {
      best.best = r;
      best.offset = off;
    }
  }
  return best;
}

}  // namespace lexfor::oracles
