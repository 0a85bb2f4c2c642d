#include "tornet/traceback.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "oracles/resimulated_traceback.h"

namespace lexfor::tornet {
namespace {

TracebackConfig easy_config() {
  TracebackConfig cfg;
  cfg.pn_degree = 9;          // 511 chips
  cfg.chip_ms = 400.0;
  cfg.depth = 0.35;
  cfg.base_rate_pps = 120.0;
  cfg.num_decoys = 6;
  cfg.seed = 101;
  return cfg;
}

TEST(TracebackTest, CollectionScenarioNeedsOnlyCourtOrder) {
  // §IV.B: rate collection at the ISP is non-content — a court order,
  // not a wiretap order.
  const auto d = legal::ComplianceEngine{}.evaluate(collection_scenario());
  EXPECT_TRUE(d.needs_process);
  EXPECT_EQ(d.required_process, legal::ProcessKind::kCourtOrder) << d.report();
}

TEST(TracebackTest, SuspectDetectedDecoysClean) {
  const auto r = run_traceback(easy_config());
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& result = r.value();
  EXPECT_TRUE(result.suspect_detected)
      << "suspect corr=" << result.suspect_correlation;
  EXPECT_EQ(result.decoys_flagged, 0u)
      << "max decoy corr=" << result.max_decoy_correlation;
  EXPECT_GT(result.suspect_correlation, result.max_decoy_correlation);
}

TEST(TracebackTest, ResultContainsAllFlows) {
  auto cfg = easy_config();
  cfg.num_decoys = 4;
  const auto result = run_traceback(cfg).value();
  ASSERT_EQ(result.flows.size(), 5u);
  EXPECT_TRUE(result.flows[0].is_suspect);
  for (std::size_t i = 1; i < result.flows.size(); ++i) {
    EXPECT_FALSE(result.flows[i].is_suspect);
  }
}

TEST(TracebackTest, LegalityDeterminationIsEmbedded) {
  const auto result = run_traceback(easy_config()).value();
  EXPECT_TRUE(result.collection_legality.needs_process);
  EXPECT_EQ(result.collection_legality.required_process,
            legal::ProcessKind::kCourtOrder);
}

TEST(TracebackTest, DeterministicForFixedSeed) {
  const auto a = run_traceback(easy_config()).value();
  const auto b = run_traceback(easy_config()).value();
  EXPECT_DOUBLE_EQ(a.suspect_correlation, b.suspect_correlation);
  EXPECT_EQ(a.decoys_flagged, b.decoys_flagged);
}

TEST(TracebackTest, DetectThreadCountDoesNotChangeResults) {
  // The despread fan-out merges in input order; any pool size must
  // yield bit-identical verdicts.
  auto serial = easy_config();
  serial.detect_threads = 1;
  auto fanned = easy_config();
  fanned.detect_threads = 4;
  const auto a = run_traceback(serial).value();
  const auto b = run_traceback(fanned).value();
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].detection.correlation,
                     b.flows[i].detection.correlation);
    EXPECT_EQ(a.flows[i].detection.detected, b.flows[i].detection.detected);
  }
  EXPECT_EQ(a.decoys_flagged, b.decoys_flagged);
}

TEST(TracebackTest, HigherDepthRaisesCorrelation) {
  auto weak = easy_config();
  weak.depth = 0.1;
  weak.num_decoys = 0;
  auto strong = easy_config();
  strong.depth = 0.5;
  strong.num_decoys = 0;
  const auto r_weak = run_traceback(weak).value();
  const auto r_strong = run_traceback(strong).value();
  EXPECT_GT(r_strong.suspect_correlation, r_weak.suspect_correlation);
}

TEST(TracebackTest, InvalidPnDegreeFails) {
  auto cfg = easy_config();
  cfg.pn_degree = 99;
  EXPECT_FALSE(run_traceback(cfg).ok());
}

TEST(TracebackTest, HeavyJitterDegradesButLongCodeRecovers) {
  // Ablation in miniature: crank relay jitter; a short code fails more
  // often than a long one.
  auto shorter = easy_config();
  shorter.pn_degree = 5;  // 31 chips
  shorter.network.relay_jitter_ms = 150.0;
  shorter.num_decoys = 0;
  auto longer = shorter;
  longer.pn_degree = 10;  // 1023 chips

  const auto r_short = run_traceback(shorter).value();
  const auto r_long = run_traceback(longer).value();
  EXPECT_GE(r_long.suspect_correlation / r_long.flows[0].detection.threshold,
            r_short.suspect_correlation / r_short.flows[0].detection.threshold);
}

TEST(TracebackTest, StreamingTracebackIsBitIdenticalToBatch) {
  // The streaming variant consumes the SAME simulated bins one at a
  // time through stream::OnlineDespreader; every per-flow correlation
  // and threshold must match the batch oracle bit for bit.
  auto cfg = easy_config();
  cfg.pn_degree = 7;
  cfg.num_decoys = 4;
  const auto batch = run_traceback(cfg).value();
  const auto streaming = run_streaming_traceback(cfg).value();

  ASSERT_EQ(streaming.flows.size(), batch.flows.size());
  for (std::size_t i = 0; i < batch.flows.size(); ++i) {
    EXPECT_EQ(streaming.flows[i].is_suspect, batch.flows[i].is_suspect);
    EXPECT_EQ(streaming.flows[i].detection.detected,
              batch.flows[i].detection.detected);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  streaming.flows[i].detection.correlation),
              std::bit_cast<std::uint64_t>(batch.flows[i].detection.correlation))
        << "flow " << i;
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(streaming.flows[i].detection.threshold),
        std::bit_cast<std::uint64_t>(batch.flows[i].detection.threshold));
  }
  EXPECT_EQ(streaming.suspect_detected, batch.suspect_detected);
  EXPECT_EQ(streaming.decoys_flagged, batch.decoys_flagged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(streaming.suspect_correlation),
            std::bit_cast<std::uint64_t>(batch.suspect_correlation));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(streaming.max_decoy_correlation),
            std::bit_cast<std::uint64_t>(batch.max_decoy_correlation));
}

TEST(TracebackTest, SinglePassMatchesPerSuspectResimulation) {
  // The tentpole claim: tapping every candidate during ONE simulation
  // pass (TapRegistry fan-out) returns exactly what re-simulating per
  // suspect returns — for every detect thread count — while doing a
  // constant number of passes.
  for (const unsigned threads : {0u, 1u, 2u, 4u}) {
    auto cfg = easy_config();
    cfg.pn_degree = 7;
    cfg.num_decoys = 5;
    cfg.detect_threads = threads;
    const auto single = run_streaming_traceback(cfg).value();
    const auto reference = oracles::resimulated_traceback(cfg).value();

    EXPECT_EQ(single.sim_passes, 1u);
    EXPECT_EQ(reference.sim_passes, 1 + cfg.num_decoys);
    ASSERT_EQ(single.flows.size(), reference.flows.size());
    for (std::size_t i = 0; i < single.flows.size(); ++i) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(single.flows[i].detection.correlation),
          std::bit_cast<std::uint64_t>(
              reference.flows[i].detection.correlation))
          << "flow " << i << " threads " << threads;
      EXPECT_EQ(single.flows[i].detection.detected,
                reference.flows[i].detection.detected);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(single.suspect_correlation),
              std::bit_cast<std::uint64_t>(reference.suspect_correlation));
    EXPECT_EQ(single.decoys_flagged, reference.decoys_flagged);
  }
}

TEST(TracebackTest, SimPassCountIsIndependentOfSuspectCount) {
  // The acceptance gate in its simplest form: more candidates must not
  // mean more simulation passes.
  for (const std::size_t decoys : {std::size_t{2}, std::size_t{8}}) {
    auto cfg = easy_config();
    cfg.pn_degree = 7;
    cfg.num_decoys = decoys;
    const auto r = run_streaming_traceback(cfg).value();
    EXPECT_EQ(r.sim_passes, 1u) << decoys << " decoys";
    EXPECT_EQ(r.flows.size(), 1 + decoys);
  }
}

TEST(TracebackTest, PerFlowSubStreamsAreIndependentOfFlowCount) {
  // Each flow draws from Rng::sub_stream(seed, flow), so adding decoys
  // must not perturb the flows that already existed.  (This is what
  // makes the sub-stream reseeding an improvement, not just a change —
  // see EXPERIMENTS.md.)
  auto small = easy_config();
  small.pn_degree = 7;
  small.num_decoys = 2;
  auto large = small;
  large.num_decoys = 6;

  const auto a = run_traceback(small).value();
  const auto b = run_traceback(large).value();
  ASSERT_EQ(a.flows.size(), 3u);
  ASSERT_EQ(b.flows.size(), 7u);
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.flows[i].detection.correlation),
              std::bit_cast<std::uint64_t>(b.flows[i].detection.correlation))
        << "flow " << i;
  }
}

}  // namespace
}  // namespace lexfor::tornet
