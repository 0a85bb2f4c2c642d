// End-to-end checks that the instrumented library modules actually emit
// trace events and metrics through the process-wide tracer/registry when
// the runtime level is raised.  gtest_discover_tests runs each test in
// its own process, so flipping the global level here cannot leak into
// other tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "evidence/custody.h"
#include "legal/engine.h"
#include "obs/obs.h"

namespace lexfor {
namespace {

std::vector<obs::TraceEvent> events_named(std::string_view category,
                                          std::string_view name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& ev : obs::tracer().ring().snapshot()) {
    if (ev.category == category && ev.name == name) out.push_back(ev);
  }
  return out;
}

TEST(ObsInstrumentationTest, EngineEvaluateEmitsAuditVerdict) {
  obs::tracer().set_level(obs::Level::kAudit);
  obs::tracer().ring().clear();
  const std::uint64_t evals_before =
      obs::metrics().counter("legal.evaluations").value();

  legal::ComplianceEngine engine;
  const auto d = engine.evaluate(legal::Scenario{}
                                     .named("obs wiretap probe")
                                     .acquiring(legal::DataKind::kContent)
                                     .located(legal::DataState::kInTransit)
                                     .when(legal::Timing::kRealTime));
  ASSERT_TRUE(d.needs_process);

  const auto verdicts = events_named("legal", "verdict");
#if !LEXFOR_OBS
  // -DLEXFOR_OBS=OFF erases the event and the counter.
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(obs::metrics().counter("legal.evaluations").value(),
            evals_before);
#else
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].level, obs::Level::kAudit);
  EXPECT_NE(verdicts[0].args.find("scenario=obs wiretap probe"),
            std::string::npos);
  EXPECT_EQ(obs::metrics().counter("legal.evaluations").value(),
            evals_before + 1);
  // kAudit admits only legally-meaningful events: the kInfo evaluate
  // span must have been filtered out.
  EXPECT_TRUE(events_named("legal", "evaluate").empty());
#endif  // LEXFOR_OBS
}

TEST(ObsInstrumentationTest, CustodyRecordsBecomeAuditEvents) {
  obs::tracer().set_level(obs::Level::kAudit);
  obs::tracer().ring().clear();

  const Bytes case_key = to_bytes("obs-case-key");
  evidence::EvidenceItem item(EvidenceId{1}, "seized laptop image",
                              to_bytes("disk contents"), "agent-smith",
                              SimTime::from_ms(10), case_key);
  item.record(evidence::CustodyAction::kImaged, "lab-tech", "dd image",
              SimTime::from_ms(20), case_key);
  item.record(evidence::CustodyAction::kExamined, "examiner", "keyword scan",
              SimTime::from_ms(30), case_key);

  // Seizure + two transfers = three chain entries, three audit events.
  const auto custody = events_named("evidence", "custody");
  EXPECT_EQ(item.chain().size(), 3u);
#if !LEXFOR_OBS
  EXPECT_TRUE(custody.empty());  // -DLEXFOR_OBS=OFF erases the events
#else
  ASSERT_EQ(custody.size(), 3u);
  EXPECT_EQ(custody[0].sim_us, 10'000);
  EXPECT_NE(custody[1].args.find("action=imaged"), std::string::npos);
  EXPECT_NE(custody[2].args.find("custodian=examiner"), std::string::npos);
#endif  // LEXFOR_OBS
}

TEST(ObsInstrumentationTest, OffLevelSuppressesInstrumentationEvents) {
  obs::tracer().set_level(obs::Level::kOff);
  obs::tracer().ring().clear();

  legal::ComplianceEngine engine;
  (void)engine.evaluate(legal::Scenario{}
                            .acquiring(legal::DataKind::kContent)
                            .located(legal::DataState::kOnDevice));
  EXPECT_EQ(obs::tracer().ring().size(), 0u);
}

}  // namespace
}  // namespace lexfor
