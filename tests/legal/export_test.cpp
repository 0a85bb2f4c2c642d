#include "legal/export.h"

#include <gtest/gtest.h>

#include "legal/table1.h"

namespace lexfor::legal {
namespace {

TEST(DeterminationJsonTest, ContainsAllSections) {
  const auto d =
      ComplianceEngine{}.evaluate(table1::scene(18).scenario);
  const auto json = to_json(d);
  EXPECT_NE(json.find("\"needs_process\":true"), std::string::npos);
  EXPECT_NE(json.find("\"required_process\":\"search warrant\""),
            std::string::npos);
  EXPECT_NE(json.find("\"statutes\":[\"Fourth Amendment\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"citations\":["), std::string::npos);
  EXPECT_NE(json.find("katz-1967"), std::string::npos);
}

TEST(DeterminationJsonTest, ProcessFreeSceneExports) {
  const auto d = ComplianceEngine{}.evaluate(table1::scene(10).scenario);
  const auto json = to_json(d);
  EXPECT_NE(json.find("\"needs_process\":false"), std::string::npos);
  EXPECT_NE(json.find("\"required_process\":\"none\""), std::string::npos);
}

TEST(DeterminationJsonTest, BalancedBracesAndBrackets) {
  for (int scene = 1; scene <= 20; ++scene) {
    const auto json = to_json(
        ComplianceEngine{}.evaluate(table1::scene(scene).scenario));
    int braces = 0, brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
      const char c = json[i];
      if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
      if (in_string) continue;
      braces += (c == '{') - (c == '}');
      brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0) << "scene " << scene;
    EXPECT_EQ(brackets, 0) << "scene " << scene;
    EXPECT_FALSE(in_string) << "scene " << scene;
  }
}

TEST(SuppressionJsonTest, ReportsFindings) {
  ProvenanceGraph g;
  AcquisitionRecord bad;
  bad.id = EvidenceId{1};
  bad.required = ProcessKind::kSearchWarrant;
  bad.held = ProcessKind::kNone;
  (void)g.add(bad);
  const auto json = to_json(analyze_suppression(g));
  EXPECT_NE(json.find("\"suppressed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
  EXPECT_NE(json.find("exclusionary rule"), std::string::npos);
}

TEST(FeasibilityJsonTest, ExportsTechniqueShape) {
  Technique t;
  t.name = "naive sniffing";
  t.steps.push_back({"sniff",
                     Scenario{}
                         .acquiring(DataKind::kContent)
                         .located(DataState::kInTransit)
                         .when(Timing::kRealTime)});
  const auto json = to_json(FeasibilityAnalyzer{}.analyze(t));
  EXPECT_NE(json.find("\"technique\":\"naive sniffing\""), std::string::npos);
  EXPECT_NE(json.find("impractical"), std::string::npos);
  EXPECT_NE(json.find("\"steps\":[{\"name\":\"sniff\""), std::string::npos);
}

TEST(ExportTest, DeterministicOutput) {
  const auto d = ComplianceEngine{}.evaluate(table1::scene(7).scenario);
  EXPECT_EQ(to_json(d), to_json(d));
}

}  // namespace
}  // namespace lexfor::legal
