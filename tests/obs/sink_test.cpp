#include "obs/sink.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace lexfor::obs {
namespace {

// Minimal structural JSON check: quotes-aware bracket/brace balance.
// Catches unterminated arrays, unbalanced objects and broken escaping —
// the failure modes a hand-rolled serializer can have.
bool json_balanced(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST(ObsSinkTest, ArgsToJsonExpandsPairs) {
  EXPECT_EQ(args_to_json("k=v"), "\"k\":\"v\"");
  EXPECT_EQ(args_to_json("a=1,b=two"), "\"a\":\"1\",\"b\":\"two\"");
  EXPECT_EQ(args_to_json("bare"), "\"note\":\"bare\"");
  EXPECT_EQ(args_to_json(""), "");
}

TEST(ObsSinkTest, TextSinkRendersPhasesAndClocks) {
  std::ostringstream os;
  TextSink sink(os);
  Tracer t;
  t.add_sink(&sink);
  t.set_level(Level::kDebug);
  t.instant(Level::kInfo, "legal", "verdict", "scenario=wiretap",
            SimTime::from_ms(5));
  t.counter(Level::kDebug, "netsim", "depth", 9);
  const std::string text = os.str();
  EXPECT_NE(text.find("legal/verdict"), std::string::npos);
  EXPECT_NE(text.find("sim"), std::string::npos);
  EXPECT_NE(text.find("{scenario=wiretap}"), std::string::npos);
  EXPECT_NE(text.find("netsim/depth = 9"), std::string::npos);
}

TEST(ObsSinkTest, JsonlSinkWritesOneValidObjectPerLine) {
  std::ostringstream os;
  JsonlSink sink(os);
  Tracer t;
  t.add_sink(&sink);
  t.set_level(Level::kDebug);
  t.instant(Level::kInfo, "legal", "verdict", "scenario=email");
  t.instant(Level::kDebug, "netsim", "delivered", "", SimTime::from_us(7));

  std::istringstream lines(os.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_TRUE(json_balanced(line)) << line;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2);
  EXPECT_NE(os.str().find("\"sim_us\":7"), std::string::npos);
}

TEST(ObsSinkTest, ChromeTraceIsValidJsonDocument) {
  std::ostringstream os;
  {
    ChromeTraceSink sink(os);
    Tracer t;
    t.add_sink(&sink);
    t.set_level(Level::kDebug);
    {
      const Span s =
          t.span(Level::kInfo, "legal", "evaluate", "scenario=pen_trap");
      t.instant(Level::kAudit, "court", "process_issued", "kind=warrant",
                SimTime::from_ms(3));
    }
    sink.finish();
  }
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.front(), '[');
  // Required trace_event fields are present.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"legal\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"sim_us\":3000"), std::string::npos);
}

TEST(ObsSinkTest, ChromeTraceEmptyAndFinishIdempotent) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.finish();
  sink.finish();
  EXPECT_TRUE(json_balanced(os.str()));
  EXPECT_EQ(os.str(), "[]\n");
}

TEST(ObsSinkTest, ChromeTraceSimTimebaseCarriesForward) {
  std::ostringstream os;
  ChromeTraceSink sink(os, ChromeTraceSink::TimeBase::kSim);
  TraceEvent with_sim;
  with_sim.category = "evidence";
  with_sim.name = "custody";
  with_sim.sim_us = 1500;
  TraceEvent without_sim;
  without_sim.category = "legal";
  without_sim.name = "verdict";
  sink.write(with_sim);
  sink.write(without_sim);  // inherits ts=1500 from the last sim event
  sink.finish();
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json));
  const auto first = json.find("\"ts\":1500.000");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500.000", first + 1), std::string::npos);
}

}  // namespace
}  // namespace lexfor::obs
