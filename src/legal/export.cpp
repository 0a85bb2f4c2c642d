#include "legal/export.h"

#include <sstream>

#include "util/string_util.h"

namespace lexfor::legal {

std::string to_json(const Determination& d) {
  std::ostringstream os;
  os << '{';
  os << "\"scenario\":" << json_quoted(d.scenario_name) << ',';
  os << "\"needs_process\":" << (d.needs_process ? "true" : "false") << ',';
  os << "\"required_process\":"
     << json_quoted(to_string(d.required_process)) << ',';
  os << "\"required_proof\":"
     << json_quoted(to_string(d.required_proof)) << ',';
  os << "\"statutes\":[";
  for (std::size_t i = 0; i < d.governing_statutes.size(); ++i) {
    if (i != 0) os << ',';
    os << json_quoted(to_string(d.governing_statutes[i]));
  }
  os << "],\"exceptions\":[";
  for (std::size_t i = 0; i < d.exceptions_applied.size(); ++i) {
    if (i != 0) os << ',';
    os << json_quoted(to_string(d.exceptions_applied[i]));
  }
  os << "],\"rationale\":" << json_string_array(d.rationale)
     << ",\"citations\":" << json_string_array(d.citations);
  os << '}';
  return os.str();
}

std::string to_json(const SuppressionReport& r) {
  std::ostringstream os;
  os << "{\"suppressed\":" << r.suppressed_count
     << ",\"admissible\":" << r.admissible_count << ",\"findings\":[";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    if (i != 0) os << ',';
    const auto& f = r.findings[i];
    os << "{\"id\":" << f.id.value()
       << ",\"suppressed\":" << (f.suppressed ? "true" : "false")
       << ",\"reason\":" << json_quoted(f.reason) << '}';
  }
  os << "]}";
  return os.str();
}

std::string to_json(const FeasibilityReport& r) {
  std::ostringstream os;
  os << "{\"technique\":" << json_quoted(r.technique_name)
     << ",\"feasibility\":"
     << json_quoted(to_string(r.feasibility))
     << ",\"bottleneck\":"
     << json_quoted(to_string(r.bottleneck))
     << ",\"bottleneck_step\":" << json_quoted(r.bottleneck_step)
     << ",\"steps\":[";
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"name\":" << json_quoted(r.steps[i].step_name)
       << ",\"determination\":" << to_json(r.steps[i].determination) << '}';
  }
  os << "],\"recommendations\":" << json_string_array(r.recommendations);
  os << '}';
  return os.str();
}

}  // namespace lexfor::legal
