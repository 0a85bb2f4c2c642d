#include "lint/render.h"

#include <sstream>

#include "legal/caselaw.h"
#include "util/string_util.h"

namespace lexfor::lint {

std::string render_text(const LintReport& report) {
  std::ostringstream os;
  os << "plan '" << report.plan_title << "': " << report.error_count
     << (report.error_count == 1 ? " error, " : " errors, ")
     << report.warning_count
     << (report.warning_count == 1 ? " warning, " : " warnings, ")
     << report.note_count << (report.note_count == 1 ? " note" : " notes")
     << '\n';
  for (const auto& d : report.diagnostics) {
    os << to_string(d.severity) << ": " << d.rule << ": step " << d.step
       << " '" << d.step_name << "': " << d.message << '\n';
    for (const auto& r : d.rationale) {
      os << "    " << r << '\n';
    }
    for (const auto& id : d.citations) {
      if (auto c = legal::find_case(id)) {
        os << "  * " << legal::format_citation(*c) << '\n';
      } else {
        os << "  * " << id << '\n';
      }
    }
  }
  if (report.diagnostics.empty()) {
    os << "no defects found; every step is executable and admissible as "
          "planned\n";
  }
  return os.str();
}

std::string render_json(const LintReport& report) {
  std::ostringstream os;
  os << '{' << "\"plan\":" << json_quoted(report.plan_title)
     << ",\"errors\":" << report.error_count
     << ",\"warnings\":" << report.warning_count
     << ",\"notes\":" << report.note_count
     << ",\"clean\":" << (report.clean() ? "true" : "false")
     << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i != 0) os << ',';
    os << "{\"severity\":" << json_quoted(to_string(d.severity))
       << ",\"rule\":" << json_quoted(d.rule)
       << ",\"step\":" << d.step.value()
       << ",\"step_name\":" << json_quoted(d.step_name)
       << ",\"message\":" << json_quoted(d.message)
       << ",\"rationale\":" << json_string_array(d.rationale)
       << ",\"citations\":" << json_string_array(d.citations) << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace lexfor::lint
