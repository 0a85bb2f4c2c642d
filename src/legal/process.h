// Legal process instruments and their lifecycle (§III.A.2).
//
// A LegalProcess is an issued warrant / court order / subpoena with a
// scope (what data, where), an issue time and an expiry.  The paper's
// §III.A.2 cautions drive the API: searches must stay within scope
// ("The Usage Scope of Techniques"), warrants expire ("The Time
// Restriction"), and multiple locations need multiple warrants.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "legal/types.h"
#include "util/ids.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace lexfor::legal {

// What an instrument authorizes.  Empty vectors mean "unrestricted" on
// that axis (e.g. a wiretap order covers all data kinds on the wire).
struct ProcessScope {
  std::vector<DataKind> data_kinds;   // which kinds may be acquired
  std::vector<std::string> locations; // places/systems covered
  std::string crime;                  // particularity: the crime searched for

  [[nodiscard]] bool covers_kind(DataKind k) const noexcept {
    if (data_kinds.empty()) return true;
    for (const auto d : data_kinds) {
      if (d == k) return true;
    }
    return false;
  }
  [[nodiscard]] bool covers_location(std::string_view loc) const {
    if (locations.empty()) return true;
    for (const auto& l : locations) {
      if (l == loc) return true;
    }
    return false;
  }
};

// An issued instrument.
struct LegalProcess {
  ProcessId id;
  ProcessKind kind = ProcessKind::kNone;
  ProcessScope scope;
  SimTime issued_at;
  SimDuration validity = SimDuration::from_sec(14 * 24 * 3600.0);  // Rule 41: 14 days
  StandardOfProof supported_by = StandardOfProof::kNone;

  [[nodiscard]] bool expired_at(SimTime now) const noexcept {
    return now > issued_at + validity;
  }

  // Whether this instrument authorizes acquiring `kind` at `location` at
  // time `now`.  Returns an explanatory error when it does not.
  [[nodiscard]] Status authorizes(DataKind kind, std::string_view location,
                                  SimTime now) const;
};

// Validates an application: the asserted standard of proof must meet the
// requirement for the requested instrument, and a warrant application
// must particularly describe the place and things to be seized.
[[nodiscard]] Status validate_application(ProcessKind requested,
                                          StandardOfProof supported,
                                          const ProcessScope& scope);

}  // namespace lexfor::legal
