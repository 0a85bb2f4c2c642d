// legal::admit: the one admission gate every forensic acquisition passes.
//
// The paper recommends tools "constructed to be unable to exceed" the
// process held (§III).  Each acquisition site works out what its
// acquisition requires (the engine's verdict, plus any statutory floor
// of its own) and hands that to admit(), which alone checks it against
// the held authority.  Every call leaves the same record: counter
// legal.admission.<site>.granted or .refused, and one kAudit
// "legal"/"admission" event with the args
// site, scenario, required, held, outcome, reason.

#pragma once

#include <cstdint>
#include <string_view>

#include "legal/authority.h"

namespace lexfor::legal {

// X(enumerator, name in counters and audit events)
#define LEXFOR_ADMISSION_SITES(X)                                  \
  X(kCapture, "capture") X(kStreamTap, "stream_tap")               \
  X(kHashSearch, "hash_search") X(kKeywordSearch, "keyword_search") \
  X(kDisclosure, "disclosure")

enum class AdmissionSite : std::uint8_t {
#define LEXFOR_ADMISSION_ENUM(id, name) id,
  LEXFOR_ADMISSION_SITES(LEXFOR_ADMISSION_ENUM)
#undef LEXFOR_ADMISSION_ENUM
};

[[nodiscard]] constexpr std::string_view to_string(AdmissionSite s) noexcept {
  switch (s) {
#define LEXFOR_ADMISSION_NAME(id, name) \
  case AdmissionSite::id: return name;
    LEXFOR_ADMISSION_SITES(LEXFOR_ADMISSION_NAME)
#undef LEXFOR_ADMISSION_NAME
  }
  return "?";
}

// One acquisition attempt, as its site describes it.
struct AdmissionRequest {
  AdmissionSite site = AdmissionSite::kCapture;
  std::string_view scenario;                  // may be empty
  ProcessKind required = ProcessKind::kNone;  // kNone: no process needed
  DataKind data = DataKind::kContent;
  std::string_view location;
  SimTime now;
};

// Ok when `request.required` is kNone, or when `held` carries process at
// least that strong whose scope covers the data kind and location and
// which has not lapsed at `request.now`; otherwise the refusal says why.
[[nodiscard]] Status admit(const AdmissionRequest& request,
                           const GrantedAuthority& held);

}  // namespace lexfor::legal
