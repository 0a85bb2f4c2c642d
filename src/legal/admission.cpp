#include "legal/admission.h"

#include <string>

#include "obs/obs.h"

namespace lexfor::legal {
namespace {

Status check(const AdmissionRequest& request, const GrantedAuthority& held) {
  if (request.required == ProcessKind::kNone) return Status::Ok();
  const std::string required(to_string(request.required));
  if (!held.process()) {
    return PermissionDenied("acquisition requires " + required +
                            " but no process is held");
  }
  if (!satisfies(held.kind(), request.required)) {
    return PermissionDenied("held " + std::string(to_string(held.kind())) +
                            " does not satisfy required " + required);
  }
  return held.process()->authorizes(request.data, request.location,
                                    request.now);
}

void count(AdmissionSite site, bool granted) {
  switch (site) {
#define LEXFOR_ADMISSION_COUNT(id, name)                             \
  case AdmissionSite::id:                                            \
    if (granted)                                                     \
      LEXFOR_OBS_COUNTER_ADD("legal.admission." name ".granted", 1); \
    else                                                             \
      LEXFOR_OBS_COUNTER_ADD("legal.admission." name ".refused", 1); \
    return;
    LEXFOR_ADMISSION_SITES(LEXFOR_ADMISSION_COUNT)
#undef LEXFOR_ADMISSION_COUNT
  }
}

// "site=...,scenario=...,...": obs args may not carry ',' or '=' inside
// a value, so those become ';' and ':'.
std::string audit_args(const AdmissionRequest& request,
                       const GrantedAuthority& held, const Status& verdict) {
  const std::string_view reason =
      !verdict.ok() ? std::string_view(verdict.message())
      : request.required == ProcessKind::kNone
          ? "no process required"
          : "held process covers the acquisition";
  std::string args;
  const auto add = [&args](std::string_view key, std::string_view value) {
    if (!args.empty()) args += ',';
    args.append(key).append(1, '=');
    for (const char c : value) args += c == ',' ? ';' : c == '=' ? ':' : c;
  };
  add("site", to_string(request.site));
  add("scenario", request.scenario);
  add("required", to_string(request.required));
  add("held", to_string(held.kind()));
  add("outcome", verdict.ok() ? "granted" : "refused");
  add("reason", reason);
  return args;
}

}  // namespace

Status admit(const AdmissionRequest& request, const GrantedAuthority& held) {
  Status verdict = check(request, held);
  count(request.site, verdict.ok());
  LEXFOR_OBS_EVENT(obs::Level::kAudit, "legal", "admission",
                   audit_args(request, held, verdict), request.now);
  return verdict;
}

}  // namespace lexfor::legal
