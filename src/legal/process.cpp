#include "legal/process.h"

#include <sstream>

namespace lexfor::legal {

Status LegalProcess::authorizes(DataKind data_kind, std::string_view location,
                                SimTime now) const {
  if (kind == ProcessKind::kNone) {
    return PermissionDenied("no legal process held");
  }
  if (expired_at(now)) {
    std::ostringstream os;
    os << "process " << id << " expired (issued " << issued_at.seconds()
       << "s, validity " << validity.seconds() << "s, now " << now.seconds()
       << "s)";
    return FailedPrecondition(os.str());
  }
  if (!scope.covers_kind(data_kind)) {
    std::ostringstream os;
    os << "process " << id << " does not cover data kind '"
       << to_string(data_kind) << "' (scope violation, cf. United States v. "
       << "Walser: stay within the warrant)";
    return PermissionDenied(os.str());
  }
  if (!scope.covers_location(location)) {
    std::ostringstream os;
    os << "process " << id << " does not cover location '" << location
       << "'; multiple locations need multiple warrants";
    return PermissionDenied(os.str());
  }
  return Status::Ok();
}

Status validate_application(ProcessKind requested, StandardOfProof supported,
                            const ProcessScope& scope) {
  if (requested == ProcessKind::kNone) {
    return InvalidArgument("cannot apply for 'no process'");
  }
  const StandardOfProof needed = required_standard(requested);
  if (!satisfies(supported, needed)) {
    std::ostringstream os;
    os << "application for " << to_string(requested) << " requires "
       << to_string(needed) << " but only " << to_string(supported)
       << " is supported";
    return PermissionDenied(os.str());
  }
  // Particularity: warrants must describe the place to be searched and
  // the things to be seized (Fourth Amendment text; Kow: overbroad
  // warrants are invalid).
  if (requested == ProcessKind::kSearchWarrant ||
      requested == ProcessKind::kWiretapOrder) {
    if (scope.locations.empty()) {
      return InvalidArgument(
          "a warrant application must particularly describe the place to "
          "be searched");
    }
    if (scope.crime.empty()) {
      return InvalidArgument(
          "a warrant application must identify the crime to which the "
          "records relate (cf. United States v. Kow)");
    }
  }
  return Status::Ok();
}

}  // namespace lexfor::legal
