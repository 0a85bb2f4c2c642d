// GrantedAuthority: the bridge from legal process to technical capability.
//
// Acquisition tools (capture devices, provider-disclosure requests, disk
// examiners) take a GrantedAuthority and are *constructed* to be unable
// to exceed it — the paper's recommendation that researchers design
// tools whose reach matches what the law allows.  Whether it covers an
// acquisition is decided in one place, legal::admit (admission.h).  An
// empty authority still admits actions that need no process (public
// observation).

#pragma once

#include <optional>

#include "legal/process.h"
#include "legal/types.h"

namespace lexfor::legal {

class GrantedAuthority {
 public:
  // No process: only process-free acquisitions are permitted.
  GrantedAuthority() = default;

  explicit GrantedAuthority(LegalProcess process)
      : process_(std::move(process)) {}

  [[nodiscard]] ProcessKind kind() const noexcept {
    return process_ ? process_->kind : ProcessKind::kNone;
  }
  [[nodiscard]] const std::optional<LegalProcess>& process() const noexcept {
    return process_;
  }

 private:
  std::optional<LegalProcess> process_;
};

}  // namespace lexfor::legal
