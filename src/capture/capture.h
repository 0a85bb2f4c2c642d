// Authority-scoped capture devices (pen register, trap & trace, Title
// III full-content intercept).
//
// The paper's statutory split — Pen/Trap for addressing, Title III for
// content — is enforced here *by construction*: a device is created
// against a GrantedAuthority, refuses to start if the authority is
// insufficient for its mode, and a pen/trap device physically discards
// payload bytes before they are retained (18 U.S.C. § 3121(c): use
// technology reasonably available to avoid recording content).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "capture/filter.h"
#include "legal/authority.h"
#include "legal/types.h"
#include "netsim/network.h"
#include "netsim/trace.h"
#include "util/ids.h"
#include "util/status.h"

namespace lexfor::capture {

enum class CaptureMode {
  kPenRegister,   // outgoing addressing only
  kTrapAndTrace,  // incoming addressing only
  kPenTrap,       // both directions, addressing only
  kFullContent,   // headers + payload (Title III)
};

[[nodiscard]] constexpr std::string_view to_string(CaptureMode m) noexcept {
  switch (m) {
    case CaptureMode::kPenRegister: return "pen register";
    case CaptureMode::kTrapAndTrace: return "trap and trace";
    case CaptureMode::kPenTrap: return "pen/trap";
    case CaptureMode::kFullContent: return "full-content intercept";
  }
  return "?";
}

// The minimum process each capture mode requires when no exception
// applies: pen/trap devices need a pen/trap court order; full content
// needs a Title III order.
[[nodiscard]] constexpr legal::ProcessKind minimum_process(CaptureMode m) noexcept {
  switch (m) {
    case CaptureMode::kPenRegister:
    case CaptureMode::kTrapAndTrace:
    case CaptureMode::kPenTrap:
      return legal::ProcessKind::kCourtOrder;
    case CaptureMode::kFullContent:
      return legal::ProcessKind::kWiretapOrder;
  }
  return legal::ProcessKind::kWiretapOrder;
}

struct CapturedRecord {
  SimTime at;
  netsim::PacketHeader header;     // non-content, always retained
  std::optional<Bytes> payload;    // retained only in kFullContent mode
  NodeId from;                     // traversal direction observed
  NodeId to;
};

struct CaptureStats {
  std::uint64_t packets_observed = 0;  // passed the tap
  std::uint64_t packets_retained = 0;  // matched direction + scope filter
  std::uint64_t packets_out_of_scope = 0;  // matched direction, failed scope
  std::uint64_t packets_after_expiry = 0;  // arrived after the process lapsed
  std::uint64_t payload_bytes_retained = 0;
  std::uint64_t payload_bytes_discarded = 0;  // minimization at work
};

// A capture device attached at a target node ("the ISP connected to the
// suspect").  Create via CaptureDevice::create(), which performs the
// legal gate; attach() wires it to the network.
class CaptureDevice {
 public:
  // `required` is the minimum process the compliance engine determined
  // for this acquisition (kNone when an exception applies, e.g. victim
  // consent).  The device refuses creation when legal::admit finds the
  // held authority short of the stricter of the determination and the
  // mode's statutory floor.
  static Result<CaptureDevice> create(CaptureMode mode,
                                      const legal::GrantedAuthority& authority,
                                      legal::ProcessKind required,
                                      NodeId target, std::string location,
                                      SimTime now);

  // Attaches to every link incident to the target node.
  Status attach(netsim::Network& net);

  [[nodiscard]] CaptureMode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::vector<CapturedRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const CaptureStats& stats() const noexcept { return stats_; }

  // Restricts retention to packets matching the warrant-scope filter
  // (§III.A.2.a: capture only records related to the particular crime).
  // Out-of-scope traffic is counted but never retained.
  void set_scope_filter(Filter filter) { scope_filter_ = std::move(filter); }

  // The tap entry point (also callable directly in tests).
  void on_traversal(const netsim::TapEvent& ev);

  // When the instrument lapses (issued_at + validity); nullopt for
  // process-free captures.  The device stops retaining at that moment
  // (§III.A.2.b: "a search warrant may expire and revoke after a
  // specific time period").
  [[nodiscard]] std::optional<SimTime> expires_at() const noexcept {
    return expiry_;
  }

 private:
  CaptureDevice(CaptureMode mode, NodeId target, std::string location,
                std::optional<SimTime> expiry)
      : mode_(mode),
        target_(target),
        location_(std::move(location)),
        expiry_(expiry) {}

  [[nodiscard]] bool direction_matches(const netsim::TapEvent& ev) const noexcept;

  CaptureMode mode_;
  NodeId target_;
  std::string location_;
  std::optional<SimTime> expiry_;
  Filter scope_filter_;  // default: matches everything
  std::vector<CapturedRecord> records_;
  CaptureStats stats_;
};

// Packages a device's retained records as a serializable Trace — the
// handoff point into the evidence pipeline (hash, custody-chain, store).
[[nodiscard]] netsim::Trace to_trace(const CaptureDevice& device);

}  // namespace lexfor::capture
