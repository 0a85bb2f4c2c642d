#include "capture/capture.h"

#include "legal/admission.h"
#include "obs/obs.h"

namespace lexfor::capture {

Result<CaptureDevice> CaptureDevice::create(
    CaptureMode mode, const legal::GrantedAuthority& authority,
    legal::ProcessKind required, NodeId target, std::string location,
    SimTime now) {
  if (!target.valid()) {
    return InvalidArgument("capture: target node is invalid");
  }
  // The statutory floor for the device's mode composes with the
  // engine-determined requirement: a full-content device can never run
  // on less than the stricter of the two.
  const legal::ProcessKind floor =
      required == legal::ProcessKind::kNone
          ? legal::ProcessKind::kNone  // an exception excuses the statute
          : legal::stricter(required, minimum_process(mode));

  const legal::DataKind kind = mode == CaptureMode::kFullContent
                                   ? legal::DataKind::kContent
                                   : legal::DataKind::kAddressing;
  const Status admitted =
      legal::admit({legal::AdmissionSite::kCapture, {}, floor, kind,
                    location, now}, authority);
  if (!admitted.ok()) return admitted;

  // Bind the device's lifetime to the instrument's: a capture running on
  // legal process must stop when the process lapses.
  std::optional<SimTime> expiry;
  if (floor != legal::ProcessKind::kNone && authority.process().has_value()) {
    const auto& proc = *authority.process();
    expiry = proc.issued_at + proc.validity;
  }
  return CaptureDevice{mode, target, std::move(location), expiry};
}

Status CaptureDevice::attach(netsim::Network& net) {
  return net.add_node_tap(
      target_, [this](const netsim::TapEvent& ev) { on_traversal(ev); });
}

bool CaptureDevice::direction_matches(const netsim::TapEvent& ev) const noexcept {
  switch (mode_) {
    case CaptureMode::kPenRegister:
      // Outgoing addressing: traffic leaving the target.
      return ev.from == target_;
    case CaptureMode::kTrapAndTrace:
      // Incoming addressing: traffic arriving at the target.
      return ev.to == target_;
    case CaptureMode::kPenTrap:
    case CaptureMode::kFullContent:
      return ev.from == target_ || ev.to == target_;
  }
  return false;
}

void CaptureDevice::on_traversal(const netsim::TapEvent& ev) {
  ++stats_.packets_observed;
  LEXFOR_OBS_COUNTER_ADD("capture.packets_observed", 1);
  if (!direction_matches(ev)) return;
  // The statutory filter, made observable: every packet the device saw
  // but refused to retain leaves a trace explaining which legal limit
  // (expired instrument, warrant scope) stopped it.
  if (expiry_.has_value() && ev.at > *expiry_) {
    ++stats_.packets_after_expiry;
    LEXFOR_OBS_COUNTER_ADD("capture.packets_after_expiry", 1);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "capture", "refused_after_expiry",
                     "packet=" + std::to_string(ev.packet.id.value()), ev.at);
    return;
  }
  if (!scope_filter_.matches(ev.packet.header)) {
    ++stats_.packets_out_of_scope;
    LEXFOR_OBS_COUNTER_ADD("capture.packets_out_of_scope", 1);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "capture", "refused_out_of_scope",
                     "packet=" + std::to_string(ev.packet.id.value()), ev.at);
    return;
  }

  CapturedRecord rec;
  rec.at = ev.at;
  rec.header = ev.packet.header;
  rec.from = ev.from;
  rec.to = ev.to;

  if (mode_ == CaptureMode::kFullContent) {
    rec.payload = ev.packet.payload;
    stats_.payload_bytes_retained += ev.packet.payload.size();
    LEXFOR_OBS_COUNTER_ADD("capture.payload_bytes_retained",
                           ev.packet.payload.size());
  } else {
    // Minimization: a pen/trap device must not record content.  The
    // payload never reaches the retained record.
    stats_.payload_bytes_discarded += ev.packet.payload.size();
    LEXFOR_OBS_COUNTER_ADD("capture.payload_bytes_discarded",
                           ev.packet.payload.size());
  }
  ++stats_.packets_retained;
  LEXFOR_OBS_COUNTER_ADD("capture.packets_retained", 1);
  LEXFOR_OBS_EVENT(obs::Level::kDebug, "capture", "retained",
                   "packet=" + std::to_string(ev.packet.id.value()), ev.at);
  records_.push_back(std::move(rec));
}

netsim::Trace to_trace(const CaptureDevice& device) {
  netsim::Trace trace;
  for (const auto& rec : device.records()) {
    trace.add(netsim::TraceRecord{rec.at, rec.header, rec.payload});
  }
  return trace;
}

}  // namespace lexfor::capture
