#include "serve/wire.h"

#include <algorithm>

#include "util/bytes.h"

namespace lexfor::serve::wire {
namespace {

// Reject messages must stay inside the small-string buffer (<= 15
// bytes on libstdc++/libc++): the decoder promises a heap-free reject
// path, and Status copies the message into a std::string.
Status Malformed(const char* msg) {
  return Status{StatusCode::kInvalidArgument, msg};
}
Status VersionSkew() {
  return Status{StatusCode::kFailedPrecondition, "version skew"};
}

// Inclusive upper bounds of the enum ranges the decoder accepts.  A
// byte outside the range cannot name a doctrine posture, so the frame
// is malformed — accepting it would round-trip but hand the engine an
// impossible scenario.
constexpr std::uint8_t kMaxActor =
    static_cast<std::uint8_t>(legal::ActorKind::kPrivateParty);
constexpr std::uint8_t kMaxData =
    static_cast<std::uint8_t>(legal::DataKind::kTransactionalRecords);
constexpr std::uint8_t kMaxState =
    static_cast<std::uint8_t>(legal::DataState::kPublicVenue);
constexpr std::uint8_t kMaxTiming =
    static_cast<std::uint8_t>(legal::Timing::kStored);
constexpr std::uint8_t kMaxProvider =
    static_cast<std::uint8_t>(legal::ProviderClass::kNonPublic);
constexpr std::uint8_t kMaxConsent =
    static_cast<std::uint8_t>(legal::ConsentKind::kPolicyBanner);
constexpr std::uint8_t kMaxProcess =
    static_cast<std::uint8_t>(legal::ProcessKind::kWiretapOrder);
constexpr std::uint8_t kMaxProof =
    static_cast<std::uint8_t>(legal::StandardOfProof::kProbableCausePlus);
constexpr std::uint8_t kMaxStatusCode =
    static_cast<std::uint8_t>(StatusCode::kResourceExhausted);

void encode_header(FrameKind kind, std::uint64_t request_id,
                   std::size_t frame_len, std::vector<std::uint8_t>& out) {
  append_u32(out, kMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(0);  // reserved
  out.push_back(0);
  append_u32(out, static_cast<std::uint32_t>(frame_len));
  append_u64(out, request_id);
}

// Everything decode_request checks, sans output.  Returns the parsed
// string extents through the out-params so decode_request can assign
// without re-walking.  Allocation-free.
Status validate_request_impl(std::span<const std::uint8_t> frame,
                             std::size_t* name_at, std::size_t* name_len,
                             std::size_t* juris_at,
                             std::size_t* juris_len) noexcept {
  if (frame.size() < kHeaderBytes) return Malformed("truncated");
  const std::uint8_t* p = frame.data();
  if (load_le32(p) != kMagic) return Malformed("bad magic");
  if (p[4] != kWireVersion) return VersionSkew();
  if (p[5] != static_cast<std::uint8_t>(FrameKind::kRequest)) {
    return Malformed("bad kind");
  }
  if (p[6] != 0 || p[7] != 0) return Malformed("bad reserved");
  if (load_le32(p + 8) != frame.size()) return Malformed("bad length");

  std::size_t at = kHeaderBytes;
  const auto remaining = [&] { return frame.size() - at; };
  if (remaining() < 4) return Malformed("truncated");
  const std::uint32_t nlen = load_le32(p + at);
  at += 4;
  if (nlen > kMaxStringBytes || nlen > remaining()) {
    return Malformed("bad name len");
  }
  *name_at = at;
  *name_len = nlen;
  at += nlen;

  if (remaining() < 6 + 4 + 4) return Malformed("truncated");
  if (p[at + 0] > kMaxActor) return Malformed("bad actor");
  if (p[at + 1] > kMaxData) return Malformed("bad data kind");
  if (p[at + 2] > kMaxState) return Malformed("bad state");
  if (p[at + 3] > kMaxTiming) return Malformed("bad timing");
  if (p[at + 4] > kMaxProvider) return Malformed("bad provider");
  if (p[at + 5] > kMaxConsent) return Malformed("bad consent");
  at += 6;
  const std::uint32_t bits = load_le32(p + at);
  at += 4;
  if ((bits >> legal::kScenarioFlagCount) != 0) return Malformed("bad flags");

  const std::uint32_t jlen = load_le32(p + at);
  at += 4;
  if (jlen > kMaxStringBytes || jlen > remaining()) {
    return Malformed("bad juris len");
  }
  *juris_at = at;
  *juris_len = jlen;
  at += jlen;

  if (at != frame.size()) return Malformed("overlong");
  return Status::Ok();
}

}  // namespace

Result<FrameInfo> peek_frame(std::span<const std::uint8_t> buf) {
  if (buf.size() < kHeaderBytes) return Malformed("truncated");
  const std::uint8_t* p = buf.data();
  if (load_le32(p) != kMagic) return Malformed("bad magic");
  const std::uint8_t kind = p[5];
  if (kind != static_cast<std::uint8_t>(FrameKind::kRequest) &&
      kind != static_cast<std::uint8_t>(FrameKind::kResponse)) {
    return Malformed("bad kind");
  }
  // The reserved word is a v1 payload rule, checked by decode_*: a
  // future revision may use it, and peek must stay able to skip such
  // frames.
  const std::uint32_t frame_len = load_le32(p + 8);
  if (frame_len < kHeaderBytes || frame_len > buf.size()) {
    return Malformed("bad length");
  }
  FrameInfo info;
  info.version = p[4];
  info.kind = static_cast<FrameKind>(kind);
  info.request_id = load_le64(p + kRequestIdOffset);
  info.frame_len = frame_len;
  return info;
}

void encode_request(const legal::Scenario& s, std::uint64_t request_id,
                    std::vector<std::uint8_t>& out) {
  const std::size_t name_len = std::min(s.name.size(), kMaxStringBytes);
  const std::size_t juris_len =
      std::min(s.jurisdiction.size(), kMaxStringBytes);
  const std::size_t frame_len =
      kHeaderBytes + kRequestFixedPayloadBytes + name_len + juris_len;
  out.reserve(out.size() + frame_len);
  encode_header(FrameKind::kRequest, request_id, frame_len, out);
  append_u32(out, static_cast<std::uint32_t>(name_len));
  out.insert(out.end(), s.name.data(), s.name.data() + name_len);
  out.push_back(static_cast<std::uint8_t>(s.actor));
  out.push_back(static_cast<std::uint8_t>(s.data));
  out.push_back(static_cast<std::uint8_t>(s.state));
  out.push_back(static_cast<std::uint8_t>(s.timing));
  out.push_back(static_cast<std::uint8_t>(s.provider));
  out.push_back(static_cast<std::uint8_t>(s.consent));
  append_u32(out, legal::pack_flags(s));
  append_u32(out, static_cast<std::uint32_t>(juris_len));
  out.insert(out.end(), s.jurisdiction.data(),
             s.jurisdiction.data() + juris_len);
}

Status validate_request(std::span<const std::uint8_t> frame) {
  std::size_t name_at = 0, name_len = 0, juris_at = 0, juris_len = 0;
  return validate_request_impl(frame, &name_at, &name_len, &juris_at,
                               &juris_len);
}

Status decode_request(std::span<const std::uint8_t> frame, Request& out) {
  std::size_t name_at = 0, name_len = 0, juris_at = 0, juris_len = 0;
  if (Status st = validate_request_impl(frame, &name_at, &name_len, &juris_at,
                                        &juris_len);
      !st.ok()) {
    return st;
  }
  // Fully validated: every write below succeeds.  assign() reuses the
  // strings' existing capacity, so a recycled Request decodes without
  // heap traffic once warm.
  const std::uint8_t* p = frame.data();
  out.request_id = load_le64(p + kRequestIdOffset);
  legal::Scenario& s = out.scenario;
  s.name.assign(reinterpret_cast<const char*>(p + name_at), name_len);
  const std::size_t e = name_at + name_len;
  s.actor = static_cast<legal::ActorKind>(p[e + 0]);
  s.data = static_cast<legal::DataKind>(p[e + 1]);
  s.state = static_cast<legal::DataState>(p[e + 2]);
  s.timing = static_cast<legal::Timing>(p[e + 3]);
  s.provider = static_cast<legal::ProviderClass>(p[e + 4]);
  s.consent = static_cast<legal::ConsentKind>(p[e + 5]);
  legal::unpack_flags(load_le32(p + e + 6), s);
  s.jurisdiction.assign(reinterpret_cast<const char*>(p + juris_at),
                        juris_len);
  return Status::Ok();
}

void encode_response(const Response& r, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + kResponseFrameBytes);
  encode_header(FrameKind::kResponse, r.request_id, kResponseFrameBytes, out);
  out.push_back(static_cast<std::uint8_t>(r.status));
  out.push_back(static_cast<std::uint8_t>((r.needs_process ? 1u : 0u) |
                                          (r.cache_hit ? 2u : 0u)));
  out.push_back(static_cast<std::uint8_t>(r.required_process));
  out.push_back(static_cast<std::uint8_t>(r.required_proof));
  append_u64(out, r.server_ns);
}

Status decode_response(std::span<const std::uint8_t> frame, Response& out) {
  if (frame.size() < kHeaderBytes) return Malformed("truncated");
  const std::uint8_t* p = frame.data();
  if (load_le32(p) != kMagic) return Malformed("bad magic");
  if (p[4] != kWireVersion) return VersionSkew();
  if (p[5] != static_cast<std::uint8_t>(FrameKind::kResponse)) {
    return Malformed("bad kind");
  }
  if (p[6] != 0 || p[7] != 0) return Malformed("bad reserved");
  if (load_le32(p + 8) != frame.size()) return Malformed("bad length");
  if (frame.size() != kResponseFrameBytes) return Malformed("bad length");
  const std::uint8_t* q = p + kHeaderBytes;
  if (q[0] > kMaxStatusCode) return Malformed("bad status");
  if ((q[1] & ~3u) != 0) return Malformed("bad flags");
  if (q[2] > kMaxProcess) return Malformed("bad process");
  if (q[3] > kMaxProof) return Malformed("bad proof");
  out.request_id = load_le64(p + kRequestIdOffset);
  out.status = static_cast<StatusCode>(q[0]);
  out.needs_process = (q[1] & 1u) != 0;
  out.cache_hit = (q[1] & 2u) != 0;
  out.required_process = static_cast<legal::ProcessKind>(q[2]);
  out.required_proof = static_cast<legal::StandardOfProof>(q[3]);
  out.server_ns = load_le64(q + 4);
  return Status::Ok();
}

Response make_response(std::uint64_t request_id,
                       const legal::Determination& d, bool cache_hit,
                       std::uint64_t server_ns) {
  Response r;
  r.request_id = request_id;
  r.status = StatusCode::kOk;
  r.needs_process = d.needs_process;
  r.cache_hit = cache_hit;
  r.required_process = d.required_process;
  r.required_proof = d.required_proof;
  r.server_ns = server_ns;
  return r;
}

}  // namespace lexfor::serve::wire
