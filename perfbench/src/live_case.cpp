// live-case: one whole investigation per operation, on one thread.
//
// Facts, then a lint of the planned steps, then a court order and a
// search warrant.  Each of the five admission sites is tried once
// without authority (a planned refusal) and once under the instrument
// that covers it: a pen/trap CaptureDevice on a three-node netsim
// topology, a rate TapSession on the same network, hash and keyword
// searches of a seized DiskImage, and a compelled disclosure from a
// Provider.  The results go into an EvidenceLocker with the engine's
// explanation of each requirement, every acquisition is recorded with
// Investigation::acquire, and the suppression audit closes the case.
// Some cases also make one unlawful acquisition and derive a lead from
// it, so the audit has something to suppress.
//
// Packet volume stays small (32 packets a case) so the capture does not
// swamp the admission layers.

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <unordered_set>

#include "capture/capture.h"
#include "crypto/sha256.h"
#include "diskimage/hash_search.h"
#include "diskimage/keyword_search.h"
#include "evidence/locker.h"
#include "investigation/court.h"
#include "investigation/investigation.h"
#include "legal/engine.h"
#include "legal/table1.h"
#include "lint/example_plans.h"
#include "netsim/network.h"
#include "storedcomm/provider.h"
#include "stream/tap_session.h"
#include "trace.h"
#include "util/rng.h"
#include "watermark/correlate.h"
#include "watermark/pn_code.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace lexfor;

constexpr std::size_t kVariants = 48;
constexpr std::size_t kPackets = 32;  // the first half go to the suspect
constexpr std::size_t kFiles = 5;
constexpr std::size_t kFileBytes = 1024;
constexpr const char* kIsp = "suspect-isp";
constexpr const char* kDrive = "suspect-hdd";
constexpr const char* kProviderName = "mail.example";
constexpr std::array<const char*, 3> kKeywords = {"ledger", "wallet",
                                                  "seedphrase"};

enum Site : std::size_t {
  kCaptureSite,
  kTapSite,
  kHashSite,
  kKeywordSite,
  kDisclosureSite,
  kSites,
};
constexpr std::array<const char*, kSites> kSiteNames = {
    "capture", "stream_tap", "hash_search", "keyword_search", "disclosure"};

struct Planted {
  std::string path;
  std::string keyword;
};

// One case's inputs, derived from the run seed.
struct CaseInput {
  std::vector<legal::Fact> facts;
  diskimage::DiskImage drive;
  std::vector<Planted> planted;
  AccountId account;
  MessageId probe;  // the message the provider's requirement turns on
  std::string subscriber;
  storedcomm::DisclosureKind disclosure =
      storedcomm::DisclosureKind::kBasicSubscriber;
  bool rogue = false;
};

// One site's two attempts, as the harness saw them.
struct SiteOutcome {
  legal::ProcessKind required = legal::ProcessKind::kNone;
  legal::ProcessKind held = legal::ProcessKind::kNone;
  bool refused_attempt_granted = false;
  bool attempt_granted = false;
};

// What one case produced; checked after the operation, untimed.
struct CaseOutcome {
  bool lint_clean = false;
  bool processes_granted = false;
  std::array<SiteOutcome, kSites> sites{};
  std::size_t captured = 0;
  std::size_t tapped = 0;
  std::vector<diskimage::HashHit> hash_hits;
  std::vector<diskimage::KeywordHit> keyword_hits;
  std::optional<storedcomm::DisclosureResult> disclosure;
  std::size_t memo_bytes = 0;
  std::size_t deposits = 0;
  std::size_t lawful = 0;
  std::size_t lawful_expected = 0;
  std::size_t admissible = 0;
  std::size_t suppressed = 0;
};

[[nodiscard]] legal::ProcessKind required(const legal::Determination& d) {
  return d.needs_process ? d.required_process : legal::ProcessKind::kNone;
}

[[nodiscard]] bool grants(legal::ProcessKind held, legal::ProcessKind req) {
  return req == legal::ProcessKind::kNone || legal::satisfies(held, req);
}

[[nodiscard]] Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>('a' + rng.uniform(26));
  return out;
}

[[nodiscard]] legal::Scenario stored_records(std::string name,
                                             legal::DataKind kind) {
  return legal::Scenario{}
      .named(std::move(name))
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(kind)
      .located(legal::DataState::kStoredAtProvider)
      .when(legal::Timing::kStored)
      .at_provider(legal::ProviderClass::kEcs);
}

class LiveCase final : public Workload {
 public:
  explicit LiveCase(std::uint64_t seed)
      : kernel_(watermark::PnCode::m_sequence(5).value()),
        provider_(kProviderName, storedcomm::ProviderPublicity::kPublic),
        case_key_(to_bytes("perfbench-case-key")),
        plan_(lint::clean_quickstart_plan()) {
    capture_scenario_ = legal::Scenario{}
                            .named("pen/trap at the suspect's ISP")
                            .by(legal::ActorKind::kLawEnforcement)
                            .acquiring(legal::DataKind::kAddressing)
                            .located(legal::DataState::kInTransit)
                            .when(legal::Timing::kRealTime);
    tap_scenario_ = capture_scenario_;
    tap_scenario_.named("rate tap at the suspect's access link");
    hash_scenario_ = legal::table1::scene(18).scenario;
    keyword_scenario_ = hash_scenario_;
    keyword_scenario_.named("keyword search of the seized drive");
    disclosure_scenarios_ = {
        stored_records("subscriber records", legal::DataKind::kSubscriberRecords),
        stored_records("transaction logs",
                       legal::DataKind::kTransactionalRecords),
        stored_records("stored mail", legal::DataKind::kContent)};
    rogue_scenario_ = stored_records("mail pulled without process",
                                     legal::DataKind::kContent);
    fruit_scenario_ = legal::table1::scene(19).scenario;

    order_scope_.data_kinds = {legal::DataKind::kAddressing};
    order_scope_.locations = {kIsp};
    order_scope_.crime = "distribution of contraband";
    warrant_scope_.locations = {kDrive, kProviderName};
    warrant_scope_.crime = "possession of contraband";

    Rng rng(seed);
    std::unordered_set<std::string> known;
    for (std::size_t v = 0; v < kVariants; ++v) {
      CaseInput& in = inputs_[v];
      // Sizes and counts are the same for every seed, so the cost of a
      // case does not depend on which seed drew its contents.
      in.facts.push_back({legal::FactKind::kIpAddressLinked,
                          0.5 + 3.5 * rng.uniform01(),
                          "upload traffic resolved to the suspect's IP"});
      in.facts.push_back({legal::FactKind::kSubscriberIdentified,
                          0.5 + 3.5 * rng.uniform01(),
                          "ISP return names the subscriber"});
      in.facts.push_back({legal::FactKind::kAccountLinked,
                          0.5 + 3.5 * rng.uniform01(),
                          "mail account tied to the uploads"});

      for (std::size_t f = 0; f < kFiles; ++f) {
        Bytes content = random_bytes(rng, kFileBytes);
        const std::string path = "/docs/file" + std::to_string(f) + ".txt";
        const std::string kw = kKeywords[(v + f) % kKeywords.size()];
        const std::size_t at = rng.uniform(content.size() - kw.size());
        std::copy(kw.begin(), kw.end(), content.begin() + at);
        in.planted.push_back({path, kw});
        (void)in.drive.write_file(path, std::move(content));
      }
      Bytes contraband = diskimage::magic_jpeg();
      const Bytes payload = random_bytes(rng, kFileBytes);
      contraband.insert(contraband.end(), payload.begin(), payload.end());
      known.insert(crypto::Sha256::hex(contraband));
      // A live copy and a deleted one; nothing is written after the
      // deletion, so the deleted copy's sectors stay intact.
      (void)in.drive.write_file("/photos/IMG_0001.jpg", contraband);
      (void)in.drive.write_file("/photos/old.jpg", contraband);
      (void)in.drive.delete_file("/photos/old.jpg");

      const std::string address = "user" + std::to_string(v) + "@" +
                                  kProviderName;
      in.subscriber = "Subscriber " + std::to_string(v);
      in.account = provider_.create_account(
          address, {in.subscriber, std::to_string(v) + " Main St", "card"});
      for (int m = 0; m < 2; ++m) {
        auto id = provider_.deliver(address, "seller@market.example",
                                    "order " + std::to_string(m),
                                    random_bytes(rng, 64),
                                    SimTime::from_sec(3600.0 * m));
        if (id.ok()) in.probe = id.value();
        if (id.ok() && m == 0) {
          (void)provider_.open_message(id.value(), SimTime::from_sec(60));
        }
      }
      in.disclosure = static_cast<storedcomm::DisclosureKind>(v % 3);
      in.rogue = v % 4 == 3;
    }
    hash_searcher_.emplace(std::move(known));
    keyword_searcher_.emplace(
        std::vector<std::string>(kKeywords.begin(), kKeywords.end()));

    // Warm-up: one pass over the variants brings the verdict cache and
    // the allocator to steady state.
    for (std::size_t i = 0; i < kVariants; ++i) run(i);
  }

  void run(std::size_t i) override;
  [[nodiscard]] bool check(std::size_t i) override;
  [[nodiscard]] std::size_t period() const override { return kVariants; }

  void reset_counts() override {
    granted_ = {};
    refused_ = {};
  }

  void layer_counts(std::size_t /*ops*/,
                    std::vector<Metric>& out) const override {
    for (std::size_t s = 0; s < kSites; ++s) {
      out.push_back({std::string("admission.") + kSiteNames[s] + ".granted",
                     static_cast<double>(granted_[s]), "count"});
      out.push_back({std::string("admission.") + kSiteNames[s] + ".refused",
                     static_cast<double>(refused_[s]), "count"});
    }
  }

 private:
  const watermark::CorrelationKernel kernel_;
  storedcomm::Provider provider_;
  const Bytes case_key_;
  const lint::InvestigationPlan plan_;
  std::optional<diskimage::HashSearcher> hash_searcher_;
  std::optional<diskimage::KeywordSearcher> keyword_searcher_;
  legal::Scenario capture_scenario_;
  legal::Scenario tap_scenario_;
  legal::Scenario hash_scenario_;
  legal::Scenario keyword_scenario_;
  std::array<legal::Scenario, 3> disclosure_scenarios_;
  legal::Scenario rogue_scenario_;
  legal::Scenario fruit_scenario_;
  legal::ProcessScope order_scope_;
  legal::ProcessScope warrant_scope_;
  std::array<CaseInput, kVariants> inputs_;

  CaseOutcome out_;
  std::array<std::uint64_t, kSites> granted_{};
  std::array<std::uint64_t, kSites> refused_{};
};

void LiveCase::run(std::size_t i) {
  const CaseInput& in = inputs_[i % kVariants];
  CaseOutcome& out = out_;
  out = CaseOutcome{};
  const SimTime t0 = SimTime::zero();
  const legal::GrantedAuthority none;

  investigation::Court court;
  investigation::Investigation inv(CaseId{static_cast<CaseId::underlying_type>(i + 1)}, "live case",
                                   legal::CrimeCategory::kChildExploitation,
                                   court);
  for (const auto& fact : in.facts) inv.add_fact(fact);
  out.lint_clean = inv.lint_plan(plan_).clean();

  // The requirement at each site, with the engine's explanation of it.
  const legal::ComplianceEngine engine;
  const std::array<legal::Determination, kSites> why = {
      engine.evaluate(capture_scenario_), engine.evaluate(tap_scenario_),
      engine.evaluate(hash_scenario_), engine.evaluate(keyword_scenario_),
      provider_.required_process(in.disclosure, in.probe)};
  std::string memo;
  for (const auto& d : why) memo += d.report();
  out.memo_bytes = memo.size();

  const auto order =
      inv.apply_for(legal::ProcessKind::kCourtOrder, order_scope_, t0);
  const auto warrant =
      inv.apply_for(legal::ProcessKind::kSearchWarrant, warrant_scope_, t0);
  out.processes_granted = order.ok() && warrant.ok();
  if (!out.processes_granted) return;
  const legal::GrantedAuthority order_auth = inv.authority(order.value());
  const legal::GrantedAuthority warrant_auth = inv.authority(warrant.value());

  const auto site = [&](Site s, legal::ProcessKind req,
                        const legal::GrantedAuthority& held, bool refused_ok,
                        bool ok) {
    out.sites[s] = SiteOutcome{req, held.kind(), refused_ok, ok};
  };

  // --- capture and rate tap on one small network ----------------------
  netsim::Network net(i + 1);
  const NodeId suspect = net.add_node("suspect");
  const NodeId isp = net.add_node(kIsp);
  const NodeId peer = net.add_node("remote-peer");
  netsim::LinkConfig link;
  link.latency = SimDuration::from_ms(5);
  link.jitter = SimDuration::from_ms(2);
  (void)net.connect(suspect, isp, link);
  (void)net.connect(isp, peer, link);

  const legal::ProcessKind cap_req = required(why[kCaptureSite]);
  const legal::ProcessKind cap_floor =
      cap_req == legal::ProcessKind::kNone
          ? cap_req
          : legal::stricter(cap_req, capture::minimum_process(
                                         capture::CaptureMode::kPenTrap));
  const bool cap_refused_ok =
      capture::CaptureDevice::create(capture::CaptureMode::kPenTrap, none,
                                     cap_req, isp, kIsp, net.now())
          .ok();
  auto device_r = capture::CaptureDevice::create(
      capture::CaptureMode::kPenTrap, order_auth, cap_req, isp, kIsp,
      net.now());
  site(kCaptureSite, cap_floor, order_auth, cap_refused_ok, device_r.ok());
  // attach() binds the device's address: it must not move afterwards.
  std::optional<capture::CaptureDevice> device;
  if (device_r.ok()) {
    device.emplace(std::move(device_r).value());
    (void)device->attach(net);
  }

  stream::TapSessionConfig tap_cfg;
  tap_cfg.scenario = tap_scenario_;
  tap_cfg.location = kIsp;
  tap_cfg.target = suspect;
  tap_cfg.ring.start = t0;
  tap_cfg.ring.bin_width = SimDuration::from_ms(10);
  tap_cfg.ring.capacity = kernel_.length();
  const bool tap_refused_ok = stream::TapSession::create(kernel_, tap_cfg).ok();
  tap_cfg.authority = order_auth;
  auto tap_r = stream::TapSession::create(kernel_, tap_cfg);
  site(kTapSite, required(why[kTapSite]), order_auth, tap_refused_ok,
       tap_r.ok());
  std::optional<stream::TapSession> tap;
  if (tap_r.ok()) {
    tap.emplace(std::move(tap_r).value());
    (void)tap->attach(net);
  }

  for (std::size_t k = 0; k < kPackets; ++k) {
    const bool inbound = k < kPackets / 2;
    netsim::PacketHeader header;
    header.src = inbound ? peer : suspect;
    header.dst = inbound ? suspect : peer;
    header.payload_size = 64;
    (void)net.send(FlowId{1}, header, Bytes(64, 0x5A));
  }
  {
    const trace::Scope scope(trace::Layer::kNetsimRun);
    net.run();
  }
  if (tap) tap->pump(net.now());
  out.captured = device ? device->stats().packets_retained : 0;
  out.tapped = tap ? tap->stats().packets_seen : 0;

  // --- the seized drive -----------------------------------------------
  const legal::ProcessKind hash_req = required(why[kHashSite]);
  const bool hash_refused_ok =
      hash_searcher_->search(in.drive, none, hash_req, kDrive, t0).ok();
  auto hashes =
      hash_searcher_->search(in.drive, warrant_auth, hash_req, kDrive, t0);
  site(kHashSite, hash_req, warrant_auth, hash_refused_ok, hashes.ok());
  if (hashes.ok()) out.hash_hits = std::move(hashes).value();

  const legal::ProcessKind kw_req = required(why[kKeywordSite]);
  const bool kw_refused_ok =
      keyword_searcher_->search(in.drive, none, kw_req, kDrive, t0).ok();
  auto words =
      keyword_searcher_->search(in.drive, warrant_auth, kw_req, kDrive, t0);
  site(kKeywordSite, kw_req, warrant_auth, kw_refused_ok, words.ok());
  if (words.ok()) out.keyword_hits = std::move(words).value();

  // --- the provider -----------------------------------------------------
  const bool disc_refused_ok =
      provider_.compelled_disclosure(in.disclosure, in.account, none, t0)
          .ok();
  auto disclosed = provider_.compelled_disclosure(in.disclosure, in.account,
                                                  warrant_auth, t0);
  site(kDisclosureSite, required(why[kDisclosureSite]), warrant_auth,
       disc_refused_ok, disclosed.ok());
  if (disclosed.ok()) out.disclosure = std::move(disclosed).value();

  // --- custody ----------------------------------------------------------
  evidence::EvidenceLocker locker(case_key_);
  Bytes log;
  if (device) {
    for (const auto& rec : device->records()) {
      log.push_back(static_cast<std::uint8_t>(rec.header.payload_size));
    }
  }
  std::string hits;
  for (const auto& h : out.hash_hits) hits += h.path + ' ' + h.sha256_hex + '\n';
  std::string words_found;
  for (const auto& h : out.keyword_hits) {
    words_found += h.path + ' ' + h.keyword + '\n';
  }
  std::string records;
  if (out.disclosure) {
    if (out.disclosure->subscriber) records += out.disclosure->subscriber->name;
    for (const auto& line : out.disclosure->transaction_log) records += line;
    for (const auto& m : out.disclosure->messages) records += m.subject;
  }
  const SimTime now = net.now();
  (void)locker.deposit("pen/trap addressing log", std::move(log), "Agent V",
                       now);
  (void)locker.deposit("hash-search hits", to_bytes(hits), "Analyst K", now);
  (void)locker.deposit("keyword-search hits", to_bytes(words_found),
                       "Analyst K", now);
  (void)locker.deposit("provider disclosure", to_bytes(records), "Agent V",
                       now);
  (void)locker.deposit("legal memo", to_bytes(memo), "Counsel", now);
  out.deposits = locker.size();

  // --- acquisitions and the audit ----------------------------------------
  const auto record = [&](const legal::Scenario& s, const char* what,
                          const legal::GrantedAuthority& held,
                          std::vector<EvidenceId> from = {}) {
    const auto a = inv.acquire(s, what, held, std::move(from));
    out.lawful += a.lawful ? 1 : 0;
    out.lawful_expected += grants(held.kind(), required(a.determination));
    return a.evidence;
  };
  (void)record(capture_scenario_, "pen/trap collection", order_auth);
  (void)record(tap_scenario_, "rate series at the access link", order_auth);
  const EvidenceId hash_ev =
      record(hash_scenario_, "hash search of the drive", warrant_auth);
  (void)record(keyword_scenario_, "keyword search of the drive", warrant_auth,
               {hash_ev});
  (void)record(disclosure_scenarios_[static_cast<std::size_t>(in.disclosure)],
               "compelled disclosure", warrant_auth);
  if (in.rogue) {
    const EvidenceId bad = record(rogue_scenario_, "mail pulled without process",
                                  none);
    (void)record(fruit_scenario_, "leads mined from the pulled mail",
                 warrant_auth, {bad});
  }
  const legal::SuppressionReport audit = inv.admissibility_audit();
  out.admissible = audit.admissible_count;
  out.suppressed = audit.suppressed_count;
}

bool LiveCase::check(std::size_t i) {
  const CaseInput& in = inputs_[i % kVariants];
  const CaseOutcome& out = out_;
  if (!out.lint_clean || !out.processes_granted) return false;

  // Each site must grant exactly when the engine's requirement is met by
  // the authority held; the attempt without authority is planned to fail.
  for (std::size_t s = 0; s < kSites; ++s) {
    const SiteOutcome& site = out.sites[s];
    if (site.refused_attempt_granted !=
            grants(legal::ProcessKind::kNone, site.required) ||
        site.attempt_granted != grants(site.held, site.required)) {
      return false;
    }
    granted_[s] += (site.attempt_granted ? 1 : 0) +
                   (site.refused_attempt_granted ? 1 : 0);
    refused_[s] += (site.attempt_granted ? 0 : 1) +
                   (site.refused_attempt_granted ? 0 : 1);
  }

  // A pen/trap device at the ISP sees each packet on both of its links;
  // the rate tap counts arrivals at the suspect only.
  if (out.captured != 2 * kPackets || out.tapped != kPackets / 2) {
    return false;
  }
  // The live copy and the deleted copy of the contraband.
  if (out.hash_hits.size() != 2) return false;
  for (const Planted& p : in.planted) {
    bool found = false;
    for (const auto& h : out.keyword_hits) {
      found = found || (h.path == p.path && h.keyword == p.keyword &&
                        h.region == diskimage::HitRegion::kLiveFile);
    }
    if (!found) return false;
  }
  if (!out.disclosure || out.disclosure->kind != in.disclosure) return false;
  if (in.disclosure == storedcomm::DisclosureKind::kBasicSubscriber &&
      (!out.disclosure->subscriber ||
       out.disclosure->subscriber->name != in.subscriber)) {
    return false;
  }
  if (out.memo_bytes == 0 || out.deposits != 5) return false;

  // The five acquisitions at the sites are admissible; a rogue one and
  // the lead derived from it are suppressed.
  return out.lawful == out.lawful_expected && out.admissible == 5 &&
         out.suppressed == (in.rogue ? 2 : 0);
}

}  // namespace

std::unique_ptr<Workload> make_live_case(std::uint64_t seed) {
  return std::make_unique<LiveCase>(seed);
}

}  // namespace perfbench
