// The one admission gate, driven through every acquisition site.
//
// Capture devices, streaming taps, hash and keyword searches of a disk
// image and compelled provider disclosures each pass legal::admit.  For
// randomized (requirement, held instrument, data kind, location, time)
// inputs this test asks the gate directly what it decides, then makes
// the same attempt at the site and holds the site to three things:
//
//   - it refuses exactly when admit refuses, with the same status;
//   - the attempt leaves exactly one kAudit "legal"/"admission" event,
//     carrying the six schema fields with the attempt's values;
//   - exactly one of legal.admission.<site>.{granted,refused} moves.
//
// gtest_discover_tests runs each test in its own process, so raising
// the global trace level here does not leak into other tests.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "capture/capture.h"
#include "diskimage/hash_search.h"
#include "diskimage/keyword_search.h"
#include "legal/admission.h"
#include "legal/engine.h"
#include "legal/scene_table.h"
#include "obs/obs.h"
#include "storedcomm/provider.h"
#include "stream/tap_session.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "watermark/pn_code.h"

namespace lexfor {
namespace {

using legal::AdmissionRequest;
using legal::AdmissionSite;
using legal::DataKind;
using legal::ProcessKind;

constexpr std::array<const char*, 4> kLocations = {
    "suspect-isp", "suspect-hdd", "mail.example", "elsewhere"};
constexpr std::array<DataKind, 4> kDataKinds = {
    DataKind::kContent, DataKind::kAddressing, DataKind::kSubscriberRecords,
    DataKind::kTransactionalRecords};

[[nodiscard]] ProcessKind random_process(Rng& rng) {
  return static_cast<ProcessKind>(
      rng.uniform(static_cast<std::uint64_t>(ProcessKind::kWiretapOrder) + 1));
}

[[nodiscard]] SimTime random_time(Rng& rng) {
  return SimTime::from_sec(static_cast<double>(rng.uniform(40)) * 86400.0);
}

// Nothing held, or one instrument of random kind whose scope may or may
// not cover the data kind and location and which may have lapsed by the
// time of the attempt.
[[nodiscard]] legal::GrantedAuthority random_authority(Rng& rng) {
  if (rng.bernoulli(0.2)) return legal::GrantedAuthority{};
  legal::LegalProcess process;
  process.id = ProcessId{1 + rng.uniform(100)};
  process.kind = random_process(rng);
  for (const DataKind kind : kDataKinds) {
    if (rng.bernoulli(0.4)) process.scope.data_kinds.push_back(kind);
  }
  for (const char* location : kLocations) {
    if (rng.bernoulli(0.4)) process.scope.locations.emplace_back(location);
  }
  process.issued_at = SimTime::from_sec(86400.0 * rng.uniform(10));
  process.validity = SimDuration::from_sec(86400.0 * (1 + rng.uniform(30)));
  return legal::GrantedAuthority{process};
}

// The six-field schema, parsed back out of an event's args.  Unused
// when -DLEXFOR_OBS=OFF erases the events.
[[nodiscard, maybe_unused]] std::map<std::string, std::string> parse_args(
    const std::string& args) {
  std::map<std::string, std::string> fields;
  for (const std::string& pair : split(args, ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      fields["<malformed>"] = pair;
    } else {
      fields[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  return fields;
}

[[nodiscard]] std::vector<obs::TraceEvent> admission_events() {
  std::vector<obs::TraceEvent> out;
  for (const auto& ev : obs::tracer().ring().snapshot()) {
    if (ev.category == "legal" && ev.name == "admission") out.push_back(ev);
  }
  return out;
}

[[nodiscard]] std::uint64_t admission_count(AdmissionSite site,
                                            std::string_view outcome) {
  return obs::metrics()
      .counter("legal.admission." + std::string(to_string(site)) + "." +
               std::string(outcome))
      .value();
}

// Both outcomes, tallied so each test can show its inputs reach both.
struct Outcomes {
  int granted = 0;
  int refused = 0;
};

// Records what the gate decides for `request`, then runs `attempt` (the
// site) and checks its outcome and its audit trail against that.
template <typename Attempt>
void expect_site_matches_gate(Outcomes& outcomes,
                              const AdmissionRequest& request,
                              const legal::GrantedAuthority& held,
                              Attempt attempt, const std::string& what) {
  SCOPED_TRACE(what);
  const Status expected = legal::admit(request, held);
  ++(expected.ok() ? outcomes.granted : outcomes.refused);

  obs::tracer().ring().clear();
  const std::uint64_t granted_before =
      admission_count(request.site, "granted");
  const std::uint64_t refused_before =
      admission_count(request.site, "refused");

  const Status got = attempt();

  EXPECT_EQ(got.ok(), expected.ok());
  EXPECT_EQ(got.code(), expected.code());
  EXPECT_EQ(got.message(), expected.message());

  const auto events = admission_events();
#if !LEXFOR_OBS
  // -DLEXFOR_OBS=OFF erases the audit trail: no event, no counter.
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(admission_count(request.site, "granted"), granted_before);
  EXPECT_EQ(admission_count(request.site, "refused"), refused_before);
#else
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].level, obs::Level::kAudit);
  EXPECT_EQ(events[0].sim_us, request.now.us);
  const auto fields = parse_args(events[0].args);
  EXPECT_EQ(fields.size(), 6u) << events[0].args;
  for (const char* key :
       {"site", "scenario", "required", "held", "outcome", "reason"}) {
    EXPECT_EQ(fields.count(key), 1u) << key << " in " << events[0].args;
  }
  EXPECT_EQ(fields.at("site"), to_string(request.site));
  EXPECT_EQ(fields.at("required"), to_string(request.required));
  EXPECT_EQ(fields.at("held"), to_string(held.kind()));
  EXPECT_EQ(fields.at("outcome"), expected.ok() ? "granted" : "refused");
  EXPECT_FALSE(fields.at("reason").empty());

  EXPECT_EQ(admission_count(request.site, "granted"),
            granted_before + (expected.ok() ? 1 : 0));
  EXPECT_EQ(admission_count(request.site, "refused"),
            refused_before + (expected.ok() ? 0 : 1));
#endif  // LEXFOR_OBS
}

class AdmissionGateTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::tracer().set_level(obs::Level::kAudit); }
  void TearDown() override { obs::tracer().set_level(obs::Level::kOff); }
};

TEST_F(AdmissionGateTest, CaptureDevicesRefuseExactlyWhenTheGateDoes) {
  Rng rng(101);
  Outcomes outcomes;
  for (int trial = 0; trial < 300; ++trial) {
    const auto mode = static_cast<capture::CaptureMode>(rng.uniform(4));
    const ProcessKind required = random_process(rng);
    const legal::GrantedAuthority held = random_authority(rng);
    const std::string location = kLocations[rng.uniform(kLocations.size())];
    const SimTime now = random_time(rng);
    // The site's own part: the statutory floor of its mode.
    const AdmissionRequest request{
        .site = AdmissionSite::kCapture,
        .scenario = {},
        .required = required == ProcessKind::kNone
                        ? ProcessKind::kNone
                        : legal::stricter(required,
                                          capture::minimum_process(mode)),
        .data = mode == capture::CaptureMode::kFullContent
                    ? DataKind::kContent
                    : DataKind::kAddressing,
        .location = location,
        .now = now};
    expect_site_matches_gate(
        outcomes, request, held,
        [&] {
          return capture::CaptureDevice::create(mode, held, required,
                                                NodeId{1}, location, now)
              .status();
        },
        "capture trial " + std::to_string(trial));
  }
  EXPECT_GE(outcomes.granted, 20);
  EXPECT_GE(outcomes.refused, 20);
}

TEST_F(AdmissionGateTest, StreamTapsRefuseExactlyWhenTheGateDoes) {
  const auto code = watermark::PnCode::m_sequence(5).value();
  const watermark::CorrelationKernel kernel(code);
  const auto scenes = legal::library::scenes();
  const legal::ComplianceEngine engine;
  Rng rng(202);
  Outcomes outcomes;
  for (int trial = 0; trial < 300; ++trial) {
    stream::TapSessionConfig cfg;
    cfg.scenario = scenes[rng.uniform(scenes.size())].build();
    cfg.authority = random_authority(rng);
    cfg.location = kLocations[rng.uniform(kLocations.size())];
    cfg.target = NodeId{1};
    cfg.ring.start = random_time(rng);
    cfg.ring.bin_width = SimDuration::from_ms(100.0);
    cfg.ring.capacity = 64;
    // The site's own part: the engine's verdict on the scenario.
    const legal::Determination d = engine.evaluate(cfg.scenario);
    const AdmissionRequest request{
        .site = AdmissionSite::kStreamTap,
        .scenario = cfg.scenario.name,
        .required = d.needs_process ? d.required_process : ProcessKind::kNone,
        .data = cfg.scenario.data,
        .location = cfg.location,
        .now = cfg.ring.start};
    const bool arena_path = rng.bernoulli(0.5);
    expect_site_matches_gate(
        outcomes, request, cfg.authority,
        [&] {
          if (!arena_path) {
            return stream::TapSession::create(kernel, cfg).status();
          }
          util::Arena arena;
          Status s = stream::TapSession::create(kernel, cfg, arena).status();
          // A refused tap takes nothing from the arena.
          if (!s.ok()) {
            EXPECT_EQ(arena.bytes_allocated(), 0u);
          }
          return s;
        },
        "tap trial " + std::to_string(trial));
  }
  EXPECT_GE(outcomes.granted, 20);
  EXPECT_GE(outcomes.refused, 20);
}

TEST_F(AdmissionGateTest, DiskSearchesRefuseExactlyWhenTheGateDoes) {
  diskimage::DiskImage drive;
  (void)drive.write_file("/docs/ledger.txt", to_bytes("the ledger"));
  const diskimage::HashSearcher hashes(std::unordered_set<std::string>{});
  const diskimage::KeywordSearcher keywords({"ledger"});
  Rng rng(303);
  Outcomes outcomes;
  for (int trial = 0; trial < 300; ++trial) {
    const ProcessKind required = random_process(rng);
    const legal::GrantedAuthority held = random_authority(rng);
    const std::string location = kLocations[rng.uniform(kLocations.size())];
    const SimTime now = random_time(rng);
    AdmissionRequest request{.site = AdmissionSite::kHashSearch,
                             .scenario = {},
                             .required = required,
                             .data = DataKind::kContent,
                             .location = location,
                             .now = now};
    expect_site_matches_gate(
        outcomes, request, held,
        [&] {
          return hashes.search(drive, held, required, location, now).status();
        },
        "hash trial " + std::to_string(trial));
    request.site = AdmissionSite::kKeywordSearch;
    expect_site_matches_gate(
        outcomes, request, held,
        [&] {
          return keywords.search(drive, held, required, location, now)
              .status();
        },
        "keyword trial " + std::to_string(trial));
  }
  EXPECT_GE(outcomes.granted, 20);
  EXPECT_GE(outcomes.refused, 20);
}

TEST_F(AdmissionGateTest, ProviderDisclosuresRefuseExactlyWhenTheGateDoes) {
  storedcomm::Provider provider("mail.example",
                                storedcomm::ProviderPublicity::kPublic);
  const AccountId account = provider.create_account(
      "suspect@mail.example", {"A. Suspect", "1 Main St", "card"});
  const auto probe =
      provider.deliver("suspect@mail.example", "seller@market.example",
                       "order", to_bytes("two units"), SimTime::zero());
  ASSERT_TRUE(probe.ok());
  Rng rng(404);
  Outcomes outcomes;
  for (int trial = 0; trial < 300; ++trial) {
    const auto kind = static_cast<storedcomm::DisclosureKind>(rng.uniform(3));
    const legal::GrantedAuthority held = random_authority(rng);
    const SimTime now = random_time(rng);
    // The site's own part: the provider's requirement for the records.
    const legal::Determination d =
        provider.required_process(kind, probe.value());
    const AdmissionRequest request{
        .site = AdmissionSite::kDisclosure,
        .scenario = d.scenario_name,
        .required = d.required_process,
        .data = kind == storedcomm::DisclosureKind::kContent
                    ? DataKind::kContent
                : kind == storedcomm::DisclosureKind::kBasicSubscriber
                    ? DataKind::kSubscriberRecords
                    : DataKind::kTransactionalRecords,
        .location = provider.name(),
        .now = now};
    expect_site_matches_gate(
        outcomes, request, held,
        [&] {
          return provider.compelled_disclosure(kind, account, held, now)
              .status();
        },
        "disclosure trial " + std::to_string(trial));
  }
  EXPECT_GE(outcomes.granted, 20);
  EXPECT_GE(outcomes.refused, 20);
}

TEST_F(AdmissionGateTest, AttemptsStoppedBeforeTheGateLeaveNoAdmissionRecord) {
  const auto code = watermark::PnCode::m_sequence(5).value();
  const watermark::CorrelationKernel kernel(code);
  obs::tracer().ring().clear();

  // Invalid targets and an overflowing despread window are argument
  // errors, not admission decisions.
  EXPECT_EQ(capture::CaptureDevice::create(capture::CaptureMode::kPenTrap,
                                           legal::GrantedAuthority{},
                                           ProcessKind::kNone, NodeId{},
                                           "suspect-isp", SimTime::zero())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  stream::TapSessionConfig cfg;
  cfg.target = NodeId{1};
  cfg.ring.bin_width = SimDuration::from_ms(100.0);
  cfg.ring.capacity = 64;
  cfg.max_offset = SIZE_MAX;
  EXPECT_EQ(stream::TapSession::create(kernel, cfg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(admission_events().empty());
}

}  // namespace
}  // namespace lexfor
