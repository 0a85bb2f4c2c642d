// TapSession: legal admission gates ALL recording, the ring + online
// despreader detect a live watermark end to end, and overload /
// topology failure degrade to counted drops, never crashes.

#include "stream/tap_session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "legal/process.h"
#include "netsim/flow.h"
#include "util/arena.h"
#include "watermark/dsss.h"
#include "watermark/pn_code.h"

namespace lexfor::stream {
namespace {

using watermark::CorrelationKernel;
using watermark::PnCode;

// The §IV.B posture: law enforcement collecting non-content rates in
// real time.  The engine rules it Pen/Trap territory (court order).
legal::Scenario rate_collection_scenario() {
  return legal::Scenario{}
      .named("streaming non-content rate collection at the suspect's ISP")
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(legal::DataKind::kAddressing)
      .located(legal::DataState::kInTransit)
      .when(legal::Timing::kRealTime);
}

legal::GrantedAuthority court_order_authority() {
  legal::LegalProcess order;
  order.kind = legal::ProcessKind::kCourtOrder;
  order.scope.data_kinds = {legal::DataKind::kAddressing};
  order.issued_at = SimTime::zero();
  order.validity = SimDuration::from_sec(30 * 24 * 3600.0);
  return legal::GrantedAuthority{order};
}

TapSessionConfig base_config(NodeId target, SimDuration bin_width,
                             std::size_t capacity) {
  TapSessionConfig cfg;
  cfg.scenario = rate_collection_scenario();
  cfg.authority = court_order_authority();
  cfg.target = target;
  cfg.ring.start = SimTime::zero();
  cfg.ring.bin_width = bin_width;
  cfg.ring.capacity = capacity;
  return cfg;
}

netsim::Packet make_packet(NodeId src, NodeId dst) {
  netsim::Packet p;
  p.header.src = src;
  p.header.dst = dst;
  return p;
}

TEST(TapSessionTest, CompliantScenarioWithCourtOrderIsAdmitted) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  netsim::Network net(1);
  const auto isp = net.add_node("isp");
  const auto suspect = net.add_node("suspect");
  ASSERT_TRUE(net.connect(isp, suspect).ok());

  auto session_r = TapSession::create(
      kernel, base_config(suspect, SimDuration::from_ms(100.0), 64));
  ASSERT_TRUE(session_r.ok()) << session_r.status().message();
  auto session = std::move(session_r).value();
  EXPECT_TRUE(session.attach(net).ok());
  EXPECT_EQ(session.admission().required_process,
            legal::ProcessKind::kCourtOrder);
}

TEST(TapSessionTest, NonCompliantScenarioRecordsZeroBins) {
  // Content interception in real time needs a WIRETAP order; holding a
  // mere pen/trap court order, the tap must refuse to exist — zero bins
  // recorded is by construction, not by filtering.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  netsim::Network net(1);
  const auto suspect = net.add_node("suspect");

  auto cfg = base_config(suspect, SimDuration::from_ms(100.0), 64);
  cfg.scenario = cfg.scenario.named("full-content intercept, court order only")
                     .acquiring(legal::DataKind::kContent);
  const auto session_r = TapSession::create(kernel, cfg);
  ASSERT_FALSE(session_r.ok());
  EXPECT_EQ(session_r.status().code(), StatusCode::kPermissionDenied);
}

TEST(TapSessionTest, NoProcessHeldIsRefused) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  netsim::Network net(1);
  const auto suspect = net.add_node("suspect");

  auto cfg = base_config(suspect, SimDuration::from_ms(100.0), 64);
  cfg.authority = legal::GrantedAuthority{};  // nothing held
  const auto session_r = TapSession::create(kernel, cfg);
  ASSERT_FALSE(session_r.ok());
  EXPECT_EQ(session_r.status().code(), StatusCode::kPermissionDenied);
}

TEST(TapSessionTest, MaxOffsetWhoseWindowOverflowsIsInvalidArgument) {
  // The despread window is kernel.length() + max_offset doubles; a
  // max_offset that wraps that sum must be refused by both overloads
  // before anything is allocated.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  const std::size_t n = kernel.length();
  for (const std::size_t max_offset : {SIZE_MAX - n + 1, SIZE_MAX}) {
    auto cfg = base_config(NodeId{1}, SimDuration::from_ms(100.0), 64);
    cfg.max_offset = max_offset;
    EXPECT_EQ(TapSession::create(kernel, cfg).status().code(),
              StatusCode::kInvalidArgument);
    util::Arena arena;
    EXPECT_EQ(TapSession::create(kernel, cfg, arena).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(arena.bytes_allocated(), 0u);
  }
}

TEST(TapSessionTest, ExtremeMaxOffsetIsInvalidArgumentOnBothPaths) {
  // A window past OnlineDespreader::kMaxWindow doubles (but not wrapping
  // std::size_t) must be a Status on both overloads, not a throw from
  // the heap allocation or the arena, and must leave the arena as it was.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  const std::size_t n = kernel.length();
  constexpr std::size_t kMax = OnlineDespreader::kMaxWindow;
  ASSERT_EQ(OnlineDespreader::window_capacity(kernel, kMax - n).value(), kMax);
  for (const std::size_t max_offset : {SIZE_MAX / 16, kMax, kMax - n + 1}) {
    auto cfg = base_config(NodeId{1}, SimDuration::from_ms(100.0), 64);
    cfg.max_offset = max_offset;
    EXPECT_EQ(TapSession::create(kernel, cfg).status().code(),
              StatusCode::kInvalidArgument);
    util::Arena arena;
    EXPECT_EQ(TapSession::create(kernel, cfg, arena).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    EXPECT_EQ(arena.chunk_count(), 0u);
  }
}

TEST(TapSessionTest, ExtremeRingCapacityIsInvalidArgumentOnBothPaths) {
  // SIZE_MAX / 4 + 2 counters wrap to an 8-byte slab when multiplied
  // out; SIZE_MAX wraps the heap path's allocation size.  Both must be
  // refused as a Status, with nothing allocated, on both overloads.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  for (const std::size_t capacity : {SIZE_MAX / 4 + 2, SIZE_MAX}) {
    const auto cfg = base_config(NodeId{1}, SimDuration::from_ms(100.0),
                                 capacity);
    EXPECT_EQ(TapSession::create(kernel, cfg).status().code(),
              StatusCode::kInvalidArgument);
    util::Arena arena;
    EXPECT_EQ(TapSession::create(kernel, cfg, arena).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    EXPECT_EQ(arena.chunk_count(), 0u);
  }
}

TEST(TapSessionTest, DetectsLiveWatermarkEndToEnd) {
  // Server modulates its send rate with the PN code; the tap at the
  // suspect's access node must find the mark from live traversals.
  const auto code = PnCode::m_sequence(6).value();  // 63 chips
  const CorrelationKernel kernel(code);
  const SimDuration chip = SimDuration::from_ms(200.0);

  netsim::Network net(42);
  const auto server = net.add_node("server");
  const auto isp = net.add_node("isp");
  const auto suspect = net.add_node("suspect");
  netsim::LinkConfig fast;
  fast.latency = SimDuration::from_ms(1.0);
  ASSERT_TRUE(net.connect(server, isp, fast).ok());
  ASSERT_TRUE(net.connect(isp, suspect, fast).ok());

  watermark::EmbedParams ep;
  ep.start = SimTime::zero();
  ep.chip_duration = chip;
  ep.depth = 0.5;
  const watermark::Embedder embedder(code, ep);

  netsim::FlowConfig fc;
  fc.id = FlowId{1};
  fc.src = server;
  fc.dst = suspect;
  fc.packets_per_sec = 200.0;
  fc.start = SimTime::zero();
  fc.stop = embedder.end();
  netsim::FlowSource flow(net, fc, netsim::ArrivalProcess::kPoisson, 7,
                          [&embedder](SimTime t) {
                            return embedder.multiplier(t);
                          });

  auto session_r =
      TapSession::create(kernel, base_config(suspect, chip, code.length() + 8));
  ASSERT_TRUE(session_r.ok());
  auto session = std::move(session_r).value();
  ASSERT_TRUE(session.attach(net).ok());

  flow.start();
  net.run();
  session.pump(net.now() + chip);  // flush the final chip bin

  EXPECT_TRUE(session.verdict().complete);
  EXPECT_TRUE(session.verdict().scan.best.detected)
      << "correlation " << session.verdict().scan.best.correlation
      << " threshold " << session.verdict().scan.best.threshold;
  EXPECT_GT(session.stats().packets_seen, 1000u);
  EXPECT_EQ(session.stats().packets_seen, session.ring().stats().recorded);
  // Bounded memory: the ring never held more than its capacity.
  EXPECT_LE(session.ring().occupancy(), session.ring().capacity());
}

TEST(TapSessionTest, UnmarkedTrafficStaysBelowThreshold) {
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  const SimDuration chip = SimDuration::from_ms(200.0);

  netsim::Network net(42);
  const auto server = net.add_node("server");
  const auto suspect = net.add_node("suspect");
  ASSERT_TRUE(net.connect(server, suspect).ok());

  netsim::FlowConfig fc;
  fc.id = FlowId{1};
  fc.src = server;
  fc.dst = suspect;
  fc.packets_per_sec = 200.0;
  fc.stop = SimTime::from_sec(chip.seconds() *
                              static_cast<double>(code.length()));
  netsim::FlowSource flow(net, fc, netsim::ArrivalProcess::kPoisson, 7);

  auto session_r =
      TapSession::create(kernel, base_config(suspect, chip, code.length() + 8));
  ASSERT_TRUE(session_r.ok());
  auto session = std::move(session_r).value();
  ASSERT_TRUE(session.attach(net).ok());

  flow.start();
  net.run();
  session.pump(net.now() + chip);

  ASSERT_TRUE(session.verdict().complete);
  EXPECT_FALSE(session.verdict().scan.best.detected);
}

TEST(TapSessionTest, OutOfWindowTraversalsAreCountedDropsNotCrashes) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  netsim::Network net(1);
  const auto isp = net.add_node("isp");
  const auto suspect = net.add_node("suspect");
  const auto link = net.connect(isp, suspect).value();

  auto cfg = base_config(suspect, SimDuration::from_ms(100.0), 4);
  cfg.ring.start = SimTime::from_ms(500);
  auto session = TapSession::create(kernel, cfg).value();

  const auto pkt = make_packet(isp, suspect);
  // Early event (before the tap window), two normal ones, then a LATE
  // one — its bin was already drained by the auto-pump.
  session.on_traversal({pkt, link, isp, suspect, SimTime::from_ms(100)});
  session.on_traversal({pkt, link, isp, suspect, SimTime::from_ms(550)});
  session.on_traversal({pkt, link, isp, suspect, SimTime::from_ms(700)});
  session.on_traversal({pkt, link, isp, suspect, SimTime::from_ms(610)});

  const auto& rs = session.ring().stats();
  EXPECT_EQ(rs.early_drops, 1u);
  EXPECT_EQ(rs.late_drops, 1u);
  EXPECT_EQ(rs.recorded, 2u);
  EXPECT_EQ(session.stats().packets_seen, 4u);
  // Traffic in the other direction is counted separately, not binned.
  session.on_traversal({pkt, link, suspect, isp, SimTime::from_ms(800)});
  EXPECT_EQ(session.stats().foreign_packets, 1u);
  EXPECT_EQ(rs.recorded, 2u);
}

TEST(TapSessionTest, SurvivesMidFlightLinkRemoval) {
  // The suspect's access link vanishes mid-observation: in-flight
  // packets are dropped (counted by netsim), the tap keeps its
  // accounting consistent and the session simply sees fewer packets.
  const auto code = PnCode::m_sequence(5).value();  // 31 chips
  const CorrelationKernel kernel(code);
  const SimDuration chip = SimDuration::from_ms(100.0);

  netsim::Network net(13);
  const auto server = net.add_node("server");
  const auto isp = net.add_node("isp");
  const auto suspect = net.add_node("suspect");
  ASSERT_TRUE(net.connect(server, isp).ok());
  const auto access = net.connect(isp, suspect).value();

  netsim::FlowConfig fc;
  fc.id = FlowId{1};
  fc.src = server;
  fc.dst = suspect;
  fc.packets_per_sec = 300.0;
  fc.stop = SimTime::from_sec(3.1);
  netsim::FlowSource flow(net, fc, netsim::ArrivalProcess::kPoisson, 5);

  auto session =
      TapSession::create(kernel, base_config(suspect, chip, 64)).value();
  ASSERT_TRUE(session.attach(net).ok());

  flow.start();
  net.clock().schedule_at(SimTime::from_sec(1.5),
                          [&net, access] { (void)net.disconnect(access); });
  net.run();
  session.pump(net.now() + chip);

  EXPECT_EQ(net.packets_sent(),
            net.packets_delivered() + net.packets_dropped());
  EXPECT_GT(net.packets_dropped(), 0u);
  EXPECT_GT(session.stats().packets_seen, 0u);
  // No packet reaches the suspect after the cut; everything the tap saw
  // is accounted for in the ring.
  EXPECT_EQ(session.stats().packets_seen, session.ring().stats().offered());
}

}  // namespace
}  // namespace lexfor::stream
