// RateRing: bounded-memory binning with exact drop accounting.  The
// ring must never grow, must classify every event it cannot hold, and
// must hand closed bins (including silent ones) to the consumer in
// order across arbitrary wraparounds.

#include "stream/rate_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace lexfor::stream {
namespace {

RateRingConfig config_ms(std::int64_t bin_ms, std::size_t capacity) {
  RateRingConfig c;
  c.start = SimTime::zero();
  c.bin_width = SimDuration::from_ms(static_cast<double>(bin_ms));
  c.capacity = capacity;
  return c;
}

TEST(RateRingTest, RejectsDegenerateConfig) {
  EXPECT_FALSE(RateRing::create(config_ms(10, 0)).ok());
  RateRingConfig zero_width = config_ms(0, 8);
  EXPECT_FALSE(RateRing::create(zero_width).ok());
  RateRingConfig negative = config_ms(10, 8);
  negative.bin_width = SimDuration::from_us(-5);
  EXPECT_FALSE(RateRing::create(negative).ok());
}

TEST(RateRingTest, RejectsCapacityPastTheBound) {
  for (const std::size_t capacity :
       {RateRing::kMaxCapacity + 1, SIZE_MAX / 4 + 2, SIZE_MAX}) {
    EXPECT_EQ(RateRing::create(config_ms(10, capacity)).status().code(),
              StatusCode::kInvalidArgument);
    std::uint32_t storage[2] = {};
    EXPECT_EQ(
        RateRing::create(config_ms(10, capacity), storage).status().code(),
        StatusCode::kInvalidArgument);
  }
}

TEST(RateRingTest, BinsEventsAndPopsClosedWindows) {
  auto ring = RateRing::create(config_ms(100, 8)).value();
  // Two events in bin 0, one in bin 1, silence in bin 2, one in bin 3.
  EXPECT_EQ(ring.record(SimTime::from_ms(10)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(99)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(150)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(390)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.occupancy(), 4u);

  std::vector<std::uint32_t> out;
  // At t=250ms, bins 0 and 1 are closed; bin 2 is still open.
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(250), out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2, 1}));

  // Closing through bin 3 pops the SILENT bin 2 as an explicit zero.
  out.clear();
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(400), out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ring.base_bin(), 4u);
  EXPECT_EQ(ring.occupancy(), 0u);
  EXPECT_EQ(ring.stats().recorded, 4u);
  EXPECT_EQ(ring.stats().bins_popped, 4u);
}

TEST(RateRingTest, ExactBoundaryBelongsToNextBin) {
  auto ring = RateRing::create(config_ms(100, 4)).value();
  ASSERT_EQ(ring.record(SimTime::from_ms(100)), RecordOutcome::kRecorded);
  std::vector<std::uint32_t> out;
  // now == bin 1's start: bin 0 closed (empty), bin 1 still open.
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(100), out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out.clear();
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(200), out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(RateRingTest, WraparoundReusesSlotsWithoutBleed) {
  // Capacity 4, many pop/record rounds: bin b lives at slot b % 4, so a
  // stale count in a recycled slot would corrupt a later bin.
  auto ring = RateRing::create(config_ms(10, 4)).value();
  std::vector<std::uint32_t> all;
  for (std::uint64_t bin = 0; bin < 25; ++bin) {
    const auto t0 = SimTime::from_us(static_cast<std::int64_t>(bin) * 10000);
    // bin b gets b % 3 events.
    for (std::uint64_t e = 0; e < bin % 3; ++e) {
      ASSERT_EQ(ring.record(
                    SimTime::from_us(t0.us + 1 + static_cast<std::int64_t>(e))),
                RecordOutcome::kRecorded);
    }
    ring.pop_closed(SimTime::from_us(t0.us + 10000), all);
  }
  ASSERT_EQ(all.size(), 25u);
  for (std::uint64_t bin = 0; bin < 25; ++bin) {
    EXPECT_EQ(all[bin], bin % 3) << "bin " << bin;
  }
  EXPECT_EQ(ring.stats().overflow_drops, 0u);
}

TEST(RateRingTest, DropAccountingIsExhaustive) {
  RateRingConfig cfg = config_ms(100, 4);
  cfg.start = SimTime::from_ms(1000);
  auto ring = RateRing::create(cfg).value();

  // Early: before the tap's start.
  EXPECT_EQ(ring.record(SimTime::from_ms(999)), RecordOutcome::kEarly);

  // Overflow: bin 5 while bins [0, 4) are retained and nothing popped.
  EXPECT_EQ(ring.record(SimTime::from_ms(1000)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(1550)), RecordOutcome::kOverflow);
  // The last in-window bin still records.
  EXPECT_EQ(ring.record(SimTime::from_ms(1399)), RecordOutcome::kRecorded);

  // Late: bin 0 after it has been popped.
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(1100), out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(ring.record(SimTime::from_ms(1050)), RecordOutcome::kLate);

  const auto& st = ring.stats();
  EXPECT_EQ(st.recorded, 2u);
  EXPECT_EQ(st.early_drops, 1u);
  EXPECT_EQ(st.late_drops, 1u);
  EXPECT_EQ(st.overflow_drops, 1u);
  EXPECT_EQ(st.offered(), 5u);

  // Capacity never grew.
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST(RateRingTest, OverflowedBinsPopAsZeros) {
  // Events dropped on overflow are NOT resurrected: when the consumer
  // finally drains past them, those bins read zero and the loss stays
  // visible only in the stats.
  auto ring = RateRing::create(config_ms(10, 2)).value();
  EXPECT_EQ(ring.record(SimTime::from_ms(5)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(35)), RecordOutcome::kOverflow);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(40), out), 4u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 0, 0, 0}));
  EXPECT_EQ(ring.stats().overflow_drops, 1u);
}

}  // namespace
}  // namespace lexfor::stream
