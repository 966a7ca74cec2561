// Latency of the fault-free wire: the calibrated Sec. 7.1 profile every
// paper table and example charges through LossyChannel's default schedule.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/net/lossy_channel.h"

namespace flicker {
namespace {

Bytes Msg(const char* s) { return BytesOf(s); }

TEST(ChannelTest, RoundTripIsTwoMessages) {
  // A request and its reply: two deliveries, and with a 9.45 ms average RTT
  // the pair lands within the profile's [9.33, 10.10] ms round trip.
  SimClock clock;
  LossyChannel channel(&clock);
  Bytes got;
  channel.Send(NetEndpoint::kClient, Msg("request"));
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  channel.Send(NetEndpoint::kServer, Msg("reply"));
  ASSERT_TRUE(channel.Receive(NetEndpoint::kClient, &got));
  EXPECT_EQ(got, Msg("reply"));
  EXPECT_EQ(channel.messages_delivered(), 2u);
  EXPECT_GE(clock.NowMillis(), 9.0);
  EXPECT_LE(clock.NowMillis(), 10.2);
}

TEST(ChannelTest, DefaultWireArrivalsKnownAnswer) {
  // Arrival instants of the first 8 messages on a fault-free seed-17 wire,
  // pinned from the latency-only channel this class replaced: the paper's
  // Table 1 and Fig. 9 latencies ride exactly these values.
  const uint64_t kArrivalNs[] = {4701000,  9397000,  14118000, 18933000,
                                 23648000, 28362000, 33059000, 37869000};
  SimClock clock;
  LossyChannel channel(&clock, LatencyProfile(), 17);
  for (uint64_t expected : kArrivalNs) {
    channel.Send(NetEndpoint::kClient, Msg("x"));
    Bytes got;
    ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
    EXPECT_EQ(clock.NowNanos(), expected);
  }
  EXPECT_EQ(channel.messages_delivered(), 8u);
  EXPECT_EQ(channel.faults_injected(), 0u);
}

TEST(ChannelTest, LatencyStaysWithinProfile) {
  // Every one-way latency lies in [min, max] RTT / 2 (to the clock's µs
  // grain), the mean RTT lands near the profile's average, and a wire with
  // the same seed replays the same stream - for the calibrated WAN profile
  // and a custom LAN one.
  const LatencyProfile lan{0.2, 0.3, 0.5, 1};
  for (const LatencyProfile& profile : {LatencyProfile(), lan}) {
    SimClock clock;
    LossyChannel channel(&clock, profile, 42);
    SimClock twin_clock;
    LossyChannel twin(&twin_clock, profile, 42);
    const int kTrials = 500;
    Bytes got;
    for (int i = 0; i < kTrials; ++i) {
      const double before_ms = clock.NowMillis();
      channel.Send(NetEndpoint::kClient, Msg("m"));
      ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
      const double one_way_ms = clock.NowMillis() - before_ms;
      EXPECT_GE(one_way_ms, profile.min_rtt_ms / 2.0 - 0.001);
      EXPECT_LE(one_way_ms, profile.max_rtt_ms / 2.0 + 0.001);
      twin.Send(NetEndpoint::kClient, Msg("m"));
      ASSERT_TRUE(twin.Receive(NetEndpoint::kServer, &got));
      EXPECT_EQ(twin_clock.NowNanos(), clock.NowNanos());
    }
    EXPECT_NEAR(2.0 * clock.NowMillis() / kTrials, profile.avg_rtt_ms,
                (profile.max_rtt_ms - profile.min_rtt_ms) / 4.0);
  }
}

}  // namespace
}  // namespace flicker
