// The verifier-farm health tracker's hedge delay: the p95 rule, its warm-up
// default, its clamps, and the gray-speed filter on pooled samples.

#include "src/attest/verifier_health.h"

#include <gtest/gtest.h>

namespace flicker {
namespace {

// Pools `count` healthy acks of first_ms, first_ms + 1, ... on verifier 0.
void PoolAcks(VerifierHealthTracker* tracker, int count, double first_ms) {
  for (int i = 0; i < count; ++i) {
    tracker->OnDispatch(0);
    tracker->OnSuccess(0, first_ms + i, /*now_ms=*/1000.0 + i);
  }
}

TEST(VerifierHealthTest, DefaultUntilMinSamples) {
  VerifierHealthConfig config;
  VerifierHealthTracker tracker(config);
  EXPECT_EQ(tracker.HedgeDelayMs(), config.hedge_default_ms);
  PoolAcks(&tracker, config.min_samples - 1, 101.0);
  EXPECT_EQ(tracker.HedgeDelayMs(), config.hedge_default_ms);
  PoolAcks(&tracker, 1, 101.0);
  EXPECT_NE(tracker.HedgeDelayMs(), config.hedge_default_ms);
}

TEST(VerifierHealthTest, P95IsOneBasedRankOfRoundedNinetyFivePercent) {
  // 11 samples: rank round(0.95 * 11) = 10, the 10th smallest (110 ms) -
  // one below the campaigns' round(p * (n - 1)) rule, which picks 111 ms.
  VerifierHealthTracker tracker{VerifierHealthConfig()};
  PoolAcks(&tracker, 11, 101.0);
  EXPECT_EQ(tracker.HedgeDelayMs(), 110.0);
}

TEST(VerifierHealthTest, HedgeDelayIsClamped) {
  VerifierHealthConfig floor_config;
  floor_config.hedge_min_ms = 150.0;
  VerifierHealthTracker floored(floor_config);
  PoolAcks(&floored, 11, 101.0);
  EXPECT_EQ(floored.HedgeDelayMs(), 150.0);

  VerifierHealthConfig ceiling_config;
  ceiling_config.hedge_max_ms = 105.0;
  VerifierHealthTracker capped(ceiling_config);
  PoolAcks(&capped, 11, 101.0);
  EXPECT_EQ(capped.HedgeDelayMs(), 105.0);
}

TEST(VerifierHealthTest, GraySpeedAckIsNotPooled) {
  VerifierHealthTracker tracker{VerifierHealthConfig()};
  PoolAcks(&tracker, 11, 101.0);
  ASSERT_EQ(tracker.HedgeDelayMs(), 110.0);
  // Slower than twice the current hedge delay (220 ms): the gray-failure
  // signature, kept out of the pool. Pooled, it would make 12 samples and
  // move the p95 to 111 ms.
  tracker.OnDispatch(0);
  tracker.OnSuccess(0, 221.0, 2000.0);
  EXPECT_EQ(tracker.HedgeDelayMs(), 110.0);
  // A healthy-speed ack still is pooled.
  tracker.OnDispatch(0);
  tracker.OnSuccess(0, 112.0, 2001.0);
  EXPECT_EQ(tracker.HedgeDelayMs(), 111.0);
}

}  // namespace
}  // namespace flicker
