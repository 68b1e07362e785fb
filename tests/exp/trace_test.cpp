// Tests for the Fig. 15 throughput series: receiver bytes bucketed into
// 60 ms windows and read back as Mbps samples.
#include "exp/trace.h"

#include <gtest/gtest.h>

#include "telemetry/timeseries.h"

namespace halfback::exp {
namespace {

using namespace halfback::sim::literals;

TEST(TimeSeriesTest, BucketsBytesByTime) {
  telemetry::WindowSeries series{"flow", 60_ms, 64};
  series.tally_bytes(10_ms, 7500);    // bucket 0
  series.tally_bytes(70_ms, 15000);   // bucket 1
  series.tally_bytes(119_ms, 7500);   // bucket 1
  auto samples = throughput_samples(series);
  ASSERT_EQ(samples.size(), 2u);
  // 7500 B / 60 ms = 1 Mbps.
  EXPECT_NEAR(samples[0].mbps, 1.0, 1e-9);
  EXPECT_NEAR(samples[1].mbps, 3.0, 1e-9);
  EXPECT_EQ(samples[0].bucket_start, sim::Time::zero());
  EXPECT_EQ(samples[1].bucket_start, 60_ms);
  EXPECT_EQ(series.window(0).bytes + series.window(1).bytes, 30000u);
}

TEST(TimeSeriesTest, GapsAreZero) {
  telemetry::WindowSeries series{"flow", 60_ms, 64};
  series.tally_bytes(sim::Time::zero(), 100);
  series.tally_bytes(200_ms, 100);  // bucket 3
  auto samples = throughput_samples(series);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples[1].mbps, 0.0);
  EXPECT_DOUBLE_EQ(samples[2].mbps, 0.0);
}

}  // namespace
}  // namespace halfback::exp
