// Tests for the sweep engines behind Figs. 1, 11, 12, 13, 14 and 17.
#include <gtest/gtest.h>

#include "exp/sweep.h"

namespace halfback::exp {
namespace {

using namespace halfback::sim::literals;

UtilizationSweepConfig small_sweep() {
  UtilizationSweepConfig config;
  config.utilizations = {0.10, 0.40};
  config.duration = 8_s;
  config.threads = 2;
  return config;
}

TEST(UtilizationSweepTest, ProducesCellPerSchemePerUtilization) {
  constexpr std::array<schemes::Scheme, 2> set{schemes::Scheme::tcp,
                                               schemes::Scheme::halfback};
  auto cells = utilization_sweep(small_sweep(), set);
  ASSERT_EQ(cells.size(), 4u);
  // Layout: utilization-major, scheme-minor.
  EXPECT_EQ(cells[0].scheme, schemes::Scheme::tcp);
  EXPECT_EQ(cells[1].scheme, schemes::Scheme::halfback);
  EXPECT_DOUBLE_EQ(cells[0].utilization, 0.10);
  EXPECT_DOUBLE_EQ(cells[2].utilization, 0.40);
  for (const SweepCell& cell : cells) {
    EXPECT_GT(cell.flows, 0u);
    EXPECT_GT(cell.mean_fct_ms, 50.0);
    EXPECT_LT(cell.mean_fct_ms, 10'000.0);
    EXPECT_EQ(cell.audit_violations, 0u);
  }
}

TEST(UtilizationSweepTest, SharedScheduleAcrossSchemes) {
  constexpr std::array<schemes::Scheme, 2> set{schemes::Scheme::tcp,
                                               schemes::Scheme::tcp10};
  auto cells = utilization_sweep(small_sweep(), set);
  // Same arrivals at a given utilization: same flow counts.
  EXPECT_EQ(cells[0].flows, cells[1].flows);
  EXPECT_EQ(cells[2].flows, cells[3].flows);
}

TEST(UtilizationSweepTest, PacedSchemeFasterAtLowLoad) {
  constexpr std::array<schemes::Scheme, 2> set{schemes::Scheme::tcp,
                                               schemes::Scheme::halfback};
  auto cells = utilization_sweep(small_sweep(), set);
  EXPECT_LT(cells[1].mean_fct_ms, cells[0].mean_fct_ms);
}

TEST(FeasibleCapacityHelpersTest, MapPerScheme) {
  std::vector<SweepCell> cells;
  for (double u : {0.1, 0.5, 0.9}) {
    SweepCell tcp;
    tcp.scheme = schemes::Scheme::tcp;
    tcp.utilization = u;
    tcp.mean_fct_ms = tcp.median_fct_ms = 100;
    cells.push_back(tcp);
    SweepCell hb;
    hb.scheme = schemes::Scheme::halfback;
    hb.utilization = u;
    hb.mean_fct_ms = hb.median_fct_ms = u > 0.4 ? 1000 : 100;
    cells.push_back(hb);
  }
  auto capacities = feasible_capacities(cells);
  EXPECT_DOUBLE_EQ(capacities[schemes::Scheme::tcp], 0.9);
  EXPECT_DOUBLE_EQ(capacities[schemes::Scheme::halfback], 0.1);
  auto low = low_load_fct(cells);
  EXPECT_DOUBLE_EQ(low[schemes::Scheme::tcp], 100);
  EXPECT_DOUBLE_EQ(low[schemes::Scheme::halfback], 100);
}

TEST(FeasibleCapacityHelpersTest, CustomMetric) {
  std::vector<SweepCell> cells;
  for (double u : {0.1, 0.5}) {
    SweepCell c;
    c.scheme = schemes::Scheme::tcp;
    c.utilization = u;
    c.mean_fct_ms = u > 0.4 ? 1000 : 100;  // mean collapses
    c.median_fct_ms = 100;                 // median does not
    cells.push_back(c);
  }
  auto by_mean = feasible_capacities(cells);
  auto by_median = feasible_capacities(
      cells, {}, [](const SweepCell& c) { return c.median_fct_ms; });
  EXPECT_DOUBLE_EQ(by_mean[schemes::Scheme::tcp], 0.1);
  EXPECT_DOUBLE_EQ(by_median[schemes::Scheme::tcp], 0.5);
}

TEST(MixSweepTest, NormalizedBaselineIsUnity) {
  MixSweepConfig config;
  config.utilizations = {0.40};
  config.duration = 8_s;
  config.long_bytes = 1'000'000;
  config.threads = 2;
  constexpr std::array<schemes::Scheme, 1> set{schemes::Scheme::tcp};
  auto cells = mix_sweep(config, set);
  ASSERT_EQ(cells.size(), 1u);
  // TCP shorts vs the TCP baseline: the same run, so exactly 1.0.
  EXPECT_NEAR(cells[0].short_fct_normalized, 1.0, 1e-9);
  EXPECT_NEAR(cells[0].long_fct_normalized, 1.0, 1e-9);
  EXPECT_EQ(cells[0].audit_violations, 0u);
}

TEST(MixSweepTest, HalfbackShortsBeatTcpShorts) {
  MixSweepConfig config;
  config.utilizations = {0.40};
  config.duration = 10_s;
  config.long_bytes = 1'000'000;
  config.threads = 2;
  constexpr std::array<schemes::Scheme, 1> set{schemes::Scheme::halfback};
  auto cells = mix_sweep(config, set);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_LT(cells[0].short_fct_normalized, 0.8);
}

TEST(FriendlinessTest, TcpAgainstItselfIsNeutral) {
  FriendlinessConfig config;
  config.utilizations = {0.20};
  config.duration = 10_s;
  config.threads = 2;
  constexpr std::array<schemes::Scheme, 1> set{schemes::Scheme::tcp};
  auto points = friendliness_matrix(config, set);
  ASSERT_EQ(points.size(), 1u);
  // TCP mixed with TCP: both coordinates near 1 (sampling noise only).
  EXPECT_NEAR(points[0].tcp_fct_vs_reference, 1.0, 0.15);
  EXPECT_NEAR(points[0].scheme_fct_vs_reference, 1.0, 0.15);
  EXPECT_EQ(points[0].audit_violations, 0u);
}

TEST(FlowSizeSweepTest, BinsCoverDistribution) {
  FlowSizeSweepConfig config;
  config.duration = 10_s;
  config.threads = 2;
  config.bin_bytes = sim::Bytes::kilobytes(100);
  constexpr std::array<schemes::Scheme, 1> set{schemes::Scheme::tcp};
  auto cells = flow_size_sweep(config, set);
  ASSERT_FALSE(cells.empty());
  std::size_t total_flows = 0;
  for (const FlowSizeCell& cell : cells) {
    EXPECT_EQ(cell.scheme, schemes::Scheme::tcp);
    EXPECT_LE(cell.bin_center_kb, 1000.0);  // truncated at 1 MB
    EXPECT_EQ(cell.audit_violations, 0u);
    total_flows += cell.flows;
  }
  EXPECT_GT(total_flows, 10u);
}

}  // namespace
}  // namespace halfback::exp
