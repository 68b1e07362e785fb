// Figure-level shape validation: the paper's qualitative claims, asserted
// programmatically on scaled-down campaigns. These are the "who wins, by
// roughly what factor, where crossovers fall" checks that EXPERIMENTS.md
// reports; running them in CI keeps the reproduction honest as the code
// evolves. (Each test uses a reduced configuration, so thresholds carry
// slack; the bench binaries produce the full-resolution numbers.)
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "exp/planetlab.h"
#include "exp/sweep.h"
#include "exp/trace.h"
#include "exp/web.h"
#include "stats/summary.h"

namespace halfback {
namespace {

using namespace halfback::sim::literals;
using schemes::Scheme;

double mean_fct_ms(const std::vector<exp::TrialResult>& trials) {
  stats::Summary s;
  for (const auto& t : trials) s.add(t.record.fct().to_ms());
  return s.mean();
}

// ---------------------------------------------------------------- Fig. 6/7

TEST(ShapeValidation, Fig6PlanetLabOrdering) {
  exp::PlanetLabConfig config;
  config.pair_count = 150;
  config.threads = 8;
  exp::PlanetLabEnv env{config};
  const double halfback = mean_fct_ms(env.run(Scheme::halfback));
  const double jumpstart = mean_fct_ms(env.run(Scheme::jumpstart));
  const double tcp10 = mean_fct_ms(env.run(Scheme::tcp10));
  const double tcp = mean_fct_ms(env.run(Scheme::tcp));
  // §4.2.1: Halfback < JumpStart < TCP-10 < TCP, Halfback ~half of TCP.
  EXPECT_LT(halfback, jumpstart);
  EXPECT_LT(jumpstart, tcp10);
  EXPECT_LT(tcp10, tcp);
  EXPECT_LT(halfback * 1.8, tcp);
}

TEST(ShapeValidation, Fig7PacedSchemesFinishInTwoDataRtts) {
  exp::PlanetLabConfig config;
  config.pair_count = 100;
  config.threads = 8;
  exp::PlanetLabEnv env{config};
  stats::Summary halfback_rtts, tcp_rtts;
  for (const auto& t : env.run(Scheme::halfback)) {
    halfback_rtts.add(t.record.rtts_used());
  }
  for (const auto& t : env.run(Scheme::tcp)) tcp_rtts.add(t.record.rtts_used());
  // Median ~3 total RTTs (handshake + 2 data) vs TCP's ~7 — "one third".
  EXPECT_LT(halfback_rtts.median(), 3.5);
  EXPECT_GT(tcp_rtts.median(), 6.0);
}

// ---------------------------------------------------------------- Fig. 5/8

TEST(ShapeValidation, Fig5HalfbackRetransmissionTailBelowJumpStart) {
  exp::PlanetLabConfig config;
  config.pair_count = 150;
  config.threads = 8;
  exp::PlanetLabEnv env{config};
  stats::Summary halfback, jumpstart;
  for (const auto& t : env.run(Scheme::halfback)) {
    halfback.add(static_cast<double>(t.record.normal_retx));
  }
  for (const auto& t : env.run(Scheme::jumpstart)) {
    jumpstart.add(static_cast<double>(t.record.normal_retx));
  }
  // §2.2/Fig. 5: JumpStart's repeated line-rate retransmission gives it a
  // long per-flow retransmission tail; Halfback's is far shorter.
  EXPECT_LT(halfback.percentile(99), jumpstart.percentile(99));
}

TEST(ShapeValidation, Fig8HalfbackMedianBelowJumpStartOnLossyPaths) {
  exp::PlanetLabConfig config;
  config.pair_count = 150;
  config.threads = 8;
  exp::PlanetLabEnv env{config};
  std::map<Scheme, std::vector<exp::TrialResult>> trials;
  std::vector<bool> lossy(config.pair_count, false);
  for (const Scheme scheme : schemes::planetlab_set()) {
    trials[scheme] = env.run(scheme);
    for (std::size_t i = 0; i < trials[scheme].size(); ++i) {
      if (trials[scheme][i].saw_loss) lossy[i] = true;
    }
  }
  auto lossy_fct = [&](Scheme scheme) {
    stats::Summary s;
    for (std::size_t i = 0; i < trials.at(scheme).size(); ++i) {
      if (lossy[i]) s.add(trials.at(scheme)[i].record.fct().to_ms());
    }
    return s;
  };
  const stats::Summary halfback = lossy_fct(Scheme::halfback);
  const stats::Summary jumpstart = lossy_fct(Scheme::jumpstart);
  // Fig. 8 is over the paths where any scheme saw loss, as in
  // fig08_fct_loss_cdf; §4.2.1: Halfback's median FCT there is lower.
  ASSERT_GT(halfback.count(), 0u);
  EXPECT_LT(halfback.median(), jumpstart.median());
}

// ------------------------------------------------------------------ Fig. 9

TEST(ShapeValidation, Fig9HomeNetworksAlwaysImprove) {
  exp::HomeNetConfig config;
  config.server_count = 25;
  config.threads = 8;
  exp::HomeNetEnv env{config};
  for (const exp::HomeNetProfile& profile : exp::home_profiles()) {
    stats::Summary halfback, tcp;
    for (const auto& t : env.run(Scheme::halfback, profile)) {
      halfback.add(t.record.fct().to_ms());
    }
    for (const auto& t : env.run(Scheme::tcp, profile)) {
      tcp.add(t.record.fct().to_ms());
    }
    EXPECT_LT(halfback.median(), tcp.median()) << profile.name;
  }
}

// ----------------------------------------------------------------- Fig. 12

TEST(ShapeValidation, Fig12CapacityOrdering) {
  exp::UtilizationSweepConfig config;
  config.utilizations = {0.10, 0.30, 0.45, 0.60, 0.75};
  config.duration = 20_s;
  config.threads = 8;
  constexpr std::array<Scheme, 4> set{Scheme::tcp, Scheme::proactive,
                                      Scheme::halfback, Scheme::tcp10};
  auto cells = exp::utilization_sweep(config, set);
  auto capacity = exp::feasible_capacities(
      cells, {}, [](const exp::SweepCell& c) { return c.median_fct_ms; });
  // Proactive collapses first; Halfback sits between it and the TCP family.
  EXPECT_LE(capacity[Scheme::proactive], capacity[Scheme::halfback]);
  EXPECT_LE(capacity[Scheme::halfback], capacity[Scheme::tcp]);
  EXPECT_GE(capacity[Scheme::tcp], 0.60);
  EXPECT_LE(capacity[Scheme::proactive], 0.50);
}

TEST(ShapeValidation, Fig12LowLoadLatencyOrdering) {
  exp::UtilizationSweepConfig config;
  config.utilizations = {0.10};
  config.duration = 20_s;
  config.threads = 8;
  constexpr std::array<Scheme, 4> set{Scheme::tcp, Scheme::tcp10, Scheme::jumpstart,
                                      Scheme::halfback};
  auto cells = exp::utilization_sweep(config, set);
  // At low load: paced schemes ~equal and far below TCP-10 < TCP.
  const double tcp = cells[0].mean_fct_ms;
  const double tcp10 = cells[1].mean_fct_ms;
  const double jumpstart = cells[2].mean_fct_ms;
  const double halfback = cells[3].mean_fct_ms;
  EXPECT_LT(halfback, tcp10);
  EXPECT_LT(jumpstart, tcp10);
  EXPECT_LT(tcp10, tcp);
  EXPECT_NEAR(halfback / jumpstart, 1.0, 0.25);
  // §5: pacing reaches ~half of TCP's FCT at low load.
  EXPECT_LT(halfback, 0.6 * tcp);
}

// ----------------------------------------------------------------- Fig. 13

TEST(ShapeValidation, Fig13MixOrdering) {
  exp::MixSweepConfig config;
  config.utilizations = {0.45};
  config.duration = 25_s;
  config.long_bytes = 2'000'000;
  config.threads = 8;
  constexpr std::array<Scheme, 3> set{Scheme::halfback, Scheme::tcp10,
                                      Scheme::proactive};
  auto cells = exp::mix_sweep(config, set);
  // Short flows: Halfback ~0.44x TCP, TCP-10 in between, Proactive >= 1.
  EXPECT_LT(cells[0].short_fct_normalized, 0.6);
  EXPECT_LT(cells[1].short_fct_normalized, 0.85);
  EXPECT_GT(cells[2].short_fct_normalized, 0.95);
  // Long flows: Halfback's impact small at this load; Proactive's largest.
  EXPECT_LT(cells[0].long_fct_normalized, 1.2);
  EXPECT_GE(cells[2].long_fct_normalized, cells[1].long_fct_normalized - 0.05);
}

// ----------------------------------------------------------------- Fig. 14

TEST(ShapeValidation, Fig14HalfbackIsTcpFriendly) {
  exp::FriendlinessConfig config;
  config.utilizations = {0.20};
  config.duration = 25_s;
  config.threads = 8;
  constexpr std::array<Scheme, 2> set{Scheme::halfback, Scheme::proactive};
  auto points = exp::friendliness_matrix(config, set);
  ASSERT_EQ(points.size(), 2u);
  // Halfback leaves TCP within a few percent of its reference; Proactive
  // is the unfriendliest scheme of the set.
  EXPECT_NEAR(points[0].tcp_fct_vs_reference, 1.0, 0.08);
  EXPECT_GT(points[1].tcp_fct_vs_reference, points[0].tcp_fct_vs_reference - 0.02);
}

// ----------------------------------------------------------------- Fig. 15

TEST(ShapeValidation, Fig15HalfbackShortFlowFinishesFastest) {
  exp::TraceConfig config;
  auto halfback = exp::run_trace(config, exp::TraceScenario::halfback).flows;
  auto tcp = exp::run_trace(config, exp::TraceScenario::single_tcp).flows;
  ASSERT_GT(halfback[1].completion, sim::Time::zero());
  ASSERT_GT(tcp[1].completion, sim::Time::zero());
  EXPECT_LT(halfback[1].completion, tcp[1].completion);
}

// ----------------------------------------------------------------- Fig. 16

TEST(ShapeValidation, Fig16JumpStartCrossesTcpUnderLoad) {
  workload::WebCatalogConfig cc;
  cc.site_count = 25;
  workload::WebsiteCatalog catalog{cc, sim::Random{17}};
  auto bottleneck = sim::DataRate::megabits_per_second(15);

  auto mean_response = [&](Scheme scheme, double util) {
    sim::Random rng{23};
    auto schedule = workload::make_web_schedule(catalog, util, bottleneck, 25_s, rng);
    exp::WebRunner::Config config;
    exp::WebRunner runner{config};
    return runner.run(scheme, catalog, schedule).mean_response_s();
  };
  // At light load JumpStart beats TCP; by ~35% the order flips — the
  // paper's application-level warning.
  EXPECT_LT(mean_response(Scheme::jumpstart, 0.10),
            mean_response(Scheme::tcp, 0.10));
  EXPECT_GT(mean_response(Scheme::jumpstart, 0.35),
            mean_response(Scheme::tcp, 0.35));
}

// ----------------------------------------------------------------- Fig. 17

TEST(ShapeValidation, Fig17AblationsAreWorseThanHalfback) {
  exp::UtilizationSweepConfig config;
  config.utilizations = {0.45, 0.60};
  config.duration = 20_s;
  config.threads = 8;
  config.replications = 3;
  constexpr std::array<Scheme, 3> set{Scheme::halfback, Scheme::halfback_forward,
                                      Scheme::halfback_burst};
  auto cells = exp::utilization_sweep(config, set);
  // Aggregated over both utilizations, the ablations pay for their
  // wasted/bursty copies.
  double halfback = 0, forward = 0, burst = 0, halfback_copies = 0, burst_copies = 0;
  for (std::size_t u = 0; u < 2; ++u) {
    halfback += cells[u * 3 + 0].mean_fct_ms;
    forward += cells[u * 3 + 1].mean_fct_ms;
    burst += cells[u * 3 + 2].mean_fct_ms;
    halfback_copies += cells[u * 3 + 0].mean_proactive_retx;
    burst_copies += cells[u * 3 + 2].mean_proactive_retx;
  }
  EXPECT_LE(halfback, forward * 1.10);
  EXPECT_LE(halfback, burst * 1.10);
  // Burst sends ~double Halfback's proactive copies (§5).
  EXPECT_GT(burst_copies, 1.5 * halfback_copies);
}

}  // namespace
}  // namespace halfback
