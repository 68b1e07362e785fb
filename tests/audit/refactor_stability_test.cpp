// Refactor-stability anchors: golden trace hashes captured from the seed
// implementation (std::function event queue, per-hop packet allocation)
// before the intrusive-event/packet-pool refactor. The refactor — and any
// future scheduling-layer change — must keep same-seed runs bit-identical:
// every event sequence number, dispatch order, and packet uid feeds the
// hash, so a single reordered or extra schedule() call shows up here.
//
// If one of these fails after an intentional semantic change to the
// schemes or workloads, re-capture the constants and say so in the PR; if
// it fails after a "pure" performance or refactoring change, the change is
// not pure.
#include <gtest/gtest.h>

#include <bit>

#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "exp/trace.h"
#include "exp/web.h"
#include "schemes/scheme.h"
#include "workload/flow_schedule.h"
#include "workload/web.h"

namespace halfback::exp {
namespace {

// Captured from the seed build (commit 624a883) with the configs below.
constexpr std::uint64_t kGoldenPlanetLabTcp = 0xe6e86e6f4b6fd07dULL;
constexpr std::uint64_t kGoldenPlanetLabHalfback = 0xc1ea3c0a33978304ULL;
constexpr std::uint64_t kGoldenPlanetLabRc3 = 0xa9ca10dd2bef1ccaULL;
constexpr std::uint64_t kGoldenEmulabHalfback = 0xf36e16201b236f8aULL;

PlanetLabEnv golden_env() {
  PlanetLabConfig config;
  config.pair_count = 4;
  config.seed = 7;
  config.per_trial_timeout = sim::Time::seconds(60);
  return PlanetLabEnv{config};
}

TEST(RefactorStability, PlanetLabTraceHashesMatchSeedGolden) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  const PlanetLabEnv env = golden_env();
  const PathSample& path = env.paths().front();

  const TrialResult tcp = env.run_one(schemes::Scheme::tcp, path, 1234);
  EXPECT_EQ(tcp.audit_violations, 0u);
  EXPECT_EQ(tcp.trace_hash, kGoldenPlanetLabTcp);

  const TrialResult halfback = env.run_one(schemes::Scheme::halfback, path, 1234);
  EXPECT_EQ(halfback.audit_violations, 0u);
  EXPECT_EQ(halfback.trace_hash, kGoldenPlanetLabHalfback);

  const TrialResult rc3 = env.run_one(schemes::Scheme::rc3, path, 1234);
  EXPECT_EQ(rc3.audit_violations, 0u);
  EXPECT_EQ(rc3.trace_hash, kGoldenPlanetLabRc3);
}

TEST(RefactorStability, EmulabTraceHashMatchesSeedGolden) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  EmulabRunner::Config config;
  config.seed = 5;
  config.dumbbell.sender_count = 4;
  config.dumbbell.receiver_count = 4;
  config.drain = sim::Time::seconds(20);

  std::vector<WorkloadPart> parts(1);
  parts[0].scheme = schemes::Scheme::halfback;
  for (int i = 0; i < 6; ++i) {
    parts[0].schedule.push_back(workload::FlowArrival{
        sim::Time::milliseconds(50.0 * i), /*bytes=*/100'000});
  }

  const RunResult run = EmulabRunner{config}.run(parts);
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.flows.size(), 6u);
  EXPECT_EQ(run.trace_hash, kGoldenEmulabHalfback);
}

// Result anchors for the environments that had no golden hash of their own
// (HomeNetEnv, WebRunner, run_trace): an FNV-1a digest of the figures each
// one reports, recorded before these environments were moved onto the
// shared run harness. They hold in every build, audited or not — the
// auditor only observes.
constexpr std::uint64_t kGoldenHomeNetResults = 0xae0aac2d4bf75dd3ULL;
constexpr std::uint64_t kGoldenWebResults = 0xf46481d9027e06efULL;
constexpr std::uint64_t kGoldenTraceResults = 0x9d846f8452f70999ULL;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

TEST(RefactorStability, HomeNetResultsMatchGolden) {
  HomeNetConfig config;
  config.server_count = 20;
  config.threads = 2;
  const HomeNetEnv env{config};
  std::uint64_t h = kFnvOffset;
  for (const schemes::Scheme scheme : {schemes::Scheme::tcp, schemes::Scheme::halfback}) {
    for (const TrialResult& t : env.run(scheme, home_profiles()[2])) {
      fold(h, static_cast<std::uint64_t>(t.record.fct().ns()));
      fold(h, t.record.normal_retx);
      fold(h, t.record.proactive_retx);
      fold(h, t.record.timeouts);
      fold(h, t.finished ? 1 : 0);
    }
  }
  EXPECT_EQ(h, kGoldenHomeNetResults) << std::hex << h;
}

TEST(RefactorStability, WebResultsMatchGolden) {
  workload::WebCatalogConfig cc;
  cc.site_count = 10;
  const workload::WebsiteCatalog catalog{cc, sim::Random{3}};
  sim::Random rng{5};
  const auto requests = workload::make_web_schedule(
      catalog, 0.3, sim::DataRate::megabits_per_second(15), sim::Time::seconds(8), rng);
  std::uint64_t h = kFnvOffset;
  for (const schemes::Scheme scheme : {schemes::Scheme::tcp, schemes::Scheme::halfback}) {
    WebRunner::Config config;
    for (const PageResult& page : WebRunner{config}.run(scheme, catalog, requests).pages) {
      fold(h, static_cast<std::uint64_t>(page.response_time().ns()));
    }
  }
  EXPECT_EQ(h, kGoldenWebResults) << std::hex << h;
}

TEST(RefactorStability, TraceResultsMatchGolden) {
  const TraceConfig config;
  std::uint64_t h = kFnvOffset;
  for (const TraceScenario scenario :
       {TraceScenario::halfback, TraceScenario::two_tcp_halves}) {
    for (const FlowTrace& flow : run_trace(config, scenario).flows) {
      for (const ThroughputSample& s : flow.throughput) {
        fold(h, static_cast<std::uint64_t>(s.bucket_start.ns()));
        fold(h, std::bit_cast<std::uint64_t>(s.mbps));
      }
      fold(h, static_cast<std::uint64_t>(flow.completion.ns()));
    }
  }
  EXPECT_EQ(h, kGoldenTraceResults) << std::hex << h;
}

}  // namespace
}  // namespace halfback::exp
