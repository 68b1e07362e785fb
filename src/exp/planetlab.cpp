#include "exp/planetlab.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "exp/parallel.h"
#include "exp/run.h"
#include "sim/random.h"

namespace halfback::exp {
namespace {

/// Canonical text form of the reproducibility-relevant knobs, hashed into
/// the trial manifest's config digest. Paths are derived deterministically
/// from `seed` in the constructor, so the ensemble config plus the trial
/// seed pins down the whole trial; individual path parameters need not be
/// fingerprinted.
std::string config_fingerprint(const PlanetLabConfig& c,
                               std::uint64_t trial_seed) {
  std::ostringstream out;
  out << "seed=" << c.seed << ";trial_seed=" << trial_seed
      << ";pairs=" << c.pair_count << ";bytes=" << c.flow_bytes.count()
      << ";iw=" << c.sender_config.initial_window
      << ";rwnd=" << c.sender_config.receive_window_segments
      << ";timeout_ns=" << c.per_trial_timeout.ns();
  return out.str();
}

}  // namespace

PlanetLabEnv::PlanetLabEnv(PlanetLabConfig config) : config_{config} {
  sim::Random rng{config_.seed};
  paths_.reserve(static_cast<std::size_t>(config_.pair_count));
  for (int i = 0; i < config_.pair_count; ++i) {
    PathSample p;
    // RTT: heavy-tailed around a 60 ms median (continental to
    // intercontinental), clamped to the paper's observed 0.2-400 ms. The
    // sample becomes a sim::Time here, at the boundary; no raw unit-bearing
    // double escapes.
    p.rtt = sim::Time::milliseconds(
        std::clamp(rng.lognormal(std::log(60.0), 1.1), 0.2, 400.0));
    // Bottleneck bandwidth: PlanetLab sites are well connected; a log-
    // uniform spread 8 Mbps - 1 Gbps captures the occasional slow site.
    p.bottleneck = sim::DataRate::megabits_per_second(rng.log_uniform(8.0, 1000.0));
    // Buffer: a fraction of the path BDP, floored (tiny-buffer routers are
    // what give the paced schemes their 99th-percentile losses, §4.2.1).
    const double bdp = p.bottleneck.bytes_per_second() * p.rtt.to_seconds();
    p.buffer_bytes = static_cast<std::uint64_t>(
        std::clamp(bdp * rng.uniform(0.3, 1.5), 6'000.0, 400'000.0));
    // ~30% of paths carry competing traffic (a long TCP flow).
    p.cross_traffic = rng.bernoulli(0.30);
    // A sliver of lossy (wireless / overloaded) paths.
    p.random_loss = rng.bernoulli(0.10) ? rng.uniform(0.001, 0.01) : 0.0;
    paths_.push_back(p);
  }
}

TrialResult run_access_trial(schemes::Scheme scheme, const AccessTrial& trial,
                             std::uint64_t seed, telemetry::Hub* telemetry) {
  RunObservers observers;
  observers.telemetry = telemetry;
  Run run{seed, observers};
  const net::AccessPath ap = net::build_access_path(run.network(), trial.path);
  const net::NodeId hosts[] = {ap.server, ap.client};
  run.attach_hosts(hosts);

  std::uint32_t flow_drops = 0;
  const net::FlowId kFlow = 1;
  ap.downlink->queue().set_drop_callback([&](const net::Packet& p) {
    if (p.flow == kFlow && p.type == net::PacketType::data) ++flow_drops;
  });
  run.context().sender_config = trial.sender_config;

  sim::Time flow_start;
  if (trial.cross_traffic) {
    // A long-lived TCP flow fills the queue first (2 s head start).
    run.start_flow(schemes::Scheme::tcp, ap.server, ap.client, /*flow=*/2,
                   /*bytes=*/50'000'000);
    flow_start = sim::Time::seconds(2);
  }
  run.simulator().schedule_at(flow_start, [&] {
    run.watch(run.start_flow(scheme, ap.server, ap.client, kFlow, trial.flow_bytes));
  });

  const sim::Time deadline = flow_start + trial.timeout;
  TrialResult result;
  result.path_rtt = trial.path.rtt;
  if (const transport::SenderBase* sender = run.run_until_complete(deadline)) {
    result.record = sender->record();
    result.finished = sender->complete();
    result.saw_loss = flow_drops > 0 || result.record.normal_retx > 0 ||
                      result.record.timeouts > 0;
    if (!result.finished) {
      result.record.completion_time = deadline;
      result.record.completed = false;
    }
  }
  const RunSummary summary = run.finish();
  result.trace_hash = summary.trace_hash;
  result.audit_violations = summary.audit_violations;
  return result;
}

TrialResult PlanetLabEnv::run_one(schemes::Scheme scheme, const PathSample& path,
                                  std::uint64_t trial_seed,
                                  telemetry::Hub* telemetry) const {
  AccessTrial trial;
  trial.path.rtt = path.rtt;
  trial.path.downlink_rate = path.bottleneck;
  trial.path.uplink_rate = std::max(path.bottleneck * 0.25,
                                    sim::DataRate::megabits_per_second(2.0));
  trial.path.downlink_buffer_bytes = path.buffer_bytes;
  trial.path.downlink_loss_rate = path.random_loss;
  trial.cross_traffic = path.cross_traffic;
  trial.flow_bytes = config_.flow_bytes;
  trial.sender_config = config_.sender_config;
  trial.timeout = config_.per_trial_timeout;
  return run_access_trial(scheme, trial, trial_seed, telemetry);
}

telemetry::RunManifest PlanetLabEnv::manifest(
    const TrialResult& result, schemes::Scheme scheme, std::uint64_t trial_seed,
    const telemetry::Hub* telemetry) const {
  // TrialResult carries no separate sim-end clock; the completion time is
  // the flow's finish (or its censoring point for unfinished trials).
  telemetry::RunManifest m =
      run_manifest("planetlab", trial_seed, config_fingerprint(config_, trial_seed),
                   result.trace_hash, result.record.completion_time, telemetry);
  m.scheme = schemes::name(scheme);
  return m;
}

std::vector<TrialResult> PlanetLabEnv::run(schemes::Scheme scheme) const {
  std::vector<TrialResult> results(paths_.size());
  parallel_for(
      paths_.size(),
      [&](std::size_t i) {
        results[i] = run_one(scheme, paths_[i], config_.seed * 31 + i);
      },
      config_.threads);
  return results;
}

namespace {
// Parameters follow the provider descriptions in §4.2.2: AT&T DSL ~6 Mbps
// behind a home wireless router (bloated DSL buffer, wireless loss),
// Comcast 25 Mbps wired, ConnectivityU shared-building WiFi, and
// ConnectivityU wired.
constexpr std::array<HomeNetProfile, 4> kProfiles{{
    {"comcast-wired", sim::DataRate::megabits_per_second(25),
     sim::DataRate::megabits_per_second(5), 0.0, 192'000},
    {"connectivityu-wired", sim::DataRate::megabits_per_second(100),
     sim::DataRate::megabits_per_second(100), 0.0, 128'000},
    {"connectivityu-wifi", sim::DataRate::megabits_per_second(18),
     sim::DataRate::megabits_per_second(8), 0.008, 64'000},
    {"att-dsl-wifi", sim::DataRate::megabits_per_second(6),
     sim::DataRate::kilobits_per_second(700), 0.01, 384'000},
}};
}  // namespace

std::span<const HomeNetProfile> home_profiles() { return kProfiles; }

HomeNetEnv::HomeNetEnv(HomeNetConfig config) : config_{config} {
  sim::Random rng{config_.seed};
  server_rtts_.reserve(static_cast<std::size_t>(config_.server_count));
  for (int i = 0; i < config_.server_count; ++i) {
    // Sampled in ms, converted to sim::Time at the boundary.
    server_rtts_.push_back(sim::Time::milliseconds(
        std::clamp(rng.lognormal(std::log(60.0), 1.0), 2.0, 400.0)));
  }
}

std::vector<TrialResult> HomeNetEnv::run(schemes::Scheme scheme,
                                         const HomeNetProfile& profile) const {
  std::vector<TrialResult> results(server_rtts_.size());
  parallel_for(
      server_rtts_.size(),
      [&](std::size_t i) {
        AccessTrial trial;
        trial.path.rtt = server_rtts_[i];
        trial.path.downlink_rate = profile.downlink;
        trial.path.uplink_rate = profile.uplink;
        trial.path.downlink_buffer_bytes = profile.buffer_bytes;
        trial.path.downlink_loss_rate = profile.loss_rate;
        trial.flow_bytes = config_.flow_bytes;
        trial.sender_config = config_.sender_config;
        trial.timeout = config_.per_trial_timeout;
        results[i] = run_access_trial(scheme, trial, config_.seed * 131 + i);
      },
      config_.threads);
  return results;
}

}  // namespace halfback::exp
