// The access-path environments. A synthetic wide-area path ensemble stands
// in for the paper's PlanetLab campaign (§4.2.1): 2.6 K sender/receiver
// pairs across five continents, RTTs 0.2-400 ms, 100 KB flows. The home
// networks (§4.2.2, Fig. 9) put clients behind four residential access
// profiles fetching 100 KB flows from 170 wide-area servers. Both run the
// same trial, run_access_trial.
//
// Substitution (see DESIGN.md): each pair becomes an AccessPath topology
// whose RTT, bottleneck bandwidth, buffer depth and background traffic are
// drawn from documented distributions. What the PlanetLab figures measure
// is how each scheme behaves across heterogeneous paths — in particular
// that the aggressive paced start overruns the slowest ~quarter of paths —
// and the ensemble is calibrated so that roughly 25% of trials see loss,
// matching §4.2.1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "schemes/scheme.h"
#include "sim/bytes.h"
#include "telemetry/manifest.h"
#include "transport/sender.h"

namespace halfback::telemetry {
class Hub;
}  // namespace halfback::telemetry

namespace halfback::exp {

/// One sampled wide-area path.
struct PathSample {
  sim::Time rtt;
  sim::DataRate bottleneck;
  sim::Bytes buffer_bytes;
  double random_loss = 0.0;       ///< residual wireless/overload loss
  bool cross_traffic = false;     ///< a competing TCP flow shares the path
};

/// Outcome of one (path, scheme) trial. An unfinished flow is censored AT
/// the deadline, so FCT means charge a stall the full timeout.
struct TrialResult {
  transport::FlowRecord record;
  sim::Time path_rtt;
  bool finished = false;
  bool saw_loss = false;  ///< any retransmission or drop observed

  /// Filled when the build compiles audit hooks (HALFBACK_AUDIT): an
  /// order-sensitive hash of the trial's run trace — identical seeds must
  /// reproduce it exactly — and the invariant-violation count (0 = clean).
  std::uint64_t trace_hash = 0;
  std::uint64_t audit_violations = 0;
};

/// One watched short flow from server to client over an access path — the
/// trial behind both the PlanetLab ensemble and the home networks. With
/// `cross_traffic`, a long TCP flow gets a 2 s head start on the same path
/// and the short flow's deadline moves with it.
struct AccessTrial {
  net::AccessPathConfig path;
  bool cross_traffic = false;
  sim::Bytes flow_bytes = 100'000;
  transport::SenderConfig sender_config;
  sim::Time timeout = sim::Time::seconds(120);
};

/// Run one access-path trial on a fresh simulator seeded with `seed`, with
/// `telemetry` (if any, one hub per trial) installed.
TrialResult run_access_trial(schemes::Scheme scheme, const AccessTrial& trial,
                             std::uint64_t seed, telemetry::Hub* telemetry = nullptr);

struct PlanetLabConfig {
  int pair_count = 2600;
  sim::Bytes flow_bytes = 100'000;
  std::uint64_t seed = 42;
  transport::SenderConfig sender_config;
  sim::Time per_trial_timeout = sim::Time::seconds(120);
  unsigned threads = 0;
};

/// The ensemble: paths are generated once from the seed, then every scheme
/// runs over the *same* paths (fresh simulator per trial).
class PlanetLabEnv {
 public:
  explicit PlanetLabEnv(PlanetLabConfig config);

  const std::vector<PathSample>& paths() const { return paths_; }

  /// Run one scheme across all paths.
  std::vector<TrialResult> run(schemes::Scheme scheme) const;

  /// Run a single trial (exposed for tests); see run_access_trial. run()
  /// shards trials across threads, so it installs no hub.
  TrialResult run_one(schemes::Scheme scheme, const PathSample& path,
                      std::uint64_t trial_seed,
                      telemetry::Hub* telemetry = nullptr) const;

  /// Provenance manifest for one finished trial. `telemetry` (if given)
  /// supplies the end-of-run event count; wall time is left zero for the
  /// caller to stamp.
  telemetry::RunManifest manifest(const TrialResult& result,
                                  schemes::Scheme scheme,
                                  std::uint64_t trial_seed,
                                  const telemetry::Hub* telemetry = nullptr) const;

 private:
  PlanetLabConfig config_;
  std::vector<PathSample> paths_;
};

/// An access-link profile standing in for one of the paper's measured home
/// connections (provider-level parameters; see DESIGN.md substitutions).
struct HomeNetProfile {
  const char* name = "";
  sim::DataRate downlink;
  sim::DataRate uplink;
  double loss_rate = 0.0;  ///< wireless residual loss
  sim::Bytes buffer_bytes;  ///< access-router buffer (DSL = bloated)
};

/// The four §4.2.2 profiles.
std::span<const HomeNetProfile> home_profiles();

struct HomeNetConfig {
  int server_count = 170;
  sim::Bytes flow_bytes = 100'000;
  std::uint64_t seed = 7;
  transport::SenderConfig sender_config;
  sim::Time per_trial_timeout = sim::Time::seconds(120);
  unsigned threads = 0;
};

/// Runs one scheme against every server through one access profile.
class HomeNetEnv {
 public:
  explicit HomeNetEnv(HomeNetConfig config);

  /// Wide-area RTTs to the simulated servers (shared across profiles and
  /// schemes).
  const std::vector<sim::Time>& server_rtts() const { return server_rtts_; }

  std::vector<TrialResult> run(schemes::Scheme scheme,
                               const HomeNetProfile& profile) const;

 private:
  HomeNetConfig config_;
  std::vector<sim::Time> server_rtts_;
};

}  // namespace halfback::exp
