// One experiment run, wired the same way in every environment: the seeded
// simulator and network, the invariant auditor (HALFBACK_AUDIT builds), one
// transport agent per attached host, the scheme context, and the optional
// hub, profiler, budget and watchdog. Construction follows one order —
// simulator, network, auditor, the caller's topology, hub taps and agents,
// the caller's flows — because link ids, RNG forks and FIFO sequence
// numbers follow it (golden trace hashes in tests/audit/ pin it). Run never
// schedules an event or draws randomness itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "net/network.h"
#include "schemes/factory.h"
#include "sim/budget.h"
#include "sim/dispatch_profiler.h"
#include "sim/simulator.h"
#include "telemetry/manifest.h"
#include "transport/agent.h"

namespace halfback::telemetry {
class Hub;
}  // namespace halfback::telemetry

namespace halfback::exp {

/// The optional observers and supervision of one run; by default none, and
/// the simulator stays on its plain dispatch loop. The hub (one per run)
/// and the profiler are owned by the caller and only observe.
struct RunObservers {
  telemetry::Hub* telemetry = nullptr;
  sim::DispatchProfiler* profiler = nullptr;
  /// Deterministic budget (sim/budget.h); the default enforces nothing.
  sim::RunBudget budget;
  /// Wall-clock watchdog limit; zero arms nothing.
  std::chrono::milliseconds wall_limit{0};
};

/// What every run reports when it ends.
struct RunSummary {
  sim::Time sim_end;
  std::uint64_t events_executed = 0;
  /// Run-trace hash and violation count (0 = clean); zero without audit.
  std::uint64_t trace_hash = 0;
  std::uint64_t audit_violations = 0;
  /// BudgetTrip::none unless a budget or the watchdog aborted the run.
  sim::BudgetReport budget_report;
  /// Summed over every host's agent.
  transport::DeliveryStats delivery;
};

/// A seeded simulation with its network, auditor, host agents and
/// observers. Components hold references into it, so it never moves.
class Run {
 public:
  explicit Run(std::uint64_t seed, const RunObservers& observers = {});
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }
  /// The scheme context flows use unless given their own.
  schemes::SchemeContext& context() { return context_; }

  /// Give each of `hosts` a transport agent. The first call also installs
  /// the hub on the network: call it once the topology is final.
  void attach_hosts(std::span<const net::NodeId> hosts);
  transport::TransportAgent& agent(net::NodeId host) { return *agents_[host]; }

  /// Start a `scheme` flow of `bytes` from host `from` to host `to`.
  transport::SenderBase& start_flow(
      schemes::SchemeContext& context, schemes::Scheme scheme, net::NodeId from,
      net::NodeId to, net::FlowId flow, sim::Bytes bytes,
      transport::SenderBase::CompletionRef on_complete = {});
  transport::SenderBase& start_flow(
      schemes::Scheme scheme, net::NodeId from, net::NodeId to, net::FlowId flow,
      sim::Bytes bytes, transport::SenderBase::CompletionRef on_complete = {}) {
    return start_flow(context_, scheme, from, to, flow, bytes, on_complete);
  }

  /// Simulator::run_until under the watchdog.
  void run_until(sim::Time deadline);

  /// The flow run_until_complete() polls; a scheduled event may name it
  /// after the run began.
  void watch(const transport::SenderBase& sender) { watched_ = &sender; }

  /// Drive the run in 100 ms slices until the watched flow completes, the
  /// queue drains, or `deadline` passes. Returns the watched flow (null if
  /// none was named).
  const transport::SenderBase* run_until_complete(sim::Time deadline);

  /// Finalize the auditor, sum the agents' delivery counters, snapshot the
  /// network into the hub. Call once, after reading the environment's own
  /// results.
  RunSummary finish();

 private:
  sim::Simulator simulator_;
  net::Network network_;
#ifdef HALFBACK_AUDIT
  audit::InvariantAuditor auditor_;
#endif
  telemetry::Hub* telemetry_;
  std::optional<sim::BudgetEnforcer> enforcer_;
  std::chrono::milliseconds wall_limit_;
  schemes::SchemeContext context_;
  std::vector<std::unique_ptr<transport::TransportAgent>> agents_;  ///< by node id
  const transport::SenderBase* watched_ = nullptr;
};

/// The manifest fields every environment fills alike; `fingerprint` is
/// hashed into the config digest, and wall time is left for the caller.
telemetry::RunManifest run_manifest(std::string experiment, std::uint64_t seed,
                                    const std::string& fingerprint,
                                    std::uint64_t trace_hash, sim::Time sim_end,
                                    const telemetry::Hub* telemetry);

}  // namespace halfback::exp
