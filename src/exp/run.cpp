#include "exp/run.h"

#include <algorithm>

#include "telemetry/hub.h"

namespace halfback::exp {

Run::Run(std::uint64_t seed, const RunObservers& observers)
    : simulator_{seed},
      network_{simulator_},
      telemetry_{observers.telemetry},
      wall_limit_{observers.wall_limit} {
#ifdef HALFBACK_AUDIT
  network_.install_auditor(auditor_);
#endif
  // The watchdog needs the enforcer even without a deterministic limit:
  // the supervised dispatch loop is what polls the abort flag.
  if (observers.budget.any() || wall_limit_.count() > 0) {
    enforcer_.emplace(observers.budget);
    simulator_.set_budget(&*enforcer_);
  }
  if (observers.profiler != nullptr) simulator_.set_profiler(observers.profiler);
}

void Run::attach_hosts(std::span<const net::NodeId> hosts) {
  if (agents_.empty() && telemetry_ != nullptr) {
    telemetry_->instrument_network(network_);
  }
  agents_.resize(network_.node_count());
  for (const net::NodeId host : hosts) {
    agents_[host] =
        std::make_unique<transport::TransportAgent>(simulator_, network_, host);
    if (telemetry_ != nullptr) agents_[host]->set_telemetry(telemetry_);
  }
}

transport::SenderBase& Run::start_flow(schemes::SchemeContext& context,
                                       schemes::Scheme scheme, net::NodeId from,
                                       net::NodeId to, net::FlowId flow,
                                       sim::Bytes bytes,
                                       transport::SenderBase::CompletionRef on_complete) {
  return agent(from).start_flow(
      schemes::make_sender(scheme, context, simulator_, network_.node(from), to,
                           flow, bytes),
      on_complete);
}

void Run::run_until(sim::Time deadline) {
  // Scope exit disarms and joins the watchdog.
  std::optional<sim::WallClockWatchdog> watchdog;
  if (wall_limit_.count() > 0) watchdog.emplace(simulator_, wall_limit_);
  simulator_.run_until(deadline);
}

const transport::SenderBase* Run::run_until_complete(sim::Time deadline) {
  std::optional<sim::WallClockWatchdog> watchdog;
  if (wall_limit_.count() > 0) watchdog.emplace(simulator_, wall_limit_);
  while (simulator_.now() < deadline) {
    simulator_.run_until(
        std::min(deadline, simulator_.now() + sim::Time::milliseconds(100)));
    if ((watched_ != nullptr && watched_->complete()) || simulator_.queue().empty()) {
      break;
    }
  }
  return watched_;
}

RunSummary Run::finish() {
  RunSummary summary;
  summary.sim_end = simulator_.now();
  summary.events_executed = simulator_.events_executed();
  if (enforcer_.has_value()) summary.budget_report = enforcer_->report();
  for (const auto& agent : agents_) {
    if (agent == nullptr) continue;
    const transport::DeliveryStats& d = agent->delivery_stats();
    summary.delivery.accepted += d.accepted;
    summary.delivery.corrupted_rejected += d.corrupted_rejected;
    summary.delivery.duplicate_rejected += d.duplicate_rejected;
  }
#ifdef HALFBACK_AUDIT
  auditor_.finalize(simulator_.queue().empty());
  summary.trace_hash = auditor_.trace_hash();
  summary.audit_violations = auditor_.total_violations();
#endif
  if (telemetry_ != nullptr) telemetry_->snapshot_network(network_, simulator_.now());
  return summary;
}

telemetry::RunManifest run_manifest(std::string experiment, std::uint64_t seed,
                                    const std::string& fingerprint,
                                    std::uint64_t trace_hash, sim::Time sim_end,
                                    const telemetry::Hub* telemetry) {
  telemetry::RunManifest m;
  m.experiment = std::move(experiment);
  m.seed = seed;
  m.config_digest = telemetry::fnv1a64(fingerprint);
  m.trace_hash = trace_hash;
  m.sim_end = sim_end;
  if (telemetry != nullptr) {
    const telemetry::MetricRegistry& registry = telemetry->registry();
    if (const auto* e = registry.find("sim.events_dispatched")) {
      m.events_dispatched = registry.counter_at(*e).value();
    }
  }
  return m;
}

}  // namespace halfback::exp
