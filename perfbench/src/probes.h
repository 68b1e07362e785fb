// Calibration probes: each layer's public entry point timed in isolation,
// at the shape a traced run recorded. Multiplied by the traced run's exact
// counts they give the attribution table.
#pragma once

#include <cstddef>
#include <span>

#include "netfault/fault_config.h"
#include "schemes/scheme.h"

namespace perfbench {

struct ProbeShape {
  std::size_t heap_depth = 64;  ///< event-heap depth the run recorded
  std::span<const halfback::schemes::Scheme> schemes;
  halfback::netfault::FaultConfig faults;  ///< empty: injector probe skipped
};

/// Host costs, each the median of several repetitions.
struct ProbeCosts {
  double sim_ns_per_event = 0.0;    ///< Simulator dispatch + heap reschedule
  double audit_ns_per_event = 0.0;  ///< added by Network::install_auditor
  double net_ns_per_hop = 0.0;      ///< Node::send across a dumbbell
  double audit_ns_per_hop = 0.0;    ///< added by Network::install_auditor
  double events_per_hop = 0.0;      ///< dispatches per link transmission
  double netfault_ns_per_packet = 0.0;  ///< FaultInjector::on_transmit
  /// One ACK-clock turn: the receiver host's handling of a data segment
  /// plus the sender host's handling of its ACK.
  double transport_ns_per_ack = 0.0;
  double schemes_flow_us = 0.0;  ///< one 100 KB flow on an idle dumbbell
  // Work one probe flow did, to separate its per-flow fixed cost from the
  // per-event, per-hop and per-ACK costs above.
  double flow_events = 0.0;
  double flow_hops = 0.0;
  double flow_acks = 0.0;

  /// Per-hop net cost with the hop's own event dispatches taken out.
  double net_self_ns_per_hop() const;
  double audit_self_ns_per_hop() const;
  /// Per-flow cost beyond its events, hops and ACKs: set-up, handshake,
  /// scheme state and completion.
  double schemes_ns_per_flow() const;
};

ProbeCosts run_probes(const ProbeShape& shape);

}  // namespace perfbench
