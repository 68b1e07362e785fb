#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "audit/invariant_auditor.h"
#include "net/network.h"
#include "net/topology.h"
#include "netfault/fault_injector.h"
#include "schemes/factory.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "spans.h"
#include "transport/agent.h"

namespace perfbench {
namespace {

using namespace halfback;

constexpr int kRepetitions = 5;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_of_reps(F&& probe) {
  std::vector<double> samples;
  for (int i = 0; i < kRepetitions; ++i) samples.push_back(probe());
  return median(std::move(samples));
}

/// An event that reschedules itself one period later every time it fires.
class PeriodicEvent final : public sim::Event {
 public:
  PeriodicEvent(sim::Simulator& simulator, sim::Time period)
      : simulator_{simulator}, period_{period} {}
  void fire() override { simulator_.schedule_event(period_, *this); }

 private:
  sim::Simulator& simulator_;
  sim::Time period_;
};

/// ns per dispatch with `depth` events pending: each dispatch is one heap
/// pop and one push.
double time_events(std::size_t depth, bool audited) {
  sim::Simulator simulator{1};
  net::Network network{simulator};
  audit::InvariantAuditor auditor;
  if (audited) network.install_auditor(auditor);
  std::vector<std::unique_ptr<PeriodicEvent>> events;
  double rate_per_ns = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    const std::int64_t period_ns = 1000 + static_cast<std::int64_t>((i * 7919) % 1000);
    rate_per_ns += 1.0 / static_cast<double>(period_ns);
    events.push_back(std::make_unique<PeriodicEvent>(
        simulator, sim::Time::nanoseconds(period_ns)));
    simulator.schedule_event(sim::Time::nanoseconds(static_cast<std::int64_t>(i)),
                             *events.back());
  }
  constexpr double kDispatches = 300'000;
  const auto horizon = sim::Time::nanoseconds(static_cast<std::int64_t>(kDispatches / rate_per_ns));
  const Clock::time_point start = Clock::now();
  simulator.run_until(horizon);
  const double elapsed = ns_between(start, Clock::now());
  return elapsed / static_cast<double>(std::max<std::uint64_t>(1, simulator.events_executed()));
}

struct HopSample {
  double ns_per_hop = 0.0;
  double events_per_hop = 0.0;
};

/// Packets sent with Node::send from one dumbbell host to another, with a
/// bottleneck buffer deep enough that none drop.
HopSample time_hops(bool audited) {
  sim::Simulator simulator{1};
  net::Network network{simulator};
  audit::InvariantAuditor auditor;
  if (audited) network.install_auditor(auditor);
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 8u << 20;
  const net::Dumbbell dumbbell = net::build_dumbbell(network, config);
  std::uint64_t arrived = 0;
  network.node(dumbbell.receivers[0]).set_local_handler([&arrived](net::Packet) { ++arrived; });
  net::Node& source = network.node(dumbbell.senders[0]);

  constexpr std::uint32_t kPackets = 2000;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    net::Packet p;
    p.flow = 1;
    p.type = net::PacketType::data;
    p.src = dumbbell.senders[0];
    p.dst = dumbbell.receivers[0];
    p.size_bytes = net::kSegmentWireBytes;
    p.seq = i;
    p.uid = i + 1;
    source.send(p);
  }
  simulator.run();
  const double elapsed = ns_between(start, Clock::now());
  std::uint64_t hops = 0;
  for (const auto& link : network.links()) hops += link->stats().delivered_packets;
  hops = std::max<std::uint64_t>(1, hops);
  return {elapsed / static_cast<double>(hops),
          static_cast<double>(simulator.events_executed()) / static_cast<double>(hops)};
}

double time_injector(const netfault::FaultConfig& faults) {
  netfault::FaultInjector injector{faults, sim::Random{7}.fork(0xf0)};
  net::Packet p;
  p.type = net::PacketType::data;
  p.size_bytes = net::kSegmentWireBytes;
  constexpr std::uint32_t kPackets = 200'000;
  std::uint64_t acted = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    p.seq = i;
    p.uid = i + 1;
    // 20 us apart: the run spans 4 simulated seconds, across any outage.
    const net::FaultDecision d = injector.on_transmit(p, sim::Time::microseconds(20.0 * i));
    acted += (d.drop ? 1 : 0) + (d.corrupt ? 1 : 0) + d.duplicates;
  }
  const double elapsed = ns_between(start, Clock::now());
  // Keep the decisions observable so the loop cannot be discarded.
  volatile std::uint64_t sink = acted;
  (void)sink;
  return elapsed / kPackets;
}

/// Cost of one steady_clock::now() pair, taken out of each timed packet.
double clock_pair_ns() {
  constexpr int kPairs = 100'000;
  double total = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point a = Clock::now();
    total += ns_between(a, Clock::now());
  }
  return total / kPairs;
}

struct FlowSample {
  double flow_ns = 0.0;
  double stack_ns = 0.0;  ///< summed over every packet either host received
  std::uint64_t acks = 0;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;
};

/// One 100 KB flow of `scheme` on an idle dumbbell, without an auditor.
/// Every packet either host's transport stack receives is timed: the
/// receiver's handling of a data segment plus the sender's handling of the
/// ACK it triggers make one turn of the ACK clock.
FlowSample time_flow(schemes::Scheme scheme, double clock_ns) {
  FlowSample out;
  sim::Simulator simulator{1};
  net::Network network{simulator};
  const net::Dumbbell dumbbell = net::build_dumbbell(network, net::DumbbellConfig{});
  transport::TransportAgent sender_agent{simulator, network, dumbbell.senders[0]};
  transport::TransportAgent receiver_agent{simulator, network, dumbbell.receivers[0]};
  for (net::NodeId id : {dumbbell.senders[0], dumbbell.receivers[0]}) {
    net::Node& node = network.node(id);
    node.set_local_handler([&out, clock_ns, stack = node.local_handler()](net::Packet p) {
      const bool ack = p.type == net::PacketType::ack;
      const Clock::time_point t0 = Clock::now();
      stack(std::move(p));
      out.stack_ns += std::max(0.0, ns_between(t0, Clock::now()) - clock_ns);
      if (ack) ++out.acks;
    });
  }
  net::Node& host = network.node(dumbbell.senders[0]);
  // Timed from the sender's construction: a run builds its topology once,
  // not once per flow.
  const Clock::time_point start = Clock::now();
  schemes::SchemeContext context;
  sender_agent.start_flow(schemes::make_sender(scheme, context, simulator, host,
                                               dumbbell.receivers[0], 1, 100'000));
  simulator.run_until(sim::Time::seconds(60));
  out.flow_ns = ns_between(start, Clock::now());
  out.events = simulator.events_executed();
  for (const auto& link : network.links()) out.hops += link->stats().delivered_packets;
  return out;
}

}  // namespace

double ProbeCosts::net_self_ns_per_hop() const {
  return std::max(0.0, net_ns_per_hop - events_per_hop * sim_ns_per_event);
}

double ProbeCosts::audit_self_ns_per_hop() const {
  return std::max(0.0, audit_ns_per_hop - events_per_hop * audit_ns_per_event);
}

double ProbeCosts::schemes_ns_per_flow() const {
  return std::max(0.0, schemes_flow_us * 1e3 - flow_events * sim_ns_per_event -
                           flow_hops * net_self_ns_per_hop() -
                           flow_acks * transport_ns_per_ack);
}

ProbeCosts run_probes(const ProbeShape& shape) {
  ProbeCosts c;
  // Audit costs are medians of paired differences: each repetition times
  // the probe without and then with the auditor, back to back, so a slow
  // spell on a shared host lands on both sides of one difference.
  const std::size_t depth = std::max<std::size_t>(1, shape.heap_depth);
  std::vector<double> event_ns;
  std::vector<double> audit_event_ns;
  std::vector<double> hop_ns;
  std::vector<double> hop_events;
  std::vector<double> audit_hop_ns;
  for (int i = 0; i < kRepetitions; ++i) {
    const double plain_event = time_events(depth, false);
    event_ns.push_back(plain_event);
    audit_event_ns.push_back(time_events(depth, true) - plain_event);
    const HopSample plain_hop = time_hops(false);
    hop_ns.push_back(plain_hop.ns_per_hop);
    hop_events.push_back(plain_hop.events_per_hop);
    audit_hop_ns.push_back(time_hops(true).ns_per_hop - plain_hop.ns_per_hop);
  }
  c.sim_ns_per_event = median(event_ns);
  c.audit_ns_per_event = std::max(0.0, median(audit_event_ns));
  c.net_ns_per_hop = median(hop_ns);
  c.events_per_hop = median(hop_events);
  c.audit_ns_per_hop = std::max(0.0, median(audit_hop_ns));

  if (shape.faults.any()) {
    c.netfault_ns_per_packet = median_of_reps([&] { return time_injector(shape.faults); });
  }

  const double clock_ns = clock_pair_ns();
  std::vector<double> ack_ns;
  std::vector<double> flow_us;
  FlowSample work;
  for (int i = 0; i < kRepetitions; ++i) {
    FlowSample total;
    for (schemes::Scheme scheme : shape.schemes) {
      const FlowSample s = time_flow(scheme, clock_ns);
      total.flow_ns += s.flow_ns;
      total.stack_ns += s.stack_ns;
      total.acks += s.acks;
      total.events += s.events;
      total.hops += s.hops;
    }
    ack_ns.push_back(total.stack_ns / static_cast<double>(std::max<std::uint64_t>(1, total.acks)));
    flow_us.push_back(total.flow_ns / 1e3 / static_cast<double>(shape.schemes.size()));
    work = total;
  }
  c.transport_ns_per_ack = median(ack_ns);
  c.schemes_flow_us = median(flow_us);
  const double flows = static_cast<double>(shape.schemes.size());
  c.flow_events = static_cast<double>(work.events) / flows;
  c.flow_hops = static_cast<double>(work.hops) / flows;
  c.flow_acks = static_cast<double>(work.acks) / flows;
  return c;
}

}  // namespace perfbench
