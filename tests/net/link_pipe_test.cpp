// The link's propagation pipe (net/link.h): in-flight packets live in a
// ring with one arrival event armed on the head, so a link keeps at most
// two events pending — one arrival, one transmission — however many
// packets it carries. Fault-hook delays, duplicates and reorders insert
// into the ring by (arrival time, launch order), which must be the order
// packets land in, with the invariant auditor satisfied.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.h"
#include "net/fault_hook.h"
#include "net/network.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace halfback::net {
namespace {

using sim::DataRate;
using sim::Simulator;
using sim::Time;
using namespace halfback::sim::literals;

Packet data_packet(NodeId src, NodeId dst, std::uint32_t seq) {
  Packet p;
  p.type = PacketType::data;
  p.src = src;
  p.dst = dst;
  p.size_bytes = 1500;
  p.seq = seq;
  p.uid = seq + 1;
  return p;
}

TEST(LinkPipeTest, ThousandsInFlightKeepTwoEventsPerLink) {
  // A three-hop chain of fat, long links: 1500 B serializes in 1.2 us at
  // 10 Gbps, so thousands of packets sit in each 50 ms pipe at once.
  Simulator sim{1};
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const NodeId c = net.add_node();
  const NodeId d = net.add_node();
  LinkConfig fat;
  fat.rate = DataRate::gigabits_per_second(10);
  fat.delay = 50_ms;
  fat.queue_bytes = 16u << 20;
  net.connect(a, b, fat);
  net.connect(b, c, fat);
  net.connect(c, d, fat);
  net.compute_routes();
  std::vector<std::uint32_t> got;
  net.node(d).set_local_handler([&got](Packet p) { got.push_back(p.seq); });

  constexpr std::uint32_t kPackets = 5000;
  for (std::uint32_t i = 0; i < kPackets; ++i) net.node(a).send(data_packet(a, d, i));

  std::size_t peak_in_flight = 0;
  std::size_t peak_pending = 0;
  for (Time t = 100_us; !sim.queue().empty(); t += 100_us) {
    sim.run_until(t);
    std::size_t in_flight = 0;
    for (const auto& link : net.links()) in_flight += link->in_flight();
    peak_in_flight = std::max(peak_in_flight, in_flight);
    peak_pending = std::max(peak_pending, sim.queue().size());
  }
  EXPECT_GT(peak_in_flight, 4000u);
  // Only the three forward links carry traffic: one arrival and one
  // transmission each.
  EXPECT_LE(peak_pending, 6u);
  ASSERT_EQ(got.size(), kPackets);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

/// Delays, duplicates (with zero or positive spacing) and thereby reorders
/// at random, recording the (arrival time, launch index) every copy it
/// causes should land at.
class ShufflingHook final : public FaultHook {
 public:
  ShufflingHook(Time delay, std::uint64_t seed) : delay_{delay}, rng_{seed} {}

  FaultDecision on_transmit(const Packet& packet, Time now) override {
    FaultDecision d;
    if (rng_.bernoulli(0.4)) d.extra_delay = micros(0, 3000);
    if (rng_.bernoulli(0.3)) {
      d.duplicates = static_cast<std::uint32_t>(rng_.uniform_int(1, 2));
      d.duplicate_spacing = rng_.bernoulli(0.5) ? Time::zero() : micros(1, 800);
    }
    Time at = now + delay_ + d.extra_delay;
    expected.emplace_back(at, launches_++, packet.seq);
    for (std::uint32_t i = 0; i < d.duplicates; ++i) {
      at += d.duplicate_spacing;
      expected.emplace_back(at, launches_++, packet.seq);
    }
    return d;
  }

  std::vector<std::tuple<Time, std::uint64_t, std::uint32_t>> expected;

 private:
  Time micros(std::int64_t lo, std::int64_t hi) {
    return Time::microseconds(static_cast<double>(rng_.uniform_int(lo, hi)));
  }

  Time delay_;
  sim::Random rng_;
  std::uint64_t launches_ = 0;
};

TEST(LinkPipeTest, FaultsDeliverInArrivalTimeThenLaunchOrder) {
  Simulator sim{1};
  Network net{sim};
  audit::InvariantAuditor auditor;
  net.install_auditor(auditor);
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  LinkConfig config;
  config.rate = DataRate::megabits_per_second(100);  // 120 us per packet
  config.delay = 2_ms;
  config.queue_bytes = 16u << 20;
  const LinkPair pair = net.connect(a, b, config);
  net.compute_routes();
  ShufflingHook hook{config.delay, 0x5eedULL};
  pair.forward->set_fault_hook(&hook);

  std::vector<std::pair<Time, std::uint32_t>> got;
  net.node(b).set_local_handler(
      [&](Packet p) { got.emplace_back(sim.now(), p.seq); });
  for (std::uint32_t i = 0; i < 2000; ++i) net.node(a).send(data_packet(a, b, i));
  sim.run();

  std::vector<std::tuple<Time, std::uint64_t, std::uint32_t>> expected = hook.expected;
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, std::get<0>(expected[i])) << "arrival " << i;
    ASSERT_EQ(got[i].second, std::get<2>(expected[i])) << "arrival " << i;
  }
  // The test means something only if the hook really reordered.
  EXPECT_FALSE(std::is_sorted(got.begin(), got.end(), [](const auto& x, const auto& y) {
    return x.second < y.second;
  }));
  EXPECT_GT(pair.forward->stats().fault_duplicated_packets, 300u);
  auditor.finalize(/*drained=*/true);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

}  // namespace
}  // namespace halfback::net
