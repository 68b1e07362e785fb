// The telemetry taps: what a link's tap records from the link and its
// queue, that observing never changes delivery or the experiment's own drop
// accounting, that each flow records on its own tape, and the text timeline
// of a tape.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"

namespace halfback::telemetry {
namespace {

using namespace halfback::sim::literals;

/// Two hosts joined by a 10 Mbps, 1 ms link pair, with a hub installed.
struct TappedPair {
  sim::Simulator sim{1};
  net::Network net{sim};
  net::NodeId a = 0;
  net::NodeId b = 0;
  net::LinkPair links;
  Hub hub;
  int arrived = 0;

  explicit TappedPair(std::uint64_t queue_bytes = 1 << 20) {
    a = net.add_node();
    b = net.add_node();
    net::LinkConfig link;
    link.rate = sim::DataRate::megabits_per_second(10);
    link.delay = 1_ms;
    link.queue_bytes = queue_bytes;
    links = net.connect(a, b, link);
    net.compute_routes();
    net.node(b).set_local_handler([this](net::Packet) { ++arrived; });
    hub.instrument_network(net);
  }

  void send(std::uint32_t seq) {
    net::Packet p;
    p.type = net::PacketType::data;
    p.src = a;
    p.dst = b;
    p.seq = seq;
    p.flow = 7;
    p.size_bytes = 1500;
    net.node(a).send(p);
  }

  const Tape& forward_tape() {
    return *hub.recorder().find(TrackKind::link, links.forward->id());
  }
  const WindowSeries& forward_series() {
    return hub.series("link." + std::to_string(links.forward->id()));
  }
};

TEST(LinkTap, RecordsDeliveriesInTheLinkSeries) {
  TappedPair f;
  f.send(0);
  f.send(1);
  f.sim.run();
  const WindowSeries& series = f.forward_series();
  ASSERT_EQ(series.window_count(), 1u);  // both land in the first 10 ms
  EXPECT_EQ(series.window(0).packets, 2u);
  EXPECT_EQ(series.window(0).bytes, 3000u);
  EXPECT_EQ(series.window(0).queue_peak, 1u);  // the second waited
}

TEST(LinkTap, DeliveryStillReachesTheNode) {
  TappedPair f;
  f.send(0);
  f.sim.run();
  EXPECT_EQ(f.arrived, 1);
  EXPECT_EQ(f.forward_tape().size(), 0u);  // a clean delivery is no tape event
}

TEST(LinkTap, RecordsQueueDropsOnTapeAndSeries) {
  TappedPair f{/*queue_bytes=*/1400};
  for (std::uint32_t i = 0; i < 5; ++i) f.send(i);
  f.sim.run();
  const Tape& tape = f.forward_tape();
  ASSERT_EQ(tape.size(), 4u);  // 1 transmitting, the rest dropped
  for (std::size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(tape.event(i).kind, TapeEventKind::queue_drop);
    EXPECT_EQ(tape.event(i).a, i + 1);  // seq
    EXPECT_EQ(tape.event(i).b, 7u);     // flow
  }
  EXPECT_EQ(f.forward_series().window(0).drops, 4u);
}

TEST(LinkTap, DropCallbackStillFiresBesideTheTap) {
  TappedPair f{1400};
  int counted = 0;
  f.links.forward->queue().set_drop_callback(
      [&](const net::Packet&) { ++counted; });
  for (std::uint32_t i = 0; i < 3; ++i) f.send(i);
  f.sim.run();
  EXPECT_EQ(counted, 2);
  EXPECT_EQ(f.forward_tape().size(), 2u);
}

TEST(FlowTap, EachFlowRecordsOnItsOwnTape) {
  Hub hub;
  FlowTap first = hub.flow_tap(1, "tcp");
  FlowTap second = hub.flow_tap(2, "tcp");
  first.syn_sent(1_ms, 1);
  second.syn_sent(2_ms, 1);
  second.syn_sent(3_ms, 2);
  EXPECT_EQ(hub.recorder().find(TrackKind::flow, 1)->size(), 1u);
  EXPECT_EQ(hub.recorder().find(TrackKind::flow, 2)->size(), 2u);
  EXPECT_EQ(hub.recorder().find(TrackKind::flow, 2)->label(), "tcp flow 2");
  EXPECT_EQ(hub.transport().syn_sent->value(), 3u);
  EXPECT_EQ(hub.transport().syn_retx->value(), 1u);
  // Both flows of a scheme tally into the scheme's one class series.
  EXPECT_EQ(hub.series_count(), 1u);
  EXPECT_EQ(hub.series_at(0).name(), "class.tcp");
}

TEST(TapeTimeline, RendersAllEventsOldestFirst) {
  Hub hub;
  FlowTap tap = hub.flow_tap(3, "halfback");
  tap.start(sim::Time::zero(), 3000);
  tap.syn_sent(sim::Time::zero(), 1);
  tap.enter_phase(2_ms, SpanKind::pacing);
  const std::string text =
      tape_timeline(*hub.recorder().find(TrackKind::flow, 3));
  const std::vector<std::string> expected = {
      "     0.000 ms  flow_start      a=0 b=3000",
      "     0.000 ms  phase_enter     handshake",
      "     0.000 ms  syn_sent        a=1 b=0",
      "     2.000 ms  phase_enter     pacing",
  };
  std::string joined;
  for (const std::string& line : expected) joined += line + "\n";
  EXPECT_EQ(text, joined);
}

}  // namespace
}  // namespace halfback::telemetry
