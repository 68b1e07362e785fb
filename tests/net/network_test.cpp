#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace halfback::net {
namespace {

using sim::DataRate;
using sim::Simulator;
using namespace halfback::sim::literals;

LinkConfig fast_link() {
  LinkConfig c;
  c.rate = DataRate::megabits_per_second(100);
  c.delay = 1_ms;
  return c;
}

TEST(NetworkTest, NodesGetDenseIds) {
  Simulator sim{1};
  Network net{sim};
  EXPECT_EQ(net.add_node(), 0u);
  EXPECT_EQ(net.add_node(), 1u);
  EXPECT_EQ(net.add_node(), 2u);
  EXPECT_EQ(net.node_count(), 3u);
}

TEST(NetworkTest, DirectDelivery) {
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  NodeId b = net.add_node();
  net.connect(a, b, fast_link());
  net.compute_routes();

  std::vector<Packet> got;
  net.node(b).set_local_handler([&](Packet p) { got.push_back(std::move(p)); });

  Packet p;
  p.type = PacketType::data;
  p.src = a;
  p.dst = b;
  p.size_bytes = 1000;
  net.node(a).send(p);
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, b);
}

TEST(NetworkTest, LocalHandlerChainsThroughTheAccessor) {
  // An observer wraps the installed handler (the pattern perfbench's
  // probes use): it sees the arrival first, and the stack still gets it.
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  NodeId b = net.add_node();
  net.connect(a, b, fast_link());
  net.compute_routes();

  std::vector<std::string> seen;
  net.node(b).set_local_handler([&](Packet) { seen.push_back("stack"); });
  net.node(b).set_local_handler(
      [&, stack = net.node(b).local_handler()](Packet p) {
        seen.push_back("observer");
        stack(std::move(p));
      });

  Packet p;
  p.type = PacketType::data;
  p.src = a;
  p.dst = b;
  p.size_bytes = 1000;
  net.node(a).send(p);
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"observer", "stack"}));
}

TEST(NetworkTest, MultiHopForwarding) {
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  NodeId r1 = net.add_node();
  NodeId r2 = net.add_node();
  NodeId b = net.add_node();
  net.connect(a, r1, fast_link());
  net.connect(r1, r2, fast_link());
  net.connect(r2, b, fast_link());
  net.compute_routes();

  std::vector<Packet> got;
  net.node(b).set_local_handler([&](Packet p) { got.push_back(std::move(p)); });

  Packet p;
  p.type = PacketType::data;
  p.src = a;
  p.dst = b;
  p.size_bytes = 1500;
  net.node(a).send(p);
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  // Three hops of 1 ms propagation each plus three serializations.
  EXPECT_GT(sim.now(), 3_ms);
  EXPECT_LT(sim.now(), 4_ms);
}

TEST(NetworkTest, ReversePathWorks) {
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  NodeId r = net.add_node();
  NodeId b = net.add_node();
  net.connect(a, r, fast_link());
  net.connect(r, b, fast_link());
  net.compute_routes();

  std::vector<Packet> got_at_a;
  net.node(a).set_local_handler([&](Packet p) { got_at_a.push_back(std::move(p)); });

  Packet p;
  p.type = PacketType::ack;
  p.src = b;
  p.dst = a;
  p.size_bytes = 40;
  net.node(b).send(p);
  sim.run();
  EXPECT_EQ(got_at_a.size(), 1u);
}

TEST(NetworkTest, MissingRouteThrows) {
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  net.add_node();  // b, disconnected
  net.compute_routes();
  Packet p;
  p.src = a;
  p.dst = 1;
  EXPECT_THROW(net.node(a).send(p), std::logic_error);
}

TEST(NetworkTest, ShortestPathPreferred) {
  // a - r1 - b  and  a - r2 - r3 - b: traffic must take the 2-hop path.
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  NodeId r1 = net.add_node();
  NodeId r2 = net.add_node();
  NodeId r3 = net.add_node();
  NodeId b = net.add_node();
  LinkPair short1 = net.connect(a, r1, fast_link());
  net.connect(r2, r3, fast_link());
  net.connect(a, r2, fast_link());
  net.connect(r3, b, fast_link());
  net.connect(r1, b, fast_link());
  net.compute_routes();

  net.node(b).set_local_handler([](Packet) {});
  Packet p;
  p.type = PacketType::data;
  p.src = a;
  p.dst = b;
  p.size_bytes = 1000;
  net.node(a).send(p);
  sim.run();
  EXPECT_EQ(short1.forward->stats().delivered_packets, 1u);
}

TEST(NetworkTest, TotalQueueDropsAggregates) {
  Simulator sim{1};
  Network net{sim};
  NodeId a = net.add_node();
  NodeId b = net.add_node();
  LinkConfig tiny = fast_link();
  tiny.rate = DataRate::kilobits_per_second(64);
  tiny.queue_bytes = 1500;
  net.connect(a, b, tiny);
  net.compute_routes();
  net.node(b).set_local_handler([](Packet) {});
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.type = PacketType::data;
    p.src = a;
    p.dst = b;
    p.size_bytes = 1500;
    net.node(a).send(p);
  }
  sim.run();
  EXPECT_EQ(net.total_queue_drops(), 3u);  // 1 transmitting + 1 queued survive
}

}  // namespace
}  // namespace halfback::net
