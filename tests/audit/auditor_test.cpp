// The auditor must stay silent on correct runs and fire on every class of
// seeded violation: stale events, reordered dispatch, double delivery,
// over-full queues, scoreboard inconsistencies, and broken ROPR order.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <utility>

#include "audit/invariant_auditor.h"
#include "net/link.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "support/dumbbell_fixture.h"
#include "transport/scoreboard.h"

namespace halfback::audit {
namespace {

using namespace halfback::sim::literals;

net::Packet make_data_packet(std::uint64_t uid, std::uint32_t seq = 0) {
  net::Packet p;
  p.flow = 1;
  p.type = net::PacketType::data;
  p.src = 0;
  p.dst = 2;
  p.seq = seq;
  p.size_bytes = 1500;
  p.uid = uid;
  return p;
}

// --- clean runs -------------------------------------------------------------

TEST(InvariantAuditorTest, RealDumbbellRunIsClean) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  testing::DumbbellFixture fx;
  InvariantAuditor auditor;
  fx.net.install_auditor(auditor);

  auto& flow = fx.start(schemes::Scheme::halfback, 100'000);
  fx.sim.run();

  ASSERT_TRUE(flow.complete());
  auditor.finalize(/*drained=*/fx.sim.queue().empty());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_NE(auditor.trace_hash(), 0u);
}

TEST(InvariantAuditorTest, LossyCoDelBottleneckRunIsClean) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  // A tight CoDel bottleneck forces both admission and in-queue drops, the
  // two accounting paths that differ (see audit::DropContext).
  net::DumbbellConfig config;
  config.bottleneck_queue = net::QueueKind::codel;
  config.bottleneck_buffer_bytes = 20'000;
  config.bottleneck_rate = sim::DataRate::megabits_per_second(5);
  testing::DumbbellFixture fx{config};
  InvariantAuditor auditor;
  fx.net.install_auditor(auditor);

  for (std::size_t pair = 0; pair < 4; ++pair) {
    fx.start(schemes::Scheme::tcp, 400'000, pair);
  }
  fx.sim.run();

  auditor.finalize(fx.sim.queue().empty());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- event-engine violations ------------------------------------------------

TEST(InvariantAuditorTest, SchedulingInThePastIsFlagged) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  sim::Simulator simulator;
  InvariantAuditor auditor;
  simulator.set_auditor(&auditor);

  // An event at t=5ms schedules another at absolute t=1ms — in the past.
  // Both the stale scheduling and the resulting backwards dispatch must be
  // flagged.
  simulator.schedule_at(5_ms, [&] { simulator.schedule_at(1_ms, [] {}); });
  simulator.run();

  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.total_violations(), 2u) << auditor.report();
}

TEST(InvariantAuditorTest, FifoTieBreakViolationIsFlagged) {
  InvariantAuditor auditor;
  auditor.on_event_run(2_ms, 7);
  auditor.on_event_run(2_ms, 7);  // same time, non-increasing seq
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, MonotoneEqualTimeDispatchIsClean) {
  InvariantAuditor auditor;
  auditor.on_event_run(1_ms, 1);
  auditor.on_event_run(1_ms, 2);
  auditor.on_event_run(3_ms, 0);  // seq may reset across times
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- packet conservation ----------------------------------------------------

TEST(InvariantAuditorTest, DoubleDeliveredPacketIsFlagged) {
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/7);
  auditor.on_node_received(2, p);
  EXPECT_TRUE(auditor.ok());
  auditor.on_node_received(2, p);  // the same wire transmission arrives again
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, InjectedDuplicateExtendsTheDeliveryBudget) {
  // netfault duplication legitimately lands the same uid at its
  // destination more than once; each on_link_fault_duplicated event buys
  // exactly one extra arrival, no more.
  sim::Simulator sim{1};
  net::Link link{sim, sim::DataRate::megabits_per_second(10), 1_ms,
                 std::make_unique<net::DropTailQueue>(1 << 20), 0.0};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/21);
  auditor.on_link_fault_duplicated(link, p);  // one injected copy
  auditor.on_node_received(2, p);
  auditor.on_node_received(2, p);  // the copy: within the extended budget
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.on_node_received(2, p);  // a third arrival exceeds 1 + 1
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, ForwardingHopsDoNotCountAsDeliveries) {
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/9);
  auditor.on_node_received(1, p);  // transit hop: p.dst == 2
  auditor.on_node_received(2, p);  // destination
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- queue accounting -------------------------------------------------------

/// A buggy queue that admits everything, ignoring its capacity — the class
/// of bug the byte-accounting audit exists to catch.
class OverfullQueue final : public net::PacketQueue {
 public:
  explicit OverfullQueue(std::uint64_t capacity) : capacity_{capacity} {}

  bool enqueue(net::Packet p, sim::Time now) override {
    bytes_ += p.size_bytes;
    packets_.push_back(std::move(p));
    record_enqueue(packets_.back(), now, packets_.size());
    return true;
  }
  std::optional<net::Packet> dequeue(sim::Time /*now*/) override {
    if (packets_.empty()) return std::nullopt;
    net::Packet p = std::move(packets_.front());
    packets_.pop_front();
    bytes_ -= p.size_bytes;
    record_dequeue(p);
    return p;
  }
  std::uint64_t byte_length() const override { return bytes_; }
  std::size_t packet_count() const override { return packets_.size(); }
  std::uint64_t capacity_bytes() const override { return capacity_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::deque<net::Packet> packets_;
};

TEST(InvariantAuditorTest, OverFullQueueIsFlagged) {
#ifndef HALFBACK_AUDIT
  // The queue's record_* helpers only reach the auditor through the
  // compiled-out hook macro.
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  InvariantAuditor auditor;
  OverfullQueue queue{2'000};
  queue.set_auditor(&auditor);
  // A bare queue: no link, no link id, so its shadow is a fallback slot.
  ASSERT_EQ(queue.link_id(), net::kNoLinkId);

  ASSERT_TRUE(queue.enqueue(make_data_packet(1), sim::Time::zero()));
  EXPECT_TRUE(auditor.ok());
  ASSERT_TRUE(queue.enqueue(make_data_packet(2), sim::Time::zero()));  // 3000 B > 2000 B
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations()[0], "queue over-full: holds 3000 B, capacity 2000 B");
  ASSERT_TRUE(queue.dequeue(sim::Time::zero()).has_value());
  auditor.finalize(/*drained=*/false);
  EXPECT_EQ(auditor.total_violations(), 1u) << auditor.report();
}

TEST(InvariantAuditorTest, DropTailAccountingIsClean) {
  InvariantAuditor auditor;
  net::DropTailQueue queue{3'000};
  queue.set_auditor(&auditor);

  EXPECT_TRUE(queue.enqueue(make_data_packet(1), sim::Time::zero()));
  EXPECT_TRUE(queue.enqueue(make_data_packet(2), sim::Time::zero()));
  EXPECT_FALSE(queue.enqueue(make_data_packet(3), sim::Time::zero()));  // admission drop
  EXPECT_TRUE(queue.dequeue(sim::Time::zero()).has_value());
  EXPECT_TRUE(queue.dequeue(sim::Time::zero()).has_value());
  EXPECT_FALSE(queue.dequeue(sim::Time::zero()).has_value());

  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_EQ(queue.stats().dequeued_packets, 2u);
  EXPECT_EQ(queue.stats().dropped_packets, 1u);
}

// --- scoreboard consistency -------------------------------------------------

TEST(InvariantAuditorTest, SackForNeverSentSegmentIsFlagged) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  // Segments 0..4 sent; a corrupted ACK SACKs segment 7, which never left
  // the sender.
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  net::Packet ack;
  ack.type = net::PacketType::ack;
  ack.cum_ack = 0;
  transport::AckUpdate update = scoreboard.apply_ack(0, {{7, 8}});
  ASSERT_EQ(update.newly_sacked.size(), 1u);

  auditor.on_ack_applied(scoreboard, /*flow=*/1, ack, update);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, CumAckRegressionIsFlagged) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  net::Packet ack;
  ack.type = net::PacketType::ack;

  transport::AckUpdate forward;
  forward.cum_ack_before = 0;
  forward.cum_ack_after = 6;
  auditor.on_ack_applied(scoreboard, 1, ack, forward);
  EXPECT_TRUE(auditor.ok());

  transport::AckUpdate backward;
  backward.cum_ack_before = 6;
  backward.cum_ack_after = 3;  // the ACK clock ran backwards
  auditor.on_ack_applied(scoreboard, 1, ack, backward);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, ScoreboardUpdatesThroughSenderPathAreClean) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{4};
  net::Packet ack;
  ack.type = net::PacketType::ack;
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
    auditor.on_segment_sent(scoreboard, 1, "tcp", seq, false, seq + 1);
  }
  transport::AckUpdate update = scoreboard.apply_ack(2, {{3, 4}});
  auditor.on_ack_applied(scoreboard, 1, ack, update);
  update = scoreboard.apply_ack(4, {});
  auditor.on_ack_applied(scoreboard, 1, ack, update);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- ROPR reverse-order property --------------------------------------------

TEST(InvariantAuditorTest, RoprReverseOrderViolationIsFlagged) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  auditor.on_segment_sent(scoreboard, 1, "halfback", 8, /*proactive=*/true, 11);
  auditor.on_segment_sent(scoreboard, 1, "halfback", 6, /*proactive=*/true, 12);
  EXPECT_TRUE(auditor.ok());
  // Walking forward again breaks §3.2's reverse-order property.
  auditor.on_segment_sent(scoreboard, 1, "halfback", 7, /*proactive=*/true, 13);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, ForwardAblationIsExemptFromRoprOrder) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  auditor.on_segment_sent(scoreboard, 1, "halfback-forward", 2, true, 11);
  auditor.on_segment_sent(scoreboard, 1, "halfback-forward", 3, true, 12);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- exact FNV fast path ----------------------------------------------------

/// The byte-serial FNV-1a step the trace hash has always used.
std::uint64_t reference_fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

TEST(FnvFastPathTest, EdgeValuesMatchTheByteSerialLoop) {
  for (std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xff}, std::uint64_t{0x100},
        std::uint64_t{1} << 56, ~std::uint64_t{0}, std::uint64_t{0x0100000000000001},
        std::uint64_t{0x00ff00ff00ff00ff}}) {
    EXPECT_EQ(fnv1a_mix(kFnvOffsetBasis, value), reference_fnv1a(kFnvOffsetBasis, value))
        << std::hex << value;
  }
}

TEST(FnvFastPathTest, RandomValuesWithInteriorZeroBytesMatchTheByteSerialLoop) {
  std::mt19937_64 rng{20151201};
  std::uint64_t fast = kFnvOffsetBasis;
  std::uint64_t reference = kFnvOffsetBasis;
  for (int i = 0; i < 100'000; ++i) {
    std::uint64_t value = rng();
    // Zero a random subset of bytes (interior ones included) and shorten
    // the value to a random width, so every significant-byte count and
    // every zero-byte pattern occurs.
    const std::uint64_t keep_bytes = rng();
    for (int b = 0; b < 8; ++b) {
      if (((keep_bytes >> b) & 1U) == 0) value &= ~(0xffULL << (8 * b));
    }
    value >>= 8 * (rng() % 8);
    fast = fnv1a_mix(fast, value);
    reference = reference_fnv1a(reference, value);
    ASSERT_EQ(fast, reference) << "after " << i << " values, last " << std::hex << value;
  }
}

TEST(FnvFastPathTest, EventHooksFoldTimeThenSeqIntoTheTraceHash) {
  InvariantAuditor auditor;
  EXPECT_EQ(auditor.trace_hash(), kFnvOffsetBasis);
  auditor.on_event_run(sim::Time::nanoseconds(1'234'567'890'123), 0x10002);
  const std::uint64_t expected = reference_fnv1a(
      reference_fnv1a(kFnvOffsetBasis, 1'234'567'890'123), 0x10002);
  EXPECT_EQ(auditor.trace_hash(), expected);
}

// --- dense shadows and their fallbacks ---------------------------------------

TEST(InvariantAuditorTest, EventViolationMessagesAreUnchanged) {
  InvariantAuditor auditor;
  auditor.on_event_scheduled(5_ms, 1_ms);
  auditor.on_event_run(2_ms, 7);
  auditor.on_event_run(2_ms, 7);
  auditor.on_event_run(1_ms, 8);
  ASSERT_EQ(auditor.violations().size(), 3u) << auditor.report();
  EXPECT_EQ(auditor.violations()[0],
            "event scheduled in the past: at=" + (1_ms).to_string() +
                " now=" + (5_ms).to_string());
  EXPECT_EQ(auditor.violations()[1], "FIFO tie-break violated at " +
                                         (2_ms).to_string() +
                                         ": seq 7 ran before seq 7");
  EXPECT_EQ(auditor.violations()[2], "event time went backwards: " +
                                         (2_ms).to_string() + " -> " +
                                         (1_ms).to_string());
}

TEST(InvariantAuditorTest, SparseFlowIdDoubleDeliveryIsFlagged) {
  InvariantAuditor auditor;
  net::Packet p = make_data_packet(/*uid=*/7, /*seq=*/3);
  p.flow = std::uint64_t{1} << 40;
  auditor.on_node_received(2, p);
  // A dense flow with the same uid is a different flow: no cross-talk.
  auditor.on_node_received(2, make_data_packet(/*uid=*/7, /*seq=*/3));
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.on_node_received(2, p);
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations()[0],
            "packet delivered to its destination more often than sent: flow "
            "1099511627776 seq 3 uid 7 arrived 2x with a budget of 1 "
            "(1 + injected duplicates)");
}

TEST(InvariantAuditorTest, SparseFlowShadowMovesIntoTheDenseTableIntact) {
  // A flow first seen as sparse (far beyond the table) keeps its books
  // when the dense table later grows to cover its id.
  InvariantAuditor auditor;
  net::Packet p = make_data_packet(/*uid=*/5);
  p.flow = 200;
  auditor.on_node_received(2, p);
  for (std::uint64_t flow = 1; flow <= 300; ++flow) {
    net::Packet other = make_data_packet(/*uid=*/1000 + flow);
    other.flow = flow;
    if (flow != 200) auditor.on_node_received(2, other);
  }
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.on_node_received(2, p);
  EXPECT_EQ(auditor.total_violations(), 1u) << auditor.report();
}

TEST(InvariantAuditorTest, SackBeyondTheWireBitsetIsFlagged) {
  sim::Simulator sim{1};
  net::Link link{sim, sim::DataRate::megabits_per_second(10), 1_ms,
                 std::make_unique<net::DropTailQueue>(1 << 20), 0.0};
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{1000};
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  // Segment 650 crossed the wire outside the scoreboard (RC3's RLP copies
  // do this): SACKing it is legitimate.
  auditor.on_link_offered(link, make_data_packet(/*uid=*/99, /*seq=*/650));
  net::Packet ack;
  ack.type = net::PacketType::ack;
  auditor.on_ack_applied(scoreboard, 1, ack, scoreboard.apply_ack(0, {{650, 651}}));
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  // Segment 900 lies past every bit the wire trace has set so far.
  auditor.on_ack_applied(scoreboard, 1, ack, scoreboard.apply_ack(0, {{900, 901}}));
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations()[0], "segment 900 of flow 1 was SACKed but never sent");
}

TEST(InvariantAuditorTest, DupCreditBudgetIsExactlyOnePlusK) {
  sim::Simulator sim{1};
  net::Link link{sim, sim::DataRate::megabits_per_second(10), 1_ms,
                 std::make_unique<net::DropTailQueue>(1 << 20), 0.0};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/31, /*seq=*/4);
  for (int k = 0; k < 3; ++k) auditor.on_link_fault_duplicated(link, p);
  for (int arrival = 0; arrival < 4; ++arrival) auditor.on_node_received(2, p);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.on_node_received(2, p);
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations()[0],
            "packet delivered to its destination more often than sent: flow 1 "
            "seq 4 uid 31 arrived 5x with a budget of 4 (1 + injected duplicates)");
}

TEST(InvariantAuditorTest, TwoNetworksWithTheirOwnAuditorsDoNotCrossTalk) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  testing::DumbbellFixture a;
  testing::DumbbellFixture b;
  InvariantAuditor auditor_a;
  InvariantAuditor auditor_b;
  a.net.install_auditor(auditor_a);
  b.net.install_auditor(auditor_b);
  // Both networks number their links from 0: the ids collide, the books
  // must not.
  ASSERT_EQ(a.dumbbell.bottleneck_forward->id(), b.dumbbell.bottleneck_forward->id());

  a.start(schemes::Scheme::halfback, 100'000);
  b.start(schemes::Scheme::halfback, 100'000);
  a.sim.run();
  b.sim.run();
  auditor_a.finalize(a.sim.queue().empty());
  auditor_b.finalize(b.sim.queue().empty());
  EXPECT_TRUE(auditor_a.ok()) << auditor_a.report();
  EXPECT_TRUE(auditor_b.ok()) << auditor_b.report();
  EXPECT_EQ(auditor_a.trace_hash(), auditor_b.trace_hash());

  // A phantom delivery on network a's bottleneck breaks only a's books.
  auditor_a.on_link_delivered(*a.dumbbell.bottleneck_forward, make_data_packet(77));
  EXPECT_FALSE(auditor_a.ok());
  EXPECT_TRUE(auditor_b.ok()) << auditor_b.report();
}

TEST(InvariantAuditorTest, LinkWhoseIdIsTakenKeepsItsOwnBooks) {
  // One auditor shown the links of two networks: the second network's
  // link 0 finds the dense slot taken and falls back to its own shadow.
  sim::Simulator sim{1};
  net::Network first{sim};
  net::Network second{sim};
  for (net::Network* network : {&first, &second}) {
    network->add_node();
    network->add_node();
  }
  net::LinkConfig config;
  config.rate = sim::DataRate::megabits_per_second(10);
  config.delay = 1_ms;
  net::Link& link_a = *first.connect(0, 1, config).forward;
  net::Link& link_b = *second.connect(0, 1, config).forward;
  ASSERT_EQ(link_a.id(), link_b.id());
  InvariantAuditor auditor;
  auditor.on_link_registered(link_a);
  auditor.on_link_registered(link_b);
  auditor.on_link_offered(link_a, make_data_packet(1));
  auditor.on_link_delivered(link_a, make_data_packet(1));
  auditor.on_link_delivered(link_b, make_data_packet(2));  // never offered on b
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations()[0],
            "link delivered more packets than were offered: offered=0 (+0 "
            "duplicated) delivered=1 (uid 2)");
}

// --- reporting --------------------------------------------------------------

TEST(InvariantAuditorTest, ReportListsViolationsAndCapsStorage) {
  InvariantAuditor auditor;
  for (int i = 0; i < 200; ++i) {
    auditor.on_event_run(2_ms, 1);
    auditor.on_event_run(1_ms, 2);  // time goes backwards every iteration
  }
  EXPECT_FALSE(auditor.ok());
  EXPECT_LE(auditor.violations().size(), InvariantAuditor::kMaxStoredViolations);
  EXPECT_GT(auditor.total_violations(), auditor.violations().size());
  EXPECT_NE(auditor.report().find("further violations"), std::string::npos);
}

}  // namespace
}  // namespace halfback::audit
