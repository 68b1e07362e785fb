// Unidirectional point-to-point link with an egress queue.
//
// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "net/fault_hook.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/annotations.h"
#include "sim/bytes.h"
#include "sim/data_rate.h"
#include "sim/event_queue.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "telemetry/flight_recorder.h"

namespace halfback::telemetry {
class LinkTap;
}  // namespace halfback::telemetry

namespace halfback::net {

/// A per-packet random-loss probability, validated at construction: an
/// out-of-range rate fails loudly at topology build time instead of running
/// a silently absurd experiment. Converts implicitly from double so config
/// literals like `0.01` keep working.
class LossRate {
 public:
  constexpr LossRate() = default;
  constexpr LossRate(double rate) : rate_{validated(rate)} {}  // NOLINT(google-explicit-constructor)

  constexpr double value() const { return rate_; }
  constexpr bool is_zero() const { return rate_ <= 0.0; }

 private:
  static constexpr double validated(double rate) {
    if (!(rate >= 0.0 && rate <= 1.0)) {  // negated so NaN is rejected too
      throw std::invalid_argument{"loss rate must be within [0, 1]"};
    }
    return rate;
  }
  double rate_ = 0.0;
};

/// Counters a link maintains.
struct LinkStats {
  std::uint64_t delivered_packets = 0;
  sim::Bytes delivered_bytes;
  std::uint64_t corrupted_packets = 0;  ///< random-loss drops
  sim::Time busy_time;                  ///< total serialization time

  // Injected faults (zero unless a FaultHook is installed; see
  // src/netfault/ and docs/fault-injection.md).
  std::uint64_t fault_dropped_packets = 0;     ///< discarded by the hook
  std::uint64_t fault_duplicated_packets = 0;  ///< extra copies launched
  std::uint64_t fault_corrupted_packets = 0;   ///< delivered with bad payload
  std::uint64_t fault_delayed_packets = 0;     ///< given extra propagation delay
};

/// One direction of a point-to-point link.
///
/// Models serialization at `rate`, propagation over `delay`, an egress
/// queue for contention, and (optionally, for wireless access profiles) a
/// random per-packet error rate applied after serialization.
///
/// Event model: a link keeps at most two events pending, however many
/// packets it carries. The transmitter serializes one packet at a time, so
/// the serialization-done event is a single reusable intrusive event
/// embedded in the link (`tx_done_`) and the in-service packet parks in
/// `tx_packet_`. The propagation pipe is a ring of in-flight packets in
/// arrival order, each stamped at launch with its arrival time and the
/// FIFO sequence number a per-packet event scheduled then would have
/// drawn; one embedded arrival event (`arrival_`) is armed on the head
/// with exactly that (time, seq), so packets land in the same global order
/// as if each had its own event. Steady-state forwarding allocates nothing.
class Link {
 public:
  Link(sim::Simulator& simulator, sim::DataRate rate, sim::Time delay,
       std::unique_ptr<PacketQueue> queue, LossRate random_loss_rate = {});

  /// Where delivered packets go (the far-end node): a direct call into
  /// Node::handle with no type erasure on the per-packet hop.
  void set_receiver_node(Node& node) { dst_node_ = &node; }

  /// Fault-injection hook: packets for which the filter returns false are
  /// dropped before entering the queue (counted as corrupted). Used by
  /// tests and the Fig. 3 walkthrough to force specific losses.
  // lint: function-ok(test-only fault-injection hook, unset in experiments)
  void set_packet_filter(std::function<bool(const Packet&)> filter) {
    packet_filter_ = std::move(filter);
  }

  /// Install (or clear, with nullptr) a fault-injection hook, consulted
  /// after serialization for every packet. Not owned; the caller must keep
  /// it alive as long as the link transmits. With no hook installed the
  /// per-packet cost is a single null test (see on_serialization_done).
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Attach this link's telemetry tap (nullptr detaches; owned by the
  /// telemetry Hub, which hands the same tap to the egress queue). The tap
  /// tallies deliveries and records fault hits; with no tap attached the
  /// per-packet cost is one null test.
  void set_tap(telemetry::LinkTap* tap) { tap_ = tap; }

  /// Hand a packet to the link. It is queued if the transmitter is busy and
  /// may be dropped by the queue discipline.
  void send(Packet p) HB_EFFECTS(alloc, throw);

  /// Dense index within the owning Network (creation order, from 0),
  /// assigned by Network::make_link; kNoLinkId for a link built bare.
  /// Auditors index their per-link shadow state by it.
  std::uint32_t id() const { return id_; }

  sim::DataRate rate() const { return rate_; }
  sim::Time propagation_delay() const { return delay_; }
  PacketQueue& queue() { return *queue_; }
  const PacketQueue& queue() const { return *queue_; }
  const LinkStats& stats() const { return stats_; }

  /// Packets in the propagation pipe (launched, not yet delivered).
  std::size_t in_flight() const { return pipe_.size(); }

  /// Fraction of [0, now] this link spent serializing packets.
  double utilization(sim::Time now) const {
    return now.is_zero() ? 0.0 : stats_.busy_time / now;
  }

 private:
  friend class Network;  // numbers the links it creates

  /// Set this link's id and stamp it on its queue.
  void assign_id(std::uint32_t id) {
    id_ = id;
    queue_->link_id_ = id;
  }

  /// Serialization-complete event; one per link, reused for every packet
  /// (the transmitter serializes strictly one at a time).
  class TxDoneEvent final : public sim::Event {
   public:
    explicit TxDoneEvent(Link& link) : link_{link} {}

   private:
    // lint: fire-may-throw(drains the queue into transport logic whose invariant checks throw; exceptions must reach run()'s caller)
    void fire() override { link_.on_serialization_done(); }
    Link& link_;
  };

  /// Arrival event; one per link, armed on the pipe's head packet. The
  /// name keeps "PacketEvent" for dispatch profiles that bucket by it.
  class PacketEvent final : public sim::Event {
   public:
    explicit PacketEvent(Link& link) : link_{link} {}

   private:
    // lint: fire-may-throw(delivery runs transport logic whose invariant checks throw; exceptions must reach run()'s caller)
    void fire() override { link_.on_arrival(); }
    Link& link_;
  };

  /// A packet in the propagation pipe, with the (time, seq) it lands at.
  struct InFlight {
    sim::Time at;
    std::uint64_t seq = 0;
    Packet packet;
  };

  void begin_transmission(Packet p);
  void on_serialization_done();
  void on_transmission_complete();

  /// Launch a packet into the propagation pipe, arriving after
  /// `pipe_delay` (>= delay_; fault hooks may stretch it).
  void launch(const Packet& p, sim::Time pipe_delay) HB_EFFECTS(alloc);
  /// Land the pipe's head packet and re-arm on the next one.
  void on_arrival() HB_EFFECTS(alloc, throw);
  /// Out-of-line slow path: consult fault_hook_ and act on its decision.
  void apply_faults();
  /// Report a fault hit on tx_packet_ to the tap (no-op without one).
  void record_fault(telemetry::FaultKind kind);

  void deliver(Packet&& p);

  sim::Simulator& simulator_;
  std::uint32_t id_ = kNoLinkId;
  sim::DataRate rate_;
  sim::Time delay_;
  std::unique_ptr<PacketQueue> queue_;
  LossRate random_loss_rate_;
  sim::Random loss_rng_;
  Node* dst_node_ = nullptr;                        ///< direct-delivery fast path
  std::function<bool(const Packet&)> packet_filter_;  // lint: function-ok(test-only hook)
  FaultHook* fault_hook_ = nullptr;  ///< not owned; nullptr = fault-free fast path
  telemetry::LinkTap* tap_ = nullptr;  ///< not owned; nullptr = no telemetry
  bool transmitting_ = false;
  LinkStats stats_;

  TxDoneEvent tx_done_{*this};
  Packet tx_packet_;  ///< the packet currently serializing; valid while transmitting_
  /// In-flight packets ordered by (at, seq); the head's is the earliest.
  sim::Ring<InFlight> pipe_;
  PacketEvent arrival_{*this};  ///< armed on pipe_.front() while non-empty
};

}  // namespace halfback::net
