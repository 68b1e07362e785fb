// Runtime invariant checker for the discrete-event core.
//
// Checks, continuously while a simulation runs:
//  - event-time monotonicity and FIFO tie-break order in the event engine,
//    and that nothing is scheduled in the past;
//  - queue byte/packet accounting (a queue's reported byte_length must equal
//    the bytes of the packets it admitted and has not yet released) and the
//    capacity bound (drop-tail may never hold more than its configured
//    bytes);
//  - per-link packet conservation: every packet offered to a link is
//    eventually delivered, corrupted, filtered, or dropped by its queue —
//    never duplicated, never lost without account;
//  - per-flow delivery uniqueness: no wire transmission (uid) reaches the
//    destination twice;
//  - scoreboard consistency: the cumulative ACK is monotone, SACKed
//    segments were actually sent, and pipe() never exceeds the flow length;
//  - Halfback's ROPR reverse-order property: proactive retransmissions of a
//    "halfback" flow walk strictly backwards;
//  - per-seed determinism, via an order-sensitive hash of the run trace
//    (event times, dispatch order, deliveries, sends, ACKs) that two
//    same-seed runs must reproduce exactly.
//
// Violations are collected, not thrown: a run completes and the caller
// inspects ok()/violations(). Install with Network::install_auditor (which
// also covers the owning Simulator), or Simulator::set_auditor plus
// PacketQueue::set_auditor for bare components.
//
// Shadow state is dense, because every hop touches it: link and queue
// shadows live in vectors indexed by the link id Network::make_link
// assigns, and flow shadows in a vector indexed by flow id (the runners
// number flows densely from 1). Links and queues without an id (built bare
// in tests, or a second network reusing ids) and flow ids far beyond the
// dense range fall back to maps keyed the old way.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/auditor.h"
#include "transport/uid_set.h"

namespace halfback::audit {

/// Concrete Auditor that enforces the engine invariants above.
class InvariantAuditor final : public Auditor {
 public:
  /// Violations recorded beyond this many are counted but not stored.
  static constexpr std::size_t kMaxStoredViolations = 64;

  InvariantAuditor() = default;

  /// True while no invariant has been violated.
  bool ok() const { return total_violations_ == 0; }

  /// Human-readable description of each stored violation, in order.
  const std::vector<std::string>& violations() const { return violations_; }

  /// Total violations seen, including ones beyond the storage cap.
  std::uint64_t total_violations() const { return total_violations_; }

  /// Multi-line report of all stored violations (empty string when ok()).
  std::string report() const;

  /// End-of-run conservation sweep. Pass `drained` = true when the
  /// simulator's event queue is empty (every in-flight packet must then be
  /// accounted for); false tolerates packets still in flight or queued.
  void finalize(bool drained);

  // --- Auditor hooks (the event-engine hooks are Auditor's own) ------------
  void on_link_registered(const net::Link& link) override;
  void on_link_offered(const net::Link& link, const net::Packet& packet) override;
  void on_link_filtered(const net::Link& link, const net::Packet& packet) override;
  void on_link_corrupted(const net::Link& link, const net::Packet& packet) override;
  void on_link_delivered(const net::Link& link, const net::Packet& packet) override;
  void on_link_fault_dropped(const net::Link& link, const net::Packet& packet) override;
  void on_link_fault_duplicated(const net::Link& link, const net::Packet& packet) override;
  void on_link_fault_corrupted(const net::Link& link, const net::Packet& packet) override;
  void on_queue_enqueued(const net::PacketQueue& queue,
                         const net::Packet& packet) override;
  void on_queue_dropped(const net::PacketQueue& queue, const net::Packet& packet,
                        DropContext context) override;
  void on_queue_dequeued(const net::PacketQueue& queue,
                         const net::Packet& packet) override;
  void on_node_received(std::uint32_t node, const net::Packet& packet) override;
  void on_segment_sent(const transport::Scoreboard& scoreboard, std::uint64_t flow,
                       const std::string& scheme, std::uint32_t seq, bool proactive,
                       std::uint64_t uid) override;
  void on_ack_applied(const transport::Scoreboard& scoreboard, std::uint64_t flow,
                      const net::Packet& ack,
                      const transport::AckUpdate& update) override;

 private:
  /// Shadow accounting for one queue, mirrored from the hook stream.
  struct QueueShadow {
    const net::PacketQueue* queue = nullptr;  ///< owner of this slot
    const net::Link* link = nullptr;          ///< owning link, when known
    std::uint64_t bytes = 0;                  ///< bytes the queue should hold
    std::uint64_t packets = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
  };

  /// Conservation counters for one link. Injected faults (netfault) change
  /// the books: a fault drop is one more way a packet leaves the link, and
  /// every injected duplicate raises the delivery budget by one, so the
  /// conserved identity is accounted() == offered + fault_duplicated.
  struct LinkShadow {
    const net::Link* link = nullptr;  ///< owner of this slot
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t filtered = 0;
    std::uint64_t queue_dropped = 0;
    std::uint64_t fault_dropped = 0;     ///< discarded by a FaultHook
    std::uint64_t fault_duplicated = 0;  ///< extra copies a FaultHook launched
    std::uint64_t accounted() const {
      return delivered + corrupted + filtered + queue_dropped + fault_dropped;
    }
    std::uint64_t expected() const { return offered + fault_duplicated; }
  };

  /// Sender-side view of one flow.
  struct FlowShadow {
    std::uint32_t cum_ack = 0;
    bool have_proactive = false;
    std::uint32_t last_proactive_seq = 0;
    /// Wire transmissions (uids) that reached the destination. The budget
    /// per uid is 1, plus one per injected duplicate recorded in
    /// dup_credit (fed by on_link_fault_duplicated) — exactly-once
    /// delivery, extended to exactly-(1+k)-times under injected
    /// duplication. Arrivals beyond the first are counted in
    /// repeat_deliveries, which only a repeat touches.
    transport::UidSet delivered;
    std::unordered_map<std::uint64_t, std::uint32_t> repeat_deliveries;
    std::unordered_map<std::uint64_t, std::uint32_t> dup_credit;
    /// Bitset of segment indices observed as data packets on any link.
    /// Some schemes (RC3's RLP copies) transmit outside the scoreboard
    /// path, so sacked=>sent is checked against the wire, not the
    /// scoreboard alone.
    std::vector<std::uint64_t> wire_seqs;

    void mark_on_wire(std::uint32_t seq) {
      const std::size_t word = seq / 64;
      if (word >= wire_seqs.size()) [[unlikely]] grow_wire_seqs(word);
      wire_seqs[word] |= std::uint64_t{1} << (seq % 64);
    }
    void grow_wire_seqs(std::size_t word);
    bool on_wire(std::uint32_t seq) const {
      const std::size_t word = seq / 64;
      return word < wire_seqs.size() && ((wire_seqs[word] >> (seq % 64)) & 1U) != 0;
    }
  };

  void violation(std::string what) override;
  QueueShadow& queue_shadow(const net::PacketQueue& queue);
  LinkShadow& link_shadow(const net::Link& link);
  FlowShadow& flow_shadow(std::uint64_t flow);
  QueueShadow& claim_queue_shadow(const net::PacketQueue& queue);
  LinkShadow& claim_link_shadow(const net::Link& link);
  FlowShadow& claim_flow_shadow(std::uint64_t flow);

  std::vector<std::string> violations_;
  std::uint64_t total_violations_ = 0;

  std::vector<QueueShadow> queues_;  ///< indexed by the owning link's id
  std::vector<LinkShadow> links_;    ///< indexed by net::Link::id()
  std::unordered_map<const net::PacketQueue*, QueueShadow> bare_queues_;
  std::unordered_map<const net::Link*, LinkShadow> bare_links_;
  std::vector<FlowShadow> flows_;    ///< indexed by flow id
  std::unordered_map<std::uint64_t, FlowShadow> sparse_flows_;
};

}  // namespace halfback::audit
