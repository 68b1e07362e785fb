#include "audit/invariant_auditor.h"

#include <algorithm>
#include <sstream>

#include "net/link.h"
#include "net/packet.h"
#include "net/queue.h"
#include "transport/scoreboard.h"

namespace halfback::audit {

void InvariantAuditor::violation(std::string what) {
  ++total_violations_;
  if (violations_.size() < kMaxStoredViolations) violations_.push_back(std::move(what));
}

std::string InvariantAuditor::report() const {
  std::ostringstream out;
  for (const std::string& v : violations_) out << v << '\n';
  if (total_violations_ > violations_.size()) {
    out << "... and " << (total_violations_ - violations_.size())
        << " further violations not stored\n";
  }
  return out.str();
}

// --- shadow lookup -----------------------------------------------------------
// The fast path is one bounds check and one owner compare. Everything else
// (a first sighting, a bare component, an id another network already
// claimed in this auditor, a sparse flow id) takes the out-of-line claim_*.

InvariantAuditor::QueueShadow& InvariantAuditor::queue_shadow(
    const net::PacketQueue& queue) {
  const std::size_t id = queue.link_id();
  if (id < queues_.size() && queues_[id].queue == &queue) [[likely]] {
    return queues_[id];
  }
  return claim_queue_shadow(queue);
}

InvariantAuditor::LinkShadow& InvariantAuditor::link_shadow(const net::Link& link) {
  const std::size_t id = link.id();
  if (id < links_.size() && links_[id].link == &link) [[likely]] return links_[id];
  return claim_link_shadow(link);
}

InvariantAuditor::FlowShadow& InvariantAuditor::flow_shadow(std::uint64_t flow) {
  if (flow < flows_.size()) [[likely]] return flows_[flow];
  return claim_flow_shadow(flow);
}

InvariantAuditor::QueueShadow& InvariantAuditor::claim_queue_shadow(
    const net::PacketQueue& queue) {
  const std::size_t id = queue.link_id();
  if (id != net::kNoLinkId) {
    if (id >= queues_.size()) queues_.resize(id + 1);
    if (queues_[id].queue == nullptr) {
      queues_[id].queue = &queue;
      return queues_[id];
    }
  }
  QueueShadow& shadow = bare_queues_[&queue];
  shadow.queue = &queue;
  return shadow;
}

InvariantAuditor::LinkShadow& InvariantAuditor::claim_link_shadow(const net::Link& link) {
  const std::size_t id = link.id();
  if (id != net::kNoLinkId) {
    if (id >= links_.size()) links_.resize(id + 1);
    if (links_[id].link == nullptr) {
      links_[id].link = &link;
      return links_[id];
    }
  }
  LinkShadow& shadow = bare_links_[&link];
  shadow.link = &link;
  return shadow;
}

InvariantAuditor::FlowShadow& InvariantAuditor::claim_flow_shadow(std::uint64_t flow) {
  // Grow the dense table when `flow` is near its end (ids arrive densely
  // from 1); anything further out is a sparse id and stays in the map.
  constexpr std::uint64_t kDenseSlack = 64;
  if (flow > 2 * flows_.size() + kDenseSlack) return sparse_flows_[flow];
  const std::size_t old_size = flows_.size();
  flows_.resize(flow + 1);
  if (!sparse_flows_.empty()) {
    // Pull in sparse entries the table now covers, so no flow has two
    // shadows.
    for (std::uint64_t id = old_size; id < flows_.size(); ++id) {
      auto it = sparse_flows_.find(id);
      if (it == sparse_flows_.end()) continue;
      flows_[id] = std::move(it->second);
      sparse_flows_.erase(it);
    }
  }
  return flows_[flow];
}

void InvariantAuditor::FlowShadow::grow_wire_seqs(std::size_t word) {
  wire_seqs.resize(std::max(word + 1, 2 * wire_seqs.size()));
}

// --- net: links ------------------------------------------------------------

void InvariantAuditor::on_link_registered(const net::Link& link) {
  link_shadow(link);
  queue_shadow(link.queue()).link = &link;
}

void InvariantAuditor::on_link_offered(const net::Link& link,
                                       const net::Packet& packet) {
  ++link_shadow(link).offered;
  if (packet.type == net::PacketType::data) {
    flow_shadow(packet.flow).mark_on_wire(packet.seq);
  }
  mix(packet.uid);
}

void InvariantAuditor::on_link_filtered(const net::Link& link,
                                        const net::Packet& /*packet*/) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.filtered;
  if (shadow.accounted() > shadow.expected()) {
    violation("link accounted for more packets than were offered (filter)");
  }
}

void InvariantAuditor::on_link_corrupted(const net::Link& link,
                                         const net::Packet& /*packet*/) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.corrupted;
  if (shadow.accounted() > shadow.expected()) {
    violation("link accounted for more packets than were offered (corruption)");
  }
}

void InvariantAuditor::on_link_delivered(const net::Link& link,
                                         const net::Packet& packet) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.delivered;
  if (shadow.accounted() > shadow.expected()) {
    std::ostringstream out;
    out << "link delivered more packets than were offered: offered="
        << shadow.offered << " (+" << shadow.fault_duplicated
        << " duplicated) delivered=" << shadow.delivered
        << " (uid " << packet.uid << ")";
    violation(out.str());
  }
  mix(packet.uid);
  mix(packet.seq);
}

// --- net: injected faults ----------------------------------------------------
// These hooks fire only when a netfault::FaultInjector (or other FaultHook)
// is installed, so nothing here can perturb a fault-free run's books or
// trace hash. Each mixes into the hash: same seed + same fault config must
// reproduce the exact fault sequence.

void InvariantAuditor::on_link_fault_dropped(const net::Link& link,
                                             const net::Packet& packet) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.fault_dropped;
  if (shadow.accounted() > shadow.expected()) {
    violation("link accounted for more packets than were offered (fault drop)");
  }
  mix(packet.uid);
}

void InvariantAuditor::on_link_fault_duplicated(const net::Link& link,
                                                const net::Packet& packet) {
  ++link_shadow(link).fault_duplicated;
  // Extend the destination delivery budget for this transmission: one
  // injected copy = one extra legitimate arrival of the same uid.
  if (packet.type == net::PacketType::data && packet.uid != 0) {
    ++flow_shadow(packet.flow).dup_credit[packet.uid];
  }
  mix(packet.uid);
}

void InvariantAuditor::on_link_fault_corrupted(const net::Link& link,
                                               const net::Packet& packet) {
  // A corrupted packet still propagates and is counted by on_link_delivered;
  // no conservation change, but the event is part of the deterministic trace.
  link_shadow(link);
  mix(packet.uid);
}

// --- net: queues -----------------------------------------------------------

void InvariantAuditor::on_queue_enqueued(const net::PacketQueue& queue,
                                         const net::Packet& packet) {
  QueueShadow& shadow = queue_shadow(queue);
  shadow.bytes += packet.size_bytes;
  ++shadow.packets;
  ++shadow.enqueued;
  const std::uint64_t held = queue.byte_length();
  if (held != shadow.bytes) {
    std::ostringstream out;
    out << "queue byte accounting diverged after enqueue: queue reports "
        << held << " B, audit expects " << shadow.bytes << " B";
    violation(out.str());
  }
  const std::uint64_t capacity = queue.capacity_bytes();
  if (capacity > 0 && held > capacity) {
    std::ostringstream out;
    out << "queue over-full: holds " << held << " B, capacity " << capacity << " B";
    violation(out.str());
  }
}

void InvariantAuditor::on_queue_dropped(const net::PacketQueue& queue,
                                        const net::Packet& packet,
                                        DropContext context) {
  QueueShadow& shadow = queue_shadow(queue);
  ++shadow.dropped;
  if (context == DropContext::in_queue) {
    // The discipline removed a resident packet (CoDel's dequeue-side drop).
    if (shadow.bytes < packet.size_bytes || shadow.packets == 0) {
      violation("queue dropped a resident packet it never admitted");
    } else {
      shadow.bytes -= packet.size_bytes;
      --shadow.packets;
    }
  }
  if (shadow.link != nullptr) ++link_shadow(*shadow.link).queue_dropped;
}

void InvariantAuditor::on_queue_dequeued(const net::PacketQueue& queue,
                                         const net::Packet& packet) {
  QueueShadow& shadow = queue_shadow(queue);
  if (shadow.bytes < packet.size_bytes || shadow.packets == 0) {
    violation("queue released a packet it never admitted");
  } else {
    shadow.bytes -= packet.size_bytes;
    --shadow.packets;
  }
  ++shadow.dequeued;
  if (queue.byte_length() != shadow.bytes) {
    std::ostringstream out;
    out << "queue byte accounting diverged after dequeue: queue reports "
        << queue.byte_length() << " B, audit expects " << shadow.bytes << " B";
    violation(out.str());
  }
}

// --- net: nodes ------------------------------------------------------------

void InvariantAuditor::on_node_received(std::uint32_t node,
                                        const net::Packet& packet) {
  // Delivery-uniqueness check at the destination: a wire transmission (one
  // uid) must reach its destination at most once. Forwarding hops are
  // excluded — the same uid legitimately transits several nodes.
  if (packet.type != net::PacketType::data || packet.uid == 0) return;
  if (packet.dst != node) return;
  // Note: uniqueness per uid is the invariant; comparing the count of
  // delivered uids against sender-side sends would be unsound, because some
  // schemes (RC3's low-priority RLP copies) transmit outside the
  // SenderBase::send_segment path that feeds on_segment_sent.
  FlowShadow& flow = flow_shadow(packet.flow);
  if (flow.delivered.insert(packet.uid)) [[likely]] return;  // first arrival
  const std::uint32_t count = ++flow.repeat_deliveries[packet.uid] + 1;
  std::uint32_t allowed = 1;
  if (!flow.dup_credit.empty()) {
    auto credit = flow.dup_credit.find(packet.uid);
    if (credit != flow.dup_credit.end()) allowed += credit->second;
  }
  if (count > allowed) {
    std::ostringstream out;
    out << "packet delivered to its destination more often than sent: flow "
        << packet.flow << " seq " << packet.seq << " uid " << packet.uid
        << " arrived " << count << "x with a budget of " << allowed
        << " (1 + injected duplicates)";
    violation(out.str());
  }
}

// --- transport -------------------------------------------------------------

void InvariantAuditor::on_segment_sent(const transport::Scoreboard& scoreboard,
                                       std::uint64_t flow, const std::string& scheme,
                                       std::uint32_t seq, bool proactive,
                                       std::uint64_t uid) {
  FlowShadow& shadow = flow_shadow(flow);
  if (seq >= scoreboard.total_segments()) {
    violation("segment sent beyond the flow length");
  }
  // Halfback's ROPR property (§3.2): proactive retransmissions walk strictly
  // backwards from the end of the paced batch. Ablations ("halfback-forward",
  // Proactive TCP) legitimately differ, so the check is name-gated.
  if (proactive && scheme == "halfback") {
    if (shadow.have_proactive && seq >= shadow.last_proactive_seq) {
      std::ostringstream out;
      out << "ROPR order violated on flow " << flow << ": proactive retx of seq "
          << seq << " after seq " << shadow.last_proactive_seq;
      violation(out.str());
    }
    shadow.have_proactive = true;
    shadow.last_proactive_seq = seq;
  }
  mix(uid);
  mix(seq);
}

void InvariantAuditor::on_ack_applied(const transport::Scoreboard& scoreboard,
                                      std::uint64_t flow, const net::Packet& ack,
                                      const transport::AckUpdate& update) {
  FlowShadow& shadow = flow_shadow(flow);
  if (update.cum_ack_after < update.cum_ack_before ||
      update.cum_ack_before < shadow.cum_ack) {
    std::ostringstream out;
    out << "cumulative ACK moved backwards on flow " << flow << ": "
        << shadow.cum_ack << " -> " << update.cum_ack_after;
    violation(out.str());
  }
  shadow.cum_ack = update.cum_ack_after;
  if (update.cum_ack_after > scoreboard.total_segments()) {
    violation("cumulative ACK beyond the flow length");
  }
  // sacked => sent: the receiver can only SACK a segment that crossed the
  // wire, so a SACK for a never-transmitted segment means corrupted
  // accounting. Checked against both the scoreboard and the wire trace:
  // RC3's RLP copies legitimately reach the receiver without a scoreboard
  // entry, but never without a link transmission.
  for (std::uint32_t seq : update.newly_sacked) {
    const transport::SegmentState* state = scoreboard.state(seq);
    const bool in_scoreboard = state != nullptr && state->times_sent > 0;
    if (!in_scoreboard && !shadow.on_wire(seq)) {
      std::ostringstream out;
      out << "segment " << seq << " of flow " << flow
          << " was SACKed but never sent";
      violation(out.str());
    }
  }
  if (scoreboard.pipe() > scoreboard.total_segments()) {
    violation("pipe() exceeds the flow length");
  }
  mix(ack.cum_ack);
  mix(static_cast<std::uint64_t>(ack.sacks.size()));
}

// --- finalize ----------------------------------------------------------------

void InvariantAuditor::finalize(bool drained) {
  const auto check_link = [&](const LinkShadow& shadow) {
    const std::uint64_t queued = shadow.link->queue().packet_count();
    if (shadow.accounted() + queued > shadow.expected()) {
      std::ostringstream out;
      out << "link conservation violated: offered=" << shadow.offered
          << " (+" << shadow.fault_duplicated << " duplicated)"
          << " delivered=" << shadow.delivered << " corrupted=" << shadow.corrupted
          << " filtered=" << shadow.filtered << " dropped=" << shadow.queue_dropped
          << " fault_dropped=" << shadow.fault_dropped << " queued=" << queued;
      violation(out.str());
    }
    if (drained && shadow.accounted() + queued < shadow.expected()) {
      std::ostringstream out;
      out << "link lost packets: offered=" << shadow.offered << " (+"
          << shadow.fault_duplicated << " duplicated) but only "
          << shadow.accounted() << " accounted and " << queued
          << " queued after the event queue drained";
      violation(out.str());
    }
  };
  const auto check_queue = [&](const QueueShadow& shadow) {
    const net::PacketQueue& queue = *shadow.queue;
    if (queue.byte_length() != shadow.bytes ||
        queue.packet_count() != shadow.packets) {
      std::ostringstream out;
      out << "queue residue mismatch at end of run: queue reports "
          << queue.byte_length() << " B / " << queue.packet_count()
          << " pkts, audit expects " << shadow.bytes << " B / " << shadow.packets
          << " pkts";
      violation(out.str());
    }
    if (drained && shadow.enqueued != shadow.dequeued + shadow.packets &&
        shadow.dropped == 0) {
      violation("queue packet conservation violated after drain");
    }
  };
  for (const LinkShadow& shadow : links_) {
    if (shadow.link != nullptr) check_link(shadow);
  }
  // lint: ordered-ok(only the order of violation messages depends on it)
  for (const auto& [link, shadow] : bare_links_) check_link(shadow);
  for (const QueueShadow& shadow : queues_) {
    if (shadow.queue != nullptr) check_queue(shadow);
  }
  // lint: ordered-ok(only the order of violation messages depends on it)
  for (const auto& [queue, shadow] : bare_queues_) check_queue(shadow);
}

}  // namespace halfback::audit
