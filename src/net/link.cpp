// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#include "net/link.h"

#include <stdexcept>
#include <utility>

#include "audit/auditor.h"
#include "telemetry/hub.h"

namespace halfback::net {

Link::Link(sim::Simulator& simulator, sim::DataRate rate, sim::Time delay,
           std::unique_ptr<PacketQueue> queue, LossRate random_loss_rate)
    : simulator_{simulator},
      rate_{rate},
      delay_{delay},
      queue_{std::move(queue)},
      random_loss_rate_{random_loss_rate},
      loss_rng_{simulator.random().fork(0x11bbULL)} {
  if (rate_.is_zero()) throw std::invalid_argument{"Link rate must be positive"};
  if (!queue_) throw std::invalid_argument{"Link requires a queue"};
}

void Link::send(Packet p) {
  HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_offered(*this, p));
  if (packet_filter_ && !packet_filter_(p)) {
    ++stats_.corrupted_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_filtered(*this, p));
    return;
  }
  if (transmitting_) {
    // The queue reports its depth to the tap itself (it knows its resident
    // count without a virtual packet_count() call).
    queue_->enqueue(std::move(p), simulator_.now());
    return;
  }
  begin_transmission(std::move(p));
}

void Link::begin_transmission(Packet p) {
  transmitting_ = true;
  const sim::Time tx = rate_.transmission_time(p.size_bytes);
  stats_.busy_time += tx;
  tx_packet_ = std::move(p);
  simulator_.schedule_event(tx, tx_done_);
}

void Link::on_serialization_done() {
  // Serialization done: launch the packet into the propagation pipe; the
  // single tx_done_ event is free to be re-armed for the next packet in
  // on_transmission_complete().
  const bool corrupted = !random_loss_rate_.is_zero() &&
                         loss_rng_.bernoulli(random_loss_rate_.value());
  if (corrupted) {
    ++stats_.corrupted_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_corrupted(*this, tx_packet_));
  } else if (fault_hook_ == nullptr) {
    launch(tx_packet_, delay_);
  } else {
    apply_faults();
  }
  on_transmission_complete();
}

void Link::launch(const Packet& p, sim::Time pipe_delay) {
  const sim::Time at = simulator_.now() + pipe_delay;
  const std::uint64_t seq = simulator_.reserve_event_seq(at);
  // The fresh seq is the largest yet, so the packet goes after every entry
  // landing no later than it. A fault-free pipe has a constant delay and
  // always appends; an extra fault delay on an earlier packet makes a later
  // one overtake it here.
  std::size_t pos = pipe_.size();
  while (pos > 0 && pipe_[pos - 1].at > at) --pos;
  // lint: hot-ok(ring grows only at a new in-flight high-water mark)
  InFlight& entry = pipe_.insert(pos);
  entry.at = at;
  entry.seq = seq;
  entry.packet = p;
  if (pos == 0) simulator_.schedule_reserved(arrival_, at, seq);
}

void Link::on_arrival() {
  Packet p = std::move(pipe_.front().packet);
  pipe_.pop_front();
  // Re-arm before delivering: from inside fire() the first schedule drops
  // into the dispatch hole, and delivery's own schedules then sift as usual.
  if (!pipe_.empty()) {
    const InFlight& next = pipe_.front();
    simulator_.schedule_reserved(arrival_, next.at, next.seq);
  }
  deliver(std::move(p));
}

void Link::apply_faults() {
  // Out of line so the fault-free fast path in on_serialization_done stays
  // a single null test. The hook decides; the link executes.
  FaultDecision decision = fault_hook_->on_transmit(tx_packet_, simulator_.now());
  if (decision.drop) {
    ++stats_.fault_dropped_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                        on_link_fault_dropped(*this, tx_packet_));
    record_fault(telemetry::FaultKind::drop);
    return;
  }
  if (decision.corrupt && !tx_packet_.corrupted) {
    tx_packet_.corrupted = true;
    ++stats_.fault_corrupted_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                        on_link_fault_corrupted(*this, tx_packet_));
    record_fault(telemetry::FaultKind::corrupt);
  }
  if (decision.extra_delay < sim::Time::zero() ||
      decision.duplicate_spacing < sim::Time::zero()) {
    // lint: hot-ok(hook-contract guard; unreachable for well-formed fault hooks)
    throw std::logic_error{"FaultHook returned a negative delay"};
  }
  if (!decision.extra_delay.is_zero()) {
    ++stats_.fault_delayed_packets;
    record_fault(telemetry::FaultKind::delay);
  }
  const sim::Time pipe = delay_ + decision.extra_delay;
  // Launch the original first so that with zero spacing the copies still
  // trail it in same-timestamp FIFO order.
  launch(tx_packet_, pipe);
  sim::Time copy_at = pipe;
  for (std::uint32_t i = 0; i < decision.duplicates; ++i) {
    ++stats_.fault_duplicated_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                        on_link_fault_duplicated(*this, tx_packet_));
    record_fault(telemetry::FaultKind::duplicate);
    copy_at += decision.duplicate_spacing;
    launch(tx_packet_, copy_at);
  }
}

void Link::record_fault(telemetry::FaultKind kind) {
  if (tap_ != nullptr) tap_->fault(simulator_.now(), kind, tx_packet_.uid);
}

void Link::deliver(Packet&& p) {
  ++stats_.delivered_packets;
  stats_.delivered_bytes += p.size_bytes;
  if (tap_ != nullptr) tap_->delivered(simulator_.now(), p.size_bytes);
  HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_delivered(*this, p));
  if (dst_node_ != nullptr) {
    HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_node_received(dst_node_->id(), p));
    dst_node_->handle(std::move(p));
  }
}

void Link::on_transmission_complete() {
  if (auto next = queue_->dequeue(simulator_.now())) {
    begin_transmission(std::move(*next));
  } else {
    transmitting_ = false;
  }
}

}  // namespace halfback::net
