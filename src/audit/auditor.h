// Audit hook interface for the correctness-analysis layer.
//
// The simulator core (sim::EventQueue/Simulator), the network substrate
// (net::PacketQueue/Link/Network) and the transport (transport::SenderBase)
// invoke these hooks at every state transition worth checking: event
// scheduling and dispatch, queue admission/drop/drain, link delivery, and
// scoreboard updates. Hook call sites compile to no-ops unless the build
// defines HALFBACK_AUDIT (the default configuration and all CMake test
// presets enable it; the `release` preset turns it off), and even when
// enabled an uninstalled auditor costs one null-pointer test per hook.
//
// The two event-engine hooks fire about as often as every other hook put
// together, so they are not virtual: Auditor itself keeps the event-order
// state and the run's FNV-1a trace hash and checks dispatch order inline,
// with violations reported through an out-of-line cold path. The network
// and transport hooks stay virtual.
//
// This header sits below every other layer: it depends only on sim/time.h
// and forward declarations, so sim/net/transport can call hooks without
// linking against the audit library. The concrete checker lives in
// invariant_auditor.h and pulls in the full net/transport types.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "sim/time.h"

namespace halfback::net {
struct Packet;
class PacketQueue;
class Link;
}  // namespace halfback::net

namespace halfback::transport {
struct AckUpdate;
class Scoreboard;
}  // namespace halfback::transport

namespace halfback::audit {

/// 64-bit FNV-1a parameters.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// kFnvPrime^k for k = 0..8.
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

/// Fold the eight little-endian bytes of `value` into the FNV-1a state
/// `hash`. Bit-for-bit the byte-serial loop `hash = (hash ^ byte) * P`:
/// only the significant low bytes take that step, because a zero byte's
/// xor is a no-op and the k zero high bytes collapse into one multiply by
/// P^k. Interior zero bytes take the step like any other.
constexpr std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  const int significant = (std::bit_width(value) + 7) / 8;
  const std::uint64_t high_fold =
      kFnvPrimePowers[static_cast<std::size_t>(8 - significant)];
  const auto step = [&] {
    hash = (hash ^ (value & 0xffULL)) * kFnvPrime;
    value >>= 8;
  };
  // One jump into an unrolled run of `significant` steps, lowest byte
  // first; it measured a little faster than a loop whose trip count
  // varies from call to call.
  switch (significant) {
    case 8: step(); [[fallthrough]];
    case 7: step(); [[fallthrough]];
    case 6: step(); [[fallthrough]];
    case 5: step(); [[fallthrough]];
    case 4: step(); [[fallthrough]];
    case 3: step(); [[fallthrough]];
    case 2: step(); [[fallthrough]];
    case 1: step(); [[fallthrough]];
    default: break;
  }
  return hash * high_fold;
}

/// Why a queue recorded a drop.
enum class DropContext : std::uint8_t {
  admission,  ///< rejected at enqueue, never occupied the queue
  in_queue,   ///< removed from the backlog by the discipline (CoDel)
};

/// Observer of simulator-core state transitions. The network and
/// transport hooks are virtual with no-op defaults, so auditors override
/// only what they check; the event-engine hooks are inline and always
/// check dispatch order and feed the trace hash. Hooks fire while the
/// observed object is in a consistent state (after the transition).
///
/// An Auditor instance belongs to exactly one Simulator; parallel
/// experiment shards each install their own (see exp/parallel.h — shards
/// share nothing, and that includes audit state).
class Auditor {
 public:
  virtual ~Auditor() = default;

  /// Order-sensitive FNV-1a hash over the run trace so far (event times,
  /// dispatch order, and whatever the subclass mixes in). Two runs of the
  /// same scenario with the same seed must produce identical hashes.
  std::uint64_t trace_hash() const { return trace_hash_; }

  // --- sim: event engine ---------------------------------------------------

  /// An event was scheduled at absolute time `at` while the clock read
  /// `now`. A sane caller never schedules in the past.
  void on_event_scheduled(sim::Time now, sim::Time at) {
    if (at < now) [[unlikely]] scheduled_in_the_past(now, at);
  }

  /// The event with scheduling sequence number `seq` is about to run at
  /// time `at`. Dispatch must be time-monotone with FIFO tie-breaks.
  void on_event_run(sim::Time at, std::uint64_t seq) {
    const bool in_order = at > last_event_time_ ||
                          (at == last_event_time_ && seq > last_event_seq_) ||
                          !have_last_event_;
    if (!in_order) [[unlikely]] dispatched_out_of_order(at, seq);
    have_last_event_ = true;
    last_event_time_ = at;
    last_event_seq_ = seq;
    mix(static_cast<std::uint64_t>(at.ns()));
    mix(seq);
  }

  // --- net: links and queues ----------------------------------------------

  /// A link was created (fires from Network::make_link and
  /// Network::install_auditor so the auditor can key per-link state).
  virtual void on_link_registered(const net::Link& /*link*/) {}

  /// A packet was handed to Link::send.
  virtual void on_link_offered(const net::Link& /*link*/,
                               const net::Packet& /*packet*/) {}

  /// The link's fault-injection filter discarded the packet.
  virtual void on_link_filtered(const net::Link& /*link*/,
                                const net::Packet& /*packet*/) {}

  /// The random-loss process corrupted the packet after serialization.
  virtual void on_link_corrupted(const net::Link& /*link*/,
                                 const net::Packet& /*packet*/) {}

  /// The packet finished propagation and is about to reach the far node.
  virtual void on_link_delivered(const net::Link& /*link*/,
                                 const net::Packet& /*packet*/) {}

  // --- net: injected faults (netfault::FaultInjector via net::FaultHook) ---
  // These fire only when a fault hook is installed on the link, so they
  // never perturb audit state (or the trace hash) in fault-free runs.

  /// The fault hook discarded the packet after serialization (bursty loss,
  /// blackout window).
  virtual void on_link_fault_dropped(const net::Link& /*link*/,
                                     const net::Packet& /*packet*/) {}

  /// The fault hook launched an extra copy of the packet into the
  /// propagation pipe. Fires once per extra copy; the auditor extends the
  /// exactly-once delivery budget for the packet's uid accordingly.
  virtual void on_link_fault_duplicated(const net::Link& /*link*/,
                                        const net::Packet& /*packet*/) {}

  /// The fault hook flipped bits in the packet. It still propagates (and
  /// still counts against delivery conservation); the receiving transport
  /// rejects it by checksum.
  virtual void on_link_fault_corrupted(const net::Link& /*link*/,
                                       const net::Packet& /*packet*/) {}

  /// A queue admitted the packet (it is now part of the backlog).
  virtual void on_queue_enqueued(const net::PacketQueue& /*queue*/,
                                 const net::Packet& /*packet*/) {}

  /// A queue dropped the packet; see DropContext for where from.
  virtual void on_queue_dropped(const net::PacketQueue& /*queue*/,
                                const net::Packet& /*packet*/,
                                DropContext /*context*/) {}

  /// A queue handed the packet to the link for transmission.
  virtual void on_queue_dequeued(const net::PacketQueue& /*queue*/,
                                 const net::Packet& /*packet*/) {}

  /// A packet arrived at node `node` (delivered by Network's link receiver,
  /// before forwarding or local handling).
  virtual void on_node_received(std::uint32_t /*node*/,
                                const net::Packet& /*packet*/) {}

  // --- transport: sender-side bookkeeping ----------------------------------

  /// The sender transmitted segment `seq` of `flow` (scoreboard already
  /// updated). `scheme` is the sender's scheme name, so scheme-specific
  /// properties (Halfback's reverse-order ROPR) can be checked.
  virtual void on_segment_sent(const transport::Scoreboard& /*scoreboard*/,
                               std::uint64_t /*flow*/, const std::string& /*scheme*/,
                               std::uint32_t /*seq*/, bool /*proactive*/,
                               std::uint64_t /*uid*/) {}

  /// An ACK was applied to the scoreboard (which reflects the update).
  virtual void on_ack_applied(const transport::Scoreboard& /*scoreboard*/,
                              std::uint64_t /*flow*/,
                              const net::Packet& /*ack*/,
                              const transport::AckUpdate& /*update*/) {}

 protected:
  /// Fold `value` into the trace hash.
  void mix(std::uint64_t value) { trace_hash_ = fnv1a_mix(trace_hash_, value); }

  /// Record one violation: the cold path every failed check ends in.
  virtual void violation(std::string what) = 0;

 private:
  [[gnu::cold, gnu::noinline]] void scheduled_in_the_past(sim::Time now,
                                                          sim::Time at) {
    violation("event scheduled in the past: at=" + at.to_string() +
              " now=" + now.to_string());
  }

  [[gnu::cold, gnu::noinline]] void dispatched_out_of_order(sim::Time at,
                                                            std::uint64_t seq) {
    if (at < last_event_time_) {
      violation("event time went backwards: " + last_event_time_.to_string() +
                " -> " + at.to_string());
    } else {
      violation("FIFO tie-break violated at " + at.to_string() + ": seq " +
                std::to_string(last_event_seq_) + " ran before seq " +
                std::to_string(seq));
    }
  }

  std::uint64_t trace_hash_ = kFnvOffsetBasis;
  bool have_last_event_ = false;
  sim::Time last_event_time_;
  std::uint64_t last_event_seq_ = 0;
};

}  // namespace halfback::audit

/// Invoke an auditor hook if auditing is compiled in and an auditor is
/// installed. `auditor_expr` must be an expression yielding `Auditor*`.
/// Compiles to nothing (arguments unevaluated) when HALFBACK_AUDIT is off.
#ifdef HALFBACK_AUDIT
#define HALFBACK_AUDIT_HOOK(auditor_expr, call)                       \
  do {                                                                \
    if (::halfback::audit::Auditor* halfback_audit_a = (auditor_expr); \
        halfback_audit_a != nullptr) {                                \
      halfback_audit_a->call;                                         \
    }                                                                 \
  } while (false)
#else
#define HALFBACK_AUDIT_HOOK(auditor_expr, call) ((void)0)
#endif
