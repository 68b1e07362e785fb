// Telemetry Hub: one run's registry + flight recorder + span log + windowed
// series, and the taps instrumented components record through.
//
// The Hub is owned by the experiment layer (exp::Run, benches) and handed
// to instrumented components as a nullable pointer. Each component then
// holds exactly one tap: a sender a FlowTap (by value, created by
// Hub::flow_tap), a link and its queue a pointer to the link's LinkTap
// (installed by Hub::instrument_network). Components only name what
// happened — a segment went out, an ACK arrived, a phase began, a queue
// dropped a packet — and the tap alone decides which counter, tape event,
// span and time-series window the event feeds. Recording is a null test
// and then pre-resolved pointer updates: no name lookups, no allocation,
// no type erasure after construction.
//
// Layering: this header is usable from sim/net/transport/schemes without
// linking the telemetry library — every member function called from those
// layers is inline, and the out-of-line pieces (the constructor that
// registers the metric catalog, the network/fault snapshots) are only
// invoked by code that already links halfback_telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "sim/bytes.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"
#include "telemetry/timeseries.h"

namespace halfback::net {
class Network;
}
namespace halfback::netfault {
struct InjectorStats;
}

namespace halfback::telemetry {

class FlowTap;

/// One link's telemetry seam, shared by the link and its egress queue.
/// Deliveries and queue-depth peaks go to the link's windowed series;
/// drops go to both its tape and its series; fault hits to its tape.
class LinkTap {
 public:
  LinkTap(Tape& tape, WindowSeries& series) : tape_{tape}, series_{series} {}

  /// A packet of `bytes` left the link into its far-end node.
  void delivered(sim::Time now, std::uint64_t bytes) HB_EFFECTS() {
    series_.tally_packets(now, 1);
    series_.tally_bytes(now, bytes);
  }
  /// The queue admitted a packet; `resident` packets now wait in it.
  void enqueued(sim::Time now, std::uint64_t resident) HB_EFFECTS() {
    series_.raise_queue_peak(now, resident);
  }
  /// The queue discipline discarded segment `seq` of `flow`.
  void queue_drop(sim::Time now, std::uint32_t seq, std::uint64_t flow) {
    tape_.record(now, TapeEventKind::queue_drop, seq, flow);
    series_.tally_drop(now);
  }
  /// The fault hook acted on the packet with `uid`.
  void fault(sim::Time now, FaultKind kind, std::uint64_t uid) {
    tape_.record(now, TapeEventKind::fault_hit, static_cast<std::uint32_t>(kind),
                 uid);
    if (kind == FaultKind::drop) series_.tally_drop(now);
  }

 private:
  Tape& tape_;
  WindowSeries& series_;
};

class Hub {
 public:
  /// Event-core instruments (sim layer).
  struct SimProbes {
    Counter* events_dispatched = nullptr;
    Gauge* event_queue_peak = nullptr;  ///< high-water event-heap size
    Gauge* sim_end_ns = nullptr;        ///< clock at final snapshot
  };

  /// Transport instruments (SenderBase and friends).
  struct TransportProbes {
    Counter* flows_started = nullptr;
    Counter* flows_completed = nullptr;
    Counter* syn_sent = nullptr;
    Counter* syn_retx = nullptr;
    Counter* segments_sent = nullptr;
    Counter* retx_sent = nullptr;       ///< loss-triggered retransmissions
    Counter* proactive_sent = nullptr;  ///< ROPR / proactive-scheme copies
    Counter* acks_received = nullptr;
    Counter* karn_discards = nullptr;   ///< ambiguous RTT samples dropped
    Counter* rto_fired = nullptr;
    Counter* scoreboard_sacked = nullptr;  ///< outstanding -> sacked
    Counter* scoreboard_acked = nullptr;   ///< any -> cumulatively acked
    Histogram* rtt = nullptr;            ///< accepted RTT samples (ns)
    Histogram* handshake_rtt = nullptr;  ///< SYN -> SYN-ACK (ns)
    Histogram* fct = nullptr;            ///< flow completion times (ns)
  };

  /// Scheme instruments (paced start, ROPR, fallback).
  struct SchemeProbes {
    Counter* paced_packets = nullptr;     ///< sent during paced start
    Counter* ropr_packets = nullptr;      ///< proactive ROPR copies
    Counter* fallback_packets = nullptr;  ///< sent after fallback entry
    Counter* ropr_abandoned = nullptr;    ///< ROPR cut short by RTO
    Counter* rlp_abandoned = nullptr;     ///< RC3 backfill trust cut by RTO
    Gauge* ropr_low_water = nullptr;      ///< deepest backward ROPR position
  };

  /// Fault-injection instruments, per cause (netfault layer). Filled by
  /// record_injector() at end of run from each injector's InjectorStats.
  struct FaultProbes {
    Counter* packets_seen = nullptr;
    Counter* drops = nullptr;        ///< outage + flap + Gilbert–Elliott
    Counter* corruptions = nullptr;
    Counter* duplications = nullptr;
    Counter* reorders = nullptr;
    Counter* delay_spikes = nullptr;
  };

  struct Config {
    FlightRecorder::Config recorder;
    /// Span store size (spans past it are counted, not recorded).
    std::size_t span_capacity = SpanRecorder::kDefaultCapacity;
    /// Tumbling-window width for the time-series layer.
    sim::Time series_window = sim::Time::milliseconds(10);
    /// Windows per series; activity past the last window is counted as
    /// dropped, never recorded.
    std::size_t series_max_windows = WindowSeries::kDefaultMaxWindows;
  };

  /// Registers the whole metric catalog (see docs/telemetry.md) so probe
  /// bundles are valid immediately and export order is fixed regardless of
  /// which components end up recording.
  Hub() : Hub(Config{}) {}
  explicit Hub(Config config);
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  SimProbes& sim() { return sim_; }
  TransportProbes& transport() { return transport_; }
  SchemeProbes& scheme() { return scheme_; }
  FaultProbes& fault() { return fault_; }

  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }

  /// Create-or-get the named windowed time-series (setup path: flow_tap and
  /// instrument_network resolve their series once). Creation order = export
  /// order, the same discipline MetricRegistry uses for instruments.
  WindowSeries& series(const std::string& name) {
    for (const auto& s : series_) {
      if (s->name() == name) return *s;
    }
    series_.push_back(std::make_unique<WindowSeries>(
        name, series_window_, series_max_windows_));
    return *series_.back();
  }
  std::size_t series_count() const { return series_.size(); }
  const WindowSeries& series_at(std::size_t i) const { return *series_[i]; }

  /// Batched event-dispatch hook: the simulator's dispatch loops track
  /// the count and the integer heap peak locally and flush once when a
  /// run slice exits, keeping the per-event telemetry cost to an integer
  /// compare. Final metric values equal per-event updates; only a hub
  /// read from *inside* a running callback would notice the deferral,
  /// and these two are end-of-run metrics.
  void on_run_slice_done(std::uint64_t dispatched, std::size_t heap_peak) {
    sim_.events_dispatched->add(dispatched);
    sim_.event_queue_peak->set_max(static_cast<double>(heap_peak));
  }

  /// Install this hub on `network`: set the simulator's telemetry pointer
  /// and give every existing link and its queue the link's tap (its tape
  /// "link N" and series "link.N"). Call after the topology is final and
  /// before traffic starts (links created later are simply not tapped).
  void instrument_network(net::Network& network);

  /// A live tap for flow `flow` of `scheme`: creates the flow's tape and
  /// fetches the per-scheme series "class.<scheme>". Setup path (senders
  /// call it from set_telemetry, before start()).
  FlowTap flow_tap(std::uint64_t flow, const std::string& scheme);

  /// Snapshot per-link queue/drop/utilization gauges from `network` at
  /// `now`. Links are numbered in creation order, so repeated snapshots
  /// update the same instruments and export order is deterministic.
  void snapshot_network(const net::Network& network, sim::Time now)
      HB_EFFECTS(alloc, throw, block);

  /// Fold one injector's per-cause totals into the fault counters. Call
  /// once per injector at end of run.
  void record_injector(const netfault::InjectorStats& stats);

  /// Fold another hub's instruments into this one (sharded-engine reduce
  /// step: each shard runs with its own Hub, the parent merges after the
  /// shard's worker joins). Both hubs register the same catalog in their
  /// constructors, so export order is unchanged. Spans append in the other
  /// shard's recorded order (ids re-based) and series merge by name in the
  /// other shard's creation order, so a fixed shard-merge order yields
  /// byte-identical merged output at any worker count. Flight-recorder
  /// tapes are per-shard artifacts and are not merged.
  void merge_from(const Hub& other) HB_EFFECTS(alloc, throw, block) {
    registry_.merge_from(other.registry_);
    spans_.merge_from(other.spans_);
    for (const auto& s : other.series_) {
      series(s->name()).merge_from(*s);
    }
  }

 private:
  MetricRegistry registry_;
  FlightRecorder recorder_;
  SpanRecorder spans_;
  std::vector<std::unique_ptr<WindowSeries>> series_;
  std::deque<LinkTap> link_taps_;  ///< stable addresses, link order
  sim::Time series_window_;
  std::size_t series_max_windows_;
  SimProbes sim_;
  TransportProbes transport_;
  SchemeProbes scheme_;
  FaultProbes fault_;
};

/// One flow's telemetry seam. SenderBase holds one by value: a
/// default-constructed tap is off, and then every event costs one null
/// test. Hub::flow_tap makes a live one.
///
/// Phases live only in the span log. enter_phase() closes the current
/// phase span and opens the next under the flow's root span, and marks the
/// transition on the tape as a phase_enter point (a = the SpanKind;
/// repeating the current phase marks nothing). Purely observational: no
/// event schedules anything or draws randomness, so trace hashes are the
/// same with or without a hub.
class FlowTap {
 public:
  FlowTap() = default;

  /// The flow begins with `flow_bytes` to send and enters its handshake.
  void start(sim::Time now, sim::Bytes flow_bytes) {
    if (hub_ == nullptr) return;
    hub_->transport().flows_started->increment();
    tape_->record(now, TapeEventKind::flow_start, 0, flow_bytes.count());
    // Root of this flow's causal tree; phase and RTO-recovery spans parent
    // under it.
    span_flow_ = hub_->spans().open_span(flow_, SpanKind::flow, 0, now);
    enter_phase(now, SpanKind::handshake);
  }

  /// SYN transmission number `attempt` (1 = first).
  void syn_sent(sim::Time now, int attempt) {
    if (hub_ == nullptr) return;
    hub_->transport().syn_sent->increment();
    if (attempt > 1) hub_->transport().syn_retx->increment();
    tape_->record(now, TapeEventKind::syn_sent,
                  static_cast<std::uint32_t>(attempt));
  }

  /// The handshake completed after `rtt`; `karn_valid` when the SYN was
  /// sent once (only those samples feed the histogram; the tape keeps all).
  /// The flow enters its generic data phase; schemes with finer structure
  /// refine it at the same instant.
  void established(sim::Time now, sim::Time rtt, bool karn_valid) {
    if (hub_ == nullptr) return;
    if (karn_valid) hub_->transport().handshake_rtt->record_time(rtt);
    tape_->record(now, TapeEventKind::established, 0, clamped_ns(rtt));
    enter_phase(now, SpanKind::blast);
  }

  /// Data segment `seq` went out: a proactive copy, a loss-triggered
  /// retransmission (`retx`), or a first transmission. `inflight_bytes()`
  /// yields the payload in flight after it; it is called only when the tap
  /// is on, so an untraced sender never computes it.
  template <class InflightBytes>
  void sent(sim::Time now, std::uint32_t seq, bool proactive, bool retx,
            InflightBytes inflight_bytes) {
    if (hub_ == nullptr) return;
    if (proactive) {
      hub_->transport().proactive_sent->increment();
      tape_->record(now, TapeEventKind::proactive_sent, seq);
    } else if (retx) {
      hub_->transport().retx_sent->increment();
      tape_->record(now, TapeEventKind::retx_sent, seq);
    } else {
      hub_->transport().segments_sent->increment();
      tape_->record(now, TapeEventKind::segment_sent, seq);
    }
    series_->tally_packets(now, 1);
    if (retx) series_->tally_retx(now);
    series_->raise_inflight_peak(now, inflight_bytes());
  }

  /// An ACK carrying `cum_ack` newly covered `newly_cum_acked` segments by
  /// cumulative ack and `newly_sacked` by SACK, worth `credited_bytes` of
  /// payload; `advanced` when the cumulative ack moved. An ACK crediting
  /// nothing counts as a duplicate; cumulative progress ends an RTO
  /// recovery episode.
  void ack(sim::Time now, std::uint32_t cum_ack, std::uint32_t newly_cum_acked,
           std::uint64_t newly_sacked, sim::Bytes credited_bytes,
           bool advanced) {
    if (hub_ == nullptr) return;
    hub_->transport().acks_received->increment();
    hub_->transport().scoreboard_acked->add(newly_cum_acked);
    hub_->transport().scoreboard_sacked->add(newly_sacked);
    tape_->record(now, TapeEventKind::ack_received, cum_ack);
    if (credited_bytes.count() > 0) {
      series_->tally_bytes(now, credited_bytes.count());
    } else {
      series_->tally_dup(now);
    }
    if (advanced) close_rto_span(now);
  }

  /// An accepted (Karn-valid) RTT sample.
  void rtt_sample(sim::Time now, sim::Time sample) {
    if (hub_ == nullptr) return;
    hub_->transport().rtt->record_time(sample);
    tape_->record(now, TapeEventKind::rtt_sample, 0, clamped_ns(sample));
  }

  /// The ACK echoing segment `seq` gave no usable RTT sample (Karn).
  void karn_discard(sim::Time now, std::uint32_t seq) {
    if (hub_ == nullptr) return;
    hub_->transport().karn_discards->increment();
    tape_->record(now, TapeEventKind::karn_discard, seq);
  }

  /// The retransmission timer fired (`timeouts` so far). Back-to-back RTOs
  /// with no cumulative progress between them extend one recovery span.
  void rto(sim::Time now, std::uint32_t timeouts) {
    if (hub_ == nullptr) return;
    hub_->transport().rto_fired->increment();
    tape_->record(now, TapeEventKind::rto_fired, timeouts);
    if (span_rto_ == 0) {
      span_rto_ = hub_->spans().open_span(flow_, SpanKind::rto_recovery,
                                          span_flow_, now);
    }
  }

  /// The flow completed after `fct`: any recovery episode and the current
  /// phase end, and the flow's root span closes.
  void complete(sim::Time now, sim::Time fct) {
    if (hub_ == nullptr) return;
    hub_->transport().flows_completed->increment();
    hub_->transport().fct->record_time(fct);
    tape_->record(now, TapeEventKind::complete, 0, clamped_ns(fct));
    close_rto_span(now);
    enter_phase(now, SpanKind::flow);
    hub_->spans().close_span(span_flow_, now);
    span_flow_ = 0;
  }

  /// The flow enters phase `kind` (a child of the root span); `flow` means
  /// no child phase: back at the root.
  void enter_phase(sim::Time now, SpanKind kind) {
    if (hub_ == nullptr) return;
    if (kind != phase_) {
      tape_->record(now, TapeEventKind::phase_enter,
                    static_cast<std::uint32_t>(kind));
      phase_ = kind;
    }
    SpanRecorder& spans = hub_->spans();
    spans.close_span(span_phase_, now);
    span_phase_ = kind == SpanKind::flow
                      ? 0
                      : spans.open_span(flow_, kind, span_flow_, now);
  }

  // --- scheme events -------------------------------------------------------

  /// A segment sent during the paced-start phase.
  void paced_packet() {
    if (hub_ != nullptr) hub_->scheme().paced_packets->increment();
  }
  /// A ROPR proactive copy of segment `seq`.
  void ropr_packet(std::uint32_t seq) {
    if (hub_ == nullptr) return;
    hub_->scheme().ropr_packets->increment();
    hub_->scheme().ropr_low_water->set(static_cast<double>(seq));
  }
  /// A segment sent after Halfback entered fallback.
  void fallback_packet() {
    if (hub_ != nullptr) hub_->scheme().fallback_packets->increment();
  }
  /// An RTO cut the ROPR pass short at backward position `position`: the
  /// current phase span is flagged abandoned (the next enter_phase closes
  /// it).
  void ropr_abandoned(sim::Time now, std::uint32_t position) {
    if (hub_ == nullptr) return;
    hub_->scheme().ropr_abandoned->increment();
    tape_->record(now, TapeEventKind::ropr_abandoned, position);
    hub_->spans().abandon_span(span_phase_);
  }
  /// An RTO ended RC3's backfill credit at cumulative ack `cum_ack`.
  void rlp_abandoned(sim::Time now, std::uint32_t cum_ack) {
    if (hub_ == nullptr) return;
    hub_->scheme().rlp_abandoned->increment();
    tape_->record(now, TapeEventKind::rlp_abandoned, cum_ack);
  }

 private:
  friend class Hub;

  FlowTap(Hub& hub, std::uint64_t flow, Tape& tape, WindowSeries& series)
      : hub_{&hub}, tape_{&tape}, series_{&series}, flow_{flow} {}

  static std::uint64_t clamped_ns(sim::Time t) {
    return static_cast<std::uint64_t>(t.ns() < 0 ? 0 : t.ns());
  }

  void close_rto_span(sim::Time now) {
    hub_->spans().close_span(span_rto_, now);
    span_rto_ = 0;
  }

  Hub* hub_ = nullptr;              ///< not owned; nullptr = tap off
  Tape* tape_ = nullptr;            ///< this flow's tape, owned by the hub
  WindowSeries* series_ = nullptr;  ///< the scheme's "class.*" series
  std::uint64_t flow_ = 0;
  std::uint32_t span_flow_ = 0;   ///< root flow span id (0 = none)
  std::uint32_t span_phase_ = 0;  ///< current phase span id (0 = none)
  std::uint32_t span_rto_ = 0;    ///< open RTO-recovery span id (0 = none)
  SpanKind phase_ = SpanKind::flow;  ///< last phase marked on the tape
};

inline FlowTap Hub::flow_tap(std::uint64_t flow, const std::string& scheme) {
  Tape& tape = recorder_.tape(TrackKind::flow, flow,
                              scheme + " flow " + std::to_string(flow));
  return FlowTap{*this, flow, tape, series("class." + scheme)};
}

}  // namespace halfback::telemetry
