// Exporters: deterministic text serializations of a run's telemetry.
//
// All three formats iterate the registry / recorder in registration /
// creation order and format numbers with pure integer math wherever the
// value is integral, so two same-seed runs emit byte-identical output
// (tests/telemetry/export_test.cpp holds that contract).
//
//  - metrics JSONL: one self-describing JSON object per line per metric.
//  - Prometheus text: the conventional HELP/TYPE/sample exposition.
//  - Chrome trace_event JSON: load in Perfetto / chrome://tracing. pid 1
//    carries one thread per flow tape, pid 2 one per link tape, tape points
//    as instants; the full-hub overload adds the span log on pid 3, where
//    each flow's phases render as nested duration events.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"
#include "stats/ascii_plot.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/hub.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"

namespace halfback::telemetry {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Format a double without locale dependence: integral values (|v| < 2^53)
/// print as integers, everything else with enough digits to round-trip.
std::string format_double(double v);

// Writes to the caller-supplied stream: deliberately NOT an `io` effect
// (ambient I/O means touching a stream the caller did not hand over).
void write_metrics_jsonl(std::ostream& out, const MetricRegistry& registry)
    HB_EFFECTS(alloc, throw);
std::string metrics_jsonl(const MetricRegistry& registry)
    HB_EFFECTS(alloc, throw);

void write_prometheus(std::ostream& out, const MetricRegistry& registry);
std::string prometheus_text(const MetricRegistry& registry);

/// The tapes alone: per-tape thread metadata and point events.
void write_chrome_trace(std::ostream& out, const FlightRecorder& recorder);
std::string chrome_trace_json(const FlightRecorder& recorder)
    HB_EFFECTS(alloc, throw);

/// `tape` as text, one event per line, oldest first: the time in ms, the
/// event name and its a/b payloads (a phase_enter names its phase), then a
/// note if the ring wrapped.
std::string tape_timeline(const Tape& tape) HB_EFFECTS(alloc, throw);

/// Full-hub Chrome trace: the recorder output above, byte-identical, plus
/// the causal span log as nested B/E duration events on pid 3 — one thread
/// per flow for the phase tree (flow root wrapping handshake / pacing /
/// blast / ropr / fallback children) and a second thread per flow for its
/// RTO-recovery episodes, so each thread's B/E events nest strictly.
/// Spans still open at export close at `end`; children clamp to their
/// parent's bounds.
void write_chrome_trace(std::ostream& out, const Hub& hub, sim::Time end);
std::string chrome_trace_json(const Hub& hub, sim::Time end)
    HB_EFFECTS(alloc, throw);

/// Span log as JSONL: one object per span in recorded (id) order, plus a
/// trailing summary line with the span count and overflow drops. Open
/// spans report `"open":true` with their end clamped to `end`.
void write_spans_jsonl(std::ostream& out, const SpanRecorder& spans,
                       sim::Time end) HB_EFFECTS(alloc, throw);
std::string spans_jsonl(const SpanRecorder& spans, sim::Time end)
    HB_EFFECTS(alloc, throw);

/// Windowed time-series as JSONL: one object per series in creation order;
/// each touched window renders as [index, bytes, packets, drops, retx,
/// dups, queue_peak, inflight_peak].
void write_timeseries_jsonl(std::ostream& out, const Hub& hub)
    HB_EFFECTS(alloc, throw);
std::string timeseries_jsonl(const Hub& hub) HB_EFFECTS(alloc, throw);

/// Bridge to stats::ascii_histogram: the histogram's occupied buckets as
/// bins, edges divided by `scale` (1e6 turns nanoseconds into ms). Inline
/// so benches that already link both libraries pay no extra dependency.
inline std::vector<stats::HistogramBin> histogram_bins(const Histogram& h,
                                                       double scale = 1.0) {
  std::vector<stats::HistogramBin> bins;
  bins.reserve(h.bucket_count());
  const unsigned k = h.sub_bucket_bits();
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    stats::HistogramBin bin;
    bin.lower = static_cast<double>(Histogram::bucket_lower(i, k)) / scale;
    bin.upper = static_cast<double>(Histogram::bucket_upper(i, k)) / scale;
    bin.count = h.bucket_value(i);
    bins.push_back(bin);
  }
  return bins;
}

}  // namespace halfback::telemetry
