#include "telemetry/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace halfback::telemetry {
namespace {

/// Nanoseconds rendered as microseconds with three decimals (trace_event
/// `ts`/`dur` are in microseconds; integer math keeps the text stable).
std::string micros(std::int64_t ns) {
  if (ns < 0) ns = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  return buf;
}

void write_histogram_fields(std::ostream& out, const Histogram& h) {
  out << "\"count\":" << h.count() << ",\"sum\":" << h.sum()
      << ",\"min\":" << h.min() << ",\"max\":" << h.max()
      << ",\"p50\":" << h.value_at_quantile(0.5)
      << ",\"p90\":" << h.value_at_quantile(0.9)
      << ",\"p99\":" << h.value_at_quantile(0.99)
      << ",\"p999\":" << h.value_at_quantile(0.999)
      << ",\"sub_bucket_bits\":" << h.sub_bucket_bits() << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket_value(i) == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '[' << Histogram::bucket_lower(i, h.sub_bucket_bits()) << ','
        << Histogram::bucket_upper(i, h.sub_bucket_bits()) << ','
        << h.bucket_value(i) << ']';
  }
  out << ']';
}

/// Metric names use dots as section separators; Prometheus wants [a-z_].
std::string prometheus_name(std::string_view name) {
  std::string out{name};
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 9007199254740992.0) {  // 2^53
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics_jsonl(std::ostream& out, const MetricRegistry& registry) {
  for (const MetricRegistry::Entry& e : registry.entries()) {
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"kind\":\""
        << to_string(e.kind) << "\",\"unit\":\"" << to_string(e.unit)
        << "\",\"help\":\"" << json_escape(e.help) << "\",";
    switch (e.kind) {
      case MetricKind::counter:
        out << "\"value\":" << registry.counter_at(e).value();
        break;
      case MetricKind::gauge:
        out << "\"value\":" << format_double(registry.gauge_at(e).value());
        break;
      case MetricKind::histogram:
        write_histogram_fields(out, registry.histogram_at(e));
        break;
    }
    out << "}\n";
  }
}

std::string metrics_jsonl(const MetricRegistry& registry) {
  std::ostringstream out;
  write_metrics_jsonl(out, registry);
  return out.str();
}

void write_prometheus(std::ostream& out, const MetricRegistry& registry) {
  for (const MetricRegistry::Entry& e : registry.entries()) {
    const std::string name = prometheus_name(e.name);
    if (!e.help.empty()) out << "# HELP " << name << ' ' << e.help << '\n';
    switch (e.kind) {
      case MetricKind::counter:
        out << "# TYPE " << name << " counter\n"
            << name << ' ' << registry.counter_at(e).value() << '\n';
        break;
      case MetricKind::gauge:
        out << "# TYPE " << name << " gauge\n"
            << name << ' ' << format_double(registry.gauge_at(e).value())
            << '\n';
        break;
      case MetricKind::histogram: {
        const Histogram& h = registry.histogram_at(e);
        out << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          if (h.bucket_value(i) == 0) continue;
          cumulative += h.bucket_value(i);
          out << name << "_bucket{le=\""
              << Histogram::bucket_upper(i, h.sub_bucket_bits()) << "\"} "
              << cumulative << '\n';
        }
        out << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n'
            << name << "_sum " << h.sum() << '\n'
            << name << "_count " << h.count() << '\n';
        break;
      }
    }
  }
}

std::string prometheus_text(const MetricRegistry& registry) {
  std::ostringstream out;
  write_prometheus(out, registry);
  return out.str();
}

namespace {

/// Everything except the closing "]}" — shared by the recorder-only and
/// full-hub overloads so the recorder prefix stays byte-identical.
void write_trace_tape_events(std::ostream& out, const FlightRecorder& recorder) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"flows\"}}";
  out << ",\n{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"links\"}}";

  for (std::size_t t = 0; t < recorder.tape_count(); ++t) {
    const Tape& tape = recorder.tape_at(t);
    const int pid = tape.track() == TrackKind::flow ? 1 : 2;
    const std::size_t tid = t + 1;
    std::string label = tape.label();
    if (label.empty()) {
      label = (pid == 1 ? "flow " : "link ") + std::to_string(tape.id());
    }
    out << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(label) << "\"}}";

    for (std::size_t i = 0; i < tape.size(); ++i) {
      const TapeEvent& ev = tape.event(i);
      // Phases render as nested spans on pid 3 (full-hub overload).
      if (ev.kind == TapeEventKind::phase_enter) continue;
      out << ",\n{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":" << tid
          << ",\"cat\":\"tape\",\"s\":\"t\",\"name\":\"" << to_string(ev.kind)
          << "\",\"ts\":" << micros(ev.at.ns()) << ",\"args\":{\"a\":" << ev.a
          << ",\"b\":" << ev.b << "}}";
    }
  }
}

/// One nested B/E pair, clamped to [lo, hi].
void write_span_pair(std::ostream& out, int tid, const Span& s, sim::Time lo,
                     sim::Time hi) {
  sim::Time b = s.begin < lo ? lo : s.begin;
  sim::Time e = s.open ? hi : s.end;
  if (e > hi) e = hi;
  if (e < b) e = b;
  out << ",\n{\"ph\":\"B\",\"pid\":3,\"tid\":" << tid
      << ",\"cat\":\"span\",\"name\":\"" << to_string(s.kind)
      << "\",\"ts\":" << micros(b.ns()) << ",\"args\":{\"span\":" << s.id
      << ",\"parent\":" << s.parent
      << (s.abandoned ? ",\"abandoned\":true" : "") << "}}";
  out << ",\n{\"ph\":\"E\",\"pid\":3,\"tid\":" << tid
      << ",\"cat\":\"span\",\"name\":\"" << to_string(s.kind)
      << "\",\"ts\":" << micros(e.ns()) << "}";
}

/// Span log as pid-3 duration events: per flow, one thread for the phase
/// tree (the flow root's B/E bracketing its sequential phase children) and
/// one for RTO-recovery episodes, so every thread's B/E events nest.
void write_trace_span_events(std::ostream& out, const SpanRecorder& spans,
                             sim::Time end) {
  out << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"spans\"}}";
  // Flows in first-appearance order; span ids are open-ordered, so this is
  // deterministic.
  std::vector<std::uint64_t> flows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t flow = spans.at(i).flow;
    bool seen = false;
    for (const std::uint64_t f : flows) {
      if (f == flow) {
        seen = true;
        break;
      }
    }
    if (!seen) flows.push_back(flow);
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const std::uint64_t flow = flows[f];
    const int tid_phase = static_cast<int>(2 * f + 1);
    const int tid_rto = static_cast<int>(2 * f + 2);
    out << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":" << tid_phase
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"flow "
        << flow << "\"}}";

    // Phase thread: the flow root wraps its children.
    const Span* root = nullptr;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans.at(i);
      if (s.flow == flow && s.kind == SpanKind::flow) {
        root = &s;
        break;
      }
    }
    const sim::Time lo = root != nullptr ? root->begin : sim::Time::zero();
    const sim::Time hi =
        root == nullptr || root->open
            ? end
            : (root->end > end ? end : root->end);
    if (root != nullptr) {
      out << ",\n{\"ph\":\"B\",\"pid\":3,\"tid\":" << tid_phase
          << ",\"cat\":\"span\",\"name\":\"" << to_string(root->kind)
          << "\",\"ts\":" << micros(lo.ns()) << ",\"args\":{\"span\":"
          << root->id << ",\"parent\":" << root->parent << "}}";
    }
    bool any_rto = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans.at(i);
      if (s.flow != flow) continue;
      if (s.kind == SpanKind::flow) continue;
      if (s.kind == SpanKind::rto_recovery) {
        any_rto = true;
        continue;
      }
      write_span_pair(out, tid_phase, s, lo, hi);
    }
    if (root != nullptr) {
      out << ",\n{\"ph\":\"E\",\"pid\":3,\"tid\":" << tid_phase
          << ",\"cat\":\"span\",\"name\":\"" << to_string(root->kind)
          << "\",\"ts\":" << micros(hi.ns()) << "}";
    }

    // RTO thread: episodes are sequential (one open at a time per flow).
    if (any_rto) {
      out << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":" << tid_rto
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"flow " << flow
          << " rto\"}}";
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans.at(i);
        if (s.flow != flow || s.kind != SpanKind::rto_recovery) continue;
        write_span_pair(out, tid_rto, s, lo, end);
      }
    }
  }
}

}  // namespace

std::string tape_timeline(const Tape& tape) {
  std::string out;
  char line[96];
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const TapeEvent& ev = tape.event(i);
    if (ev.kind == TapeEventKind::phase_enter) {
      std::snprintf(line, sizeof line, "%10.3f ms  %-15s %s\n", ev.at.to_ms(),
                    to_string(ev.kind), to_string(static_cast<SpanKind>(ev.a)));
    } else {
      std::snprintf(line, sizeof line, "%10.3f ms  %-15s a=%" PRIu32 " b=%" PRIu64 "\n",
                    ev.at.to_ms(), to_string(ev.kind), ev.a, ev.b);
    }
    out += line;
  }
  if (tape.dropped() > 0) {
    out += "(" + std::to_string(tape.dropped()) + " older events overwritten)\n";
  }
  return out;
}

void write_chrome_trace(std::ostream& out, const FlightRecorder& recorder) {
  write_trace_tape_events(out, recorder);
  out << "\n]}\n";
}

std::string chrome_trace_json(const FlightRecorder& recorder) {
  std::ostringstream out;
  write_chrome_trace(out, recorder);
  return out.str();
}

void write_chrome_trace(std::ostream& out, const Hub& hub, sim::Time end) {
  write_trace_tape_events(out, hub.recorder());
  write_trace_span_events(out, hub.spans(), end);
  out << "\n]}\n";
}

std::string chrome_trace_json(const Hub& hub, sim::Time end) {
  std::ostringstream out;
  write_chrome_trace(out, hub, end);
  return out.str();
}

void write_spans_jsonl(std::ostream& out, const SpanRecorder& spans,
                       sim::Time end) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans.at(i);
    const sim::Time stop = s.open ? end : s.end;
    out << "{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"flow\":" << s.flow << ",\"kind\":\"" << to_string(s.kind)
        << "\",\"begin_ns\":" << (s.begin.ns() < 0 ? 0 : s.begin.ns())
        << ",\"end_ns\":" << (stop.ns() < 0 ? 0 : stop.ns())
        << ",\"open\":" << (s.open ? "true" : "false")
        << ",\"abandoned\":" << (s.abandoned ? "true" : "false") << "}\n";
  }
  out << "{\"span_count\":" << spans.size()
      << ",\"dropped\":" << spans.dropped() << "}\n";
}

std::string spans_jsonl(const SpanRecorder& spans, sim::Time end) {
  std::ostringstream out;
  write_spans_jsonl(out, spans, end);
  return out.str();
}

void write_timeseries_jsonl(std::ostream& out, const Hub& hub) {
  for (std::size_t i = 0; i < hub.series_count(); ++i) {
    const WindowSeries& s = hub.series_at(i);
    out << "{\"series\":\"" << json_escape(s.name())
        << "\",\"window_ns\":" << s.width().ns()
        << ",\"dropped\":" << s.dropped() << ",\"windows\":[";
    bool first = true;
    for (std::size_t w = 0; w < s.window_count(); ++w) {
      const WindowSample& sample = s.window(w);
      if (!sample.touched()) continue;
      if (!first) out << ',';
      first = false;
      out << '[' << w << ',' << sample.bytes << ',' << sample.packets << ','
          << sample.drops << ',' << sample.retx << ',' << sample.dups << ','
          << sample.queue_peak << ',' << sample.inflight_peak << ']';
    }
    out << "]}\n";
  }
}

std::string timeseries_jsonl(const Hub& hub) {
  std::ostringstream out;
  write_timeseries_jsonl(out, hub);
  return out.str();
}

}  // namespace halfback::telemetry
