// Exporter contracts: byte-identical output across same-seed runs, golden
// histogram bucket edges, and the shape of each text format.
#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/emulab.h"
#include "telemetry/hub.h"
#include "telemetry/manifest.h"

namespace halfback::telemetry {
namespace {

using exp::EmulabRunner;
using exp::WorkloadPart;

/// A small but non-trivial Emulab run with telemetry installed; returns the
/// serialized exporter outputs. Fresh hub + runner per call so two calls
/// share no state.
struct ExportedRun {
  std::string metrics;
  std::string trace;
  std::string hub_trace;  ///< full-hub overload: tape events + span events
  std::string spans;
  std::string series;
  std::string prometheus;
  std::string manifest;
  std::uint64_t tape_rings = 0;  ///< tape_ring_digest of the recorder
};

/// `text` without the lines that contain `drop` (each Chrome trace event
/// sits on its own line).
std::string without_lines_containing(const std::string& text,
                                     std::string_view drop) {
  std::istringstream lines{text};
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(drop) != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// FNV-1a over every tape's identity and ring contents. A phase_enter
/// event's `a` payload (the phase code) is left out, so the digest pins
/// which events the rings hold, when, and how many wrapped away.
std::uint64_t tape_ring_digest(const FlightRecorder& recorder) {
  std::string text;
  for (std::size_t t = 0; t < recorder.tape_count(); ++t) {
    const Tape& tape = recorder.tape_at(t);
    text += std::to_string(static_cast<int>(tape.track())) + ' ' +
            std::to_string(tape.id()) + ' ' + tape.label() + ' ' +
            std::to_string(tape.dropped()) + ' ' +
            std::to_string(tape.size()) + '\n';
    for (std::size_t i = 0; i < tape.size(); ++i) {
      const TapeEvent& ev = tape.event(i);
      const bool phase = ev.kind == TapeEventKind::phase_enter;
      text += std::to_string(ev.at.ns()) + ' ' + to_string(ev.kind) + ' ' +
              std::to_string(phase ? 0 : ev.a) + ' ' + std::to_string(ev.b) +
              '\n';
    }
  }
  return fnv1a64(text);
}

ExportedRun run_and_export() {
  Hub hub;
  EmulabRunner::Config config;
  config.seed = 11;
  config.dumbbell.sender_count = 2;
  config.dumbbell.receiver_count = 2;
  config.drain = sim::Time::seconds(10);
  config.telemetry = &hub;

  std::vector<WorkloadPart> parts(1);
  parts[0].scheme = schemes::Scheme::halfback;
  for (int i = 0; i < 4; ++i) {
    parts[0].schedule.push_back(workload::FlowArrival{
        sim::Time::milliseconds(25.0 * i), /*bytes=*/40'000});
  }

  EmulabRunner runner{config};
  const exp::RunResult run = runner.run(parts);

  ExportedRun out;
  out.metrics = metrics_jsonl(hub.registry());
  out.trace = chrome_trace_json(hub.recorder());
  out.hub_trace = chrome_trace_json(hub, run.sim_end);
  out.spans = spans_jsonl(hub.spans(), run.sim_end);
  out.series = timeseries_jsonl(hub);
  out.prometheus = prometheus_text(hub.registry());
  out.manifest = manifest_json(runner.manifest(run, "emulab"), &hub.registry());
  out.tape_rings = tape_ring_digest(hub.recorder());
  return out;
}

TEST(ExportDeterminism, SameSeedRunsAreByteIdentical) {
  const ExportedRun first = run_and_export();
  const ExportedRun second = run_and_export();
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.hub_trace, second.hub_trace);
  EXPECT_EQ(first.spans, second.spans);
  EXPECT_EQ(first.series, second.series);
  EXPECT_EQ(first.prometheus, second.prometheus);
  EXPECT_EQ(first.manifest, second.manifest);
  EXPECT_EQ(first.tape_rings, second.tape_rings);
}

// Digests of every exporter's output for the golden run above. The
// determinism test compares two runs of the same code, so it cannot see a
// change that alters both alike; these pins can. Lines with "cat":"phase"
// (an earlier pid-1 drawing of the phases the pid-3 spans carry) are left
// out of the trace digest and phase_enter payloads out of the ring digest,
// so the pins hold both for that rendering and for this one.
TEST(ExportGolden, ExporterOutputsMatchPinnedDigests) {
  const ExportedRun run = run_and_export();
  // The metrics and Prometheus pins carry the event-heap high-water gauge.
  // A link keeps one pending arrival event however many packets are in
  // its pipe, so the run peaks at 12 pending events.
  EXPECT_NE(run.metrics.find("\"name\":\"sim.event_queue_peak\",\"kind\":\"gauge\","
                             "\"unit\":\"events\",\"help\":\"high-water event-heap size\","
                             "\"value\":12}\n"),
            std::string::npos);
  EXPECT_NE(run.prometheus.find("\nsim_event_queue_peak 12\n"), std::string::npos);
  EXPECT_EQ(hex64(fnv1a64(run.metrics)), "0xd67b3fc67f8e9de2");
  EXPECT_EQ(hex64(fnv1a64(run.prometheus)), "0x2dd8a19d58f34127");
  EXPECT_EQ(hex64(fnv1a64(run.spans)), "0x8ec0030196342653");
  EXPECT_EQ(hex64(fnv1a64(run.series)), "0x84a406dbf3a9ba51");
  EXPECT_EQ(hex64(fnv1a64(
                without_lines_containing(run.hub_trace, "\"cat\":\"phase\""))),
            "0xf319ec19e1ef0061");
  EXPECT_EQ(hex64(run.tape_rings), "0x6ffd22b01dbbd7e7");
}

TEST(ExportDeterminism, BucketEdgesMatchGoldenFile) {
  // The golden file was generated from the documented closed form, not from
  // this code, so it catches a bucketing change from either side.
  ASSERT_EQ(Histogram::kDefaultSubBucketBits, 3u)
      << "default changed: regenerate bucket_edges_k3.txt deliberately";
  std::ifstream golden(std::string{HALFBACK_TELEMETRY_GOLDEN} +
                       "/bucket_edges_k3.txt");
  ASSERT_TRUE(golden.is_open());
  std::string line;
  std::size_t checked = 0;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::size_t index = 0;
    std::uint64_t lower = 0;
    std::uint64_t upper = 0;
    ASSERT_TRUE(fields >> index >> lower >> upper) << line;
    EXPECT_EQ(Histogram::bucket_lower(index, 3), lower) << "index " << index;
    EXPECT_EQ(Histogram::bucket_upper(index, 3), upper) << "index " << index;
    ++checked;
  }
  EXPECT_EQ(checked, 128u);
}

TEST(MetricsJsonl, OneValidObjectPerMetricInRegistrationOrder) {
  MetricRegistry registry;
  registry.counter("z.first", "registered first")->add(3);
  registry.gauge("a.second", "registered second")->set(1.5);
  registry.histogram("m.third", "registered third")->record(42);

  const std::string out = metrics_jsonl(registry);
  std::istringstream lines{out};
  std::vector<std::string> v;
  for (std::string line; std::getline(lines, line);) v.push_back(line);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NE(v[0].find("\"name\":\"z.first\""), std::string::npos) << v[0];
  EXPECT_NE(v[0].find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(v[0].find("\"value\":3"), std::string::npos);
  EXPECT_NE(v[1].find("\"name\":\"a.second\""), std::string::npos) << v[1];
  EXPECT_NE(v[2].find("\"name\":\"m.third\""), std::string::npos) << v[2];
  EXPECT_NE(v[2].find("\"count\":1"), std::string::npos);
}

TEST(PrometheusText, HasHelpTypeAndSampleLines) {
  MetricRegistry registry;
  registry.counter("halfback_demo_total", "a demo counter")->add(7);
  registry.histogram("halfback_demo_ns", "a demo histogram")->record(9);
  const std::string out = prometheus_text(registry);
  EXPECT_NE(out.find("# HELP halfback_demo_total a demo counter"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE halfback_demo_total counter"), std::string::npos);
  EXPECT_NE(out.find("halfback_demo_total 7\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE halfback_demo_ns histogram"), std::string::npos);
  EXPECT_NE(out.find("halfback_demo_ns_count 1\n"), std::string::npos);
  EXPECT_NE(out.find("halfback_demo_ns_sum 9\n"), std::string::npos);
}

TEST(ChromeTrace, EmitsMetadataSpansAndInstants) {
  Hub hub;
  FlowTap tap = hub.flow_tap(1, "demo");
  tap.start(sim::Time::microseconds(0), 1000);  // enters the handshake
  tap.enter_phase(sim::Time::microseconds(100), SpanKind::pacing);
  tap.sent(sim::Time::microseconds(150), 5, false, false,
           [] { return std::uint64_t{1448}; });

  const std::string out = chrome_trace_json(hub, sim::Time::microseconds(400));
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // thread metadata
  EXPECT_NE(out.find("demo flow 1"), std::string::npos);
  // Phases are pid-3 spans: handshake [0, 100) us, then pacing, still open,
  // closed by the end time at 400 us.
  EXPECT_NE(out.find("{\"ph\":\"B\",\"pid\":3,\"tid\":1,\"cat\":\"span\","
                     "\"name\":\"handshake\",\"ts\":0.000"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("{\"ph\":\"E\",\"pid\":3,\"tid\":1,\"cat\":\"span\","
                     "\"name\":\"handshake\",\"ts\":100.000}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("{\"ph\":\"E\",\"pid\":3,\"tid\":1,\"cat\":\"span\","
                     "\"name\":\"pacing\",\"ts\":400.000}"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\"ph\":\"X\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(out.find("segment_sent"), std::string::npos);
  // The phase marks stay on the tape but are not drawn as instants.
  EXPECT_EQ(out.find("phase_enter"), std::string::npos) << out;
}

TEST(ChromeTrace, TraceFromEmulabRunHasPacingSpans) {
  // Acceptance shape for the CI smoke check: a real halfback run must
  // produce per-flow phase spans on pid 3, including the paced start.
  const ExportedRun run = run_and_export();
  EXPECT_NE(run.hub_trace.find("{\"ph\":\"B\",\"pid\":3,\"tid\":1,"
                               "\"cat\":\"span\",\"name\":\"pacing\""),
            std::string::npos);
  EXPECT_NE(run.hub_trace.find("{\"ph\":\"B\",\"pid\":3,\"tid\":1,"
                               "\"cat\":\"span\",\"name\":\"handshake\""),
            std::string::npos);
  EXPECT_EQ(run.hub_trace.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, HubOverloadNestsSpanEventsAndKeepsTapePrefix) {
  const ExportedRun run = run_and_export();
  // The recorder-only overload's output is a byte-exact prefix of the
  // full-hub overload (minus the closing bracket): adding the span layer
  // must never disturb the tape events.
  const std::string closing = "\n]}\n";
  ASSERT_GE(run.trace.size(), closing.size());
  const std::string tape_prefix =
      run.trace.substr(0, run.trace.size() - closing.size());
  EXPECT_EQ(run.hub_trace.compare(0, tape_prefix.size(), tape_prefix), 0);
  // The span layer: pid-3 process metadata plus nested B/E duration pairs.
  EXPECT_NE(run.hub_trace.find("\"args\":{\"name\":\"spans\"}"),
            std::string::npos);
  EXPECT_NE(run.hub_trace.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(run.hub_trace.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(run.hub_trace.find("\"name\":\"blast\""), std::string::npos);
  // B and E counts must match (every span closes at export).
  std::size_t opens = 0;
  std::size_t closes = 0;
  for (std::size_t pos = 0;
       (pos = run.hub_trace.find("\"ph\":\"B\"", pos)) != std::string::npos;
       ++pos) {
    ++opens;
  }
  for (std::size_t pos = 0;
       (pos = run.hub_trace.find("\"ph\":\"E\"", pos)) != std::string::npos;
       ++pos) {
    ++closes;
  }
  EXPECT_EQ(opens, closes);
  EXPECT_GT(opens, 0u);
}

TEST(SpansJsonl, OneObjectPerSpanPlusFooter) {
  SpanRecorder spans;
  const std::uint32_t root =
      spans.open_span(9, SpanKind::flow, 0, sim::Time::milliseconds(1));
  const std::uint32_t hs = spans.open_span(9, SpanKind::handshake, root,
                                           sim::Time::milliseconds(1));
  spans.close_span(hs, sim::Time::milliseconds(2));

  const std::string out = spans_jsonl(spans, sim::Time::milliseconds(7));
  EXPECT_NE(
      out.find("{\"span\":1,\"parent\":0,\"flow\":9,\"kind\":\"flow\","
               "\"begin_ns\":1000000,\"end_ns\":7000000,\"open\":true,"
               "\"abandoned\":false}"),
      std::string::npos)
      << out;  // open span clamps its end to the export end
  EXPECT_NE(
      out.find("{\"span\":2,\"parent\":1,\"flow\":9,\"kind\":\"handshake\","
               "\"begin_ns\":1000000,\"end_ns\":2000000,\"open\":false,"
               "\"abandoned\":false}"),
      std::string::npos)
      << out;
  EXPECT_NE(out.find("{\"span_count\":2,\"dropped\":0}"), std::string::npos);
}

TEST(TimeseriesJsonl, EmitsTouchedWindowsOnlyInCreationOrder) {
  Hub hub;
  WindowSeries& link = hub.series("link.0");
  WindowSeries& cls = hub.series("class.halfback");
  link.tally_bytes(sim::Time::milliseconds(25), 3000);  // window 2 @10ms width
  cls.tally_dup(sim::Time::milliseconds(5));            // window 0

  const std::string out = timeseries_jsonl(hub);
  const std::size_t link_pos = out.find("\"series\":\"link.0\"");
  const std::size_t cls_pos = out.find("\"series\":\"class.halfback\"");
  ASSERT_NE(link_pos, std::string::npos) << out;
  ASSERT_NE(cls_pos, std::string::npos) << out;
  EXPECT_LT(link_pos, cls_pos);  // creation order == export order
  // Touched windows only: index 2 for the link, index 0 for the class.
  EXPECT_NE(out.find("\"windows\":[[2,3000,0,0,0,0,0,0]]"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"windows\":[[0,0,0,0,0,1,0,0]]"), std::string::npos)
      << out;
}

TEST(ManifestJson, CarriesProvenanceFields) {
  RunManifest manifest;
  manifest.experiment = "emulab";
  manifest.scheme = "halfback";
  manifest.seed = 42;
  manifest.config_digest = 0xdeadbeefcafef00dULL;
  manifest.trace_hash = 0x0123456789abcdefULL;
  manifest.sim_end = sim::Time::seconds(2);
  manifest.events_dispatched = 1000;
  const std::string out = manifest_json(manifest, nullptr);
  EXPECT_NE(out.find("\"experiment\":\"emulab\""), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"halfback\""), std::string::npos);
  EXPECT_NE(out.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(out.find("\"config_digest\":\"0xdeadbeefcafef00d\""),
            std::string::npos);
  EXPECT_NE(out.find("\"trace_hash\":\"0x0123456789abcdef\""),
            std::string::npos);
  EXPECT_NE(out.find("\"events_dispatched\":1000"), std::string::npos);
}

TEST(ManifestJson, Hex64IsZeroPaddedLowercase) {
  EXPECT_EQ(hex64(0), "0x0000000000000000");
  EXPECT_EQ(hex64(0xABCULL), "0x0000000000000abc");
  EXPECT_EQ(hex64(~0ULL), "0xffffffffffffffff");
}

TEST(ManifestJson, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Formatting, FormatDoubleIsLocaleFreeAndRoundTrips) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(42.0), "42");
  EXPECT_EQ(format_double(-3.0), "-3");
  const std::string frac = format_double(1.5);
  EXPECT_EQ(frac, "1.5");
  EXPECT_EQ(std::stod(format_double(0.1)), 0.1);
}

TEST(Formatting, JsonEscapeHandlesQuotesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string{"a\x01"
                                    "b"}),
            "a\\u0001b");
}

TEST(HistogramBins, BridgeScalesEdgesAndKeepsCounts) {
  MetricRegistry registry;
  Histogram* h = registry.histogram("h", "test");
  h->record(2'000'000);  // 2 ms in ns
  const std::vector<stats::HistogramBin> bins = histogram_bins(*h, 1e6);
  ASSERT_EQ(bins.size(), h->bucket_count());
  std::uint64_t total = 0;
  for (const auto& bin : bins) {
    EXPECT_LT(bin.lower, bin.upper);
    total += bin.count;
  }
  EXPECT_EQ(total, 1u);
  EXPECT_LE(bins.back().lower, 2.0);
  EXPECT_GT(bins.back().upper, 2.0);
}

}  // namespace
}  // namespace halfback::telemetry
