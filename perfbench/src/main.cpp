// perfbench: end-to-end and per-layer benchmark of the halfback experiment
// entry points. One process runs one workload in a closed loop on a single
// thread: one simulation at a time, back to back, the whole fixed run list
// (a "pass") repeated until --seconds is used up.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect-digest HEX] [--spans FILE] [--tamper]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced passes and prints the per-layer metrics. The last line of
// standard output is one JSON object. The exit code is 0 only when every
// run passed the output check (and the digest matched, if one was given).
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"
#include "sim/dispatch_profiler.h"
#include "spans.h"
#include "telemetry/hub.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace halfback;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string expect_digest;
  std::string spans_path;
  bool tamper = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--expect-digest HEX] [--spans FILE] "
               "[--tamper]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || *end != '\0') {
    usage((std::string{flag} + " expects a non-negative integer").c_str());
  }
  return parsed;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper") {
      a.tamper = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64("--seed", v);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64("--seconds", v));
      have[2] = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64("--trace", v);
      if (t > 1) usage("--trace expects 0 or 1");
      a.trace = t == 1;
      have[3] = true;
    } else if (flag == "--expect-digest") {
      a.expect_digest = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Exact per-layer counts from a traced pass, summed over its runs.
struct LayerCounts {
  std::uint64_t events = 0;
  double heap_peak = 0.0;
  std::uint64_t dispatch_packet = 0;
  std::uint64_t dispatch_tx_done = 0;
  std::uint64_t dispatch_timer = 0;
  std::uint64_t dispatch_function = 0;
  std::uint64_t hops = 0;
  std::uint64_t queue_drops = 0;
  double queue_peak_bytes = 0.0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retx_sent = 0;
  std::uint64_t proactive_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t rto_fired = 0;
  std::uint64_t unique_acked = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t paced_packets = 0;
  std::uint64_t ropr_packets = 0;
  std::uint64_t ropr_abandoned = 0;
  std::uint64_t fallback_packets = 0;
  std::uint64_t fault_seen = 0;

  std::uint64_t data_sent() const { return segments_sent + retx_sent + proactive_sent; }

  void add_run(const telemetry::Hub& hub, const sim::DispatchProfiler* profiler) {
    const telemetry::MetricRegistry& r = hub.registry();
    auto counter = [&r](const char* name) -> std::uint64_t {
      const auto* e = r.find(name);
      return e == nullptr ? 0 : r.counter_at(*e).value();
    };
    events += counter("sim.events_dispatched");
    if (const auto* e = r.find("sim.event_queue_peak")) {
      heap_peak = std::max(heap_peak, r.gauge_at(*e).value());
    }
    segments_sent += counter("transport.segments_sent");
    retx_sent += counter("transport.retx_sent");
    proactive_sent += counter("transport.proactive_sent");
    acks_received += counter("transport.acks_received");
    rto_fired += counter("transport.rto_fired");
    unique_acked += counter("transport.scoreboard_acked");
    flows_started += counter("transport.flows_started");
    paced_packets += counter("scheme.paced_packets");
    ropr_packets += counter("scheme.ropr_packets");
    ropr_abandoned += counter("scheme.ropr_abandoned");
    fallback_packets += counter("scheme.fallback_packets");
    fault_seen += counter("fault.packets_seen");
    // Per-link gauges from the end-of-run network snapshot.
    auto ends_with = [](const std::string& s, const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    for (const auto& e : r.entries()) {
      if (e.kind != telemetry::MetricKind::gauge || e.name.rfind("net.link.", 0) != 0) continue;
      const double v = r.gauge_at(e).value();
      if (ends_with(e.name, ".delivered_packets")) hops += static_cast<std::uint64_t>(v);
      if (ends_with(e.name, ".queue_drops")) queue_drops += static_cast<std::uint64_t>(v);
      if (ends_with(e.name, ".queue_max_backlog_bytes")) {
        queue_peak_bytes = std::max(queue_peak_bytes, v);
      }
    }
    if (profiler == nullptr) return;
    for (const sim::DispatchProfiler::Row& row : profiler->rows()) {
      const std::string& t = row.type_name;
      if (t.find("PacketEvent") != std::string::npos) {
        dispatch_packet += row.count;
      } else if (t.find("TxDoneEvent") != std::string::npos) {
        dispatch_tx_done += row.count;
      } else if (t.find("FunctionEvent") != std::string::npos) {
        dispatch_function += row.count;
      } else if (t.find("Timer") != std::string::npos) {
        dispatch_timer += row.count;
      }
    }
  }
};

/// The host's speed drifts by tens of percent over minutes as other work on
/// it comes and goes: the same run list can take 1.5x as long a few minutes
/// later. Most of that drift is in memory access, so each host-time sample
/// is rescaled by a memory probe timed just before it: a fixed number of
/// reads of cache lines first flushed from every cache, so that neither
/// the previous run's cache footprint nor the probe's own history moves its
/// time. A sample's rescaled value is its time x kSteadyMs / probe time,
/// where kSteadyMs is the probe's usual time on an undisturbed host (a
/// 4-vCPU Xeon VM); the raw figures are printed as notes.
class MemoryProbe {
 public:
  static constexpr double kSteadyMs = 0.05;

  MemoryProbe() : lines_(kLines * kLineWords), order_(kLines) {
    // A fixed pseudo-random visiting order, so that the hardware
    // prefetchers cannot hide the misses.
    std::uint64_t x = 1;
    for (std::size_t i = 0; i < kLines; ++i) order_[i] = i;
    for (std::size_t i = kLines - 1; i > 0; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order_[i], order_[(x >> 33) % (i + 1)]);
    }
  }

  /// The factor that rescales a host time sampled now.
  double scale() {
#if defined(__x86_64__) || defined(__i386__)
    for (std::size_t i = 0; i < kLines; ++i) _mm_clflush(&lines_[i * kLineWords]);
    _mm_mfence();
#endif
    const Clock::time_point start = Clock::now();
    for (std::size_t line : order_) ++lines_[line * kLineWords];
    const double ms = seconds_between(start, Clock::now()) * 1e3;
    probe_ms_.push_back(ms);
    return kSteadyMs / ms;
  }

  double median_ms() const { return median(probe_ms_); }

 private:
  static constexpr std::size_t kLines = 8192;     // 512 KiB
  static constexpr std::size_t kLineWords = 16;  // 64-byte lines of uint32
  std::vector<std::uint32_t> lines_;
  std::vector<std::size_t> order_;
  std::vector<double> probe_ms_;
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> run_ms;
  std::vector<double> run_scale;  ///< MemoryProbe::scale() just before each run
  std::vector<double> fct_ms;
  RunCounts counts;
  std::uint64_t digest = kFnvOffset;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  LayerCounts layers;  ///< traced passes only
};

/// One pass over the workload's run list. A traced pass gives every run a
/// fresh telemetry hub (and dispatch profiler, where the entry point takes
/// one) and records spans.
PassResult run_pass(Workload& workload, bool traced, SpanLog* spans,
                    std::uint64_t& next_run_id, bool tamper, MemoryProbe& probe) {
  PassResult p;
  double probe_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < workload.run_count(); ++i) {
    const std::uint64_t run_id = next_run_id++;
    const Clock::time_point probe_start = Clock::now();
    p.run_scale.push_back(probe.scale());
    probe_s += seconds_between(probe_start, Clock::now());
    RunOutcome out;
    if (traced) {
      telemetry::Hub hub;
      sim::DispatchProfiler profiler;
      sim::DispatchProfiler* seam = workload.has_profiler_seam() ? &profiler : nullptr;
      out = workload.run(i, run_id, Observers{&hub, seam, spans}, tamper && i == 0);
      p.layers.add_run(hub, seam);
    } else {
      out = workload.run(i, run_id, Observers{}, tamper && i == 0);
    }
    ++p.attempted;
    if (!out.ok) {
      ++p.failed;
      if (p.first_failure.empty()) {
        p.first_failure = "run " + std::to_string(i) + ": " + out.failure;
      }
    }
    p.run_ms.push_back(out.host_ms);
    p.fct_ms.insert(p.fct_ms.end(), out.primary_fct_ms.begin(), out.primary_fct_ms.end());
    p.counts += out.counts;
    fnv_fold(p.digest, out.digest);
  }
  p.wall_s = seconds_between(start, Clock::now()) - probe_s;
  return p;
}

/// One pass's host time, rescaled (see MemoryProbe) and estimated over
/// repeated passes: each run's time is the median of its rescaled samples.
/// The loop's time outside the run calls (output checks, hub set-up),
/// rescaled by the pass's median factor, adds as its median too. With
/// `rescale` false, the same estimate from the raw samples.
struct PassEstimate {
  double wall_s = 0.0;
  std::vector<double> run_ms;  ///< per run, in run-list order
};

PassEstimate estimate(const std::vector<PassResult>& passes, bool rescale = true) {
  PassEstimate e;
  std::vector<double> outside_s;
  for (const PassResult& p : passes) {
    double in_runs_ms = 0.0;
    for (double ms : p.run_ms) in_runs_ms += ms;
    outside_s.push_back((p.wall_s - in_runs_ms * 1e-3) * (rescale ? median(p.run_scale) : 1.0));
  }
  e.wall_s = median(outside_s);
  for (std::size_t i = 0; i < passes.front().run_ms.size(); ++i) {
    std::vector<double> samples;
    for (const PassResult& p : passes) {
      samples.push_back(p.run_ms[i] * (rescale ? p.run_scale[i] : 1.0));
    }
    e.run_ms.push_back(median(samples));
    e.wall_s += e.run_ms.back() * 1e-3;
  }
  return e;
}

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    std::printf("%-32s %.10g %s\n", name.c_str(), value, unit);
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name.c_str(), value, unit);
    json_ += buf;
  }
  void note(const std::string& line) { std::printf("# %s\n", line.c_str()); }
  void finish(bool correct, std::size_t attempted, std::size_t failed) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, json_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string json_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run(const Args& args) {
  const Clock::time_point process_start = Clock::now();
  Report report;
  SpanLog span_log;
  SpanLog* spans = args.trace ? &span_log : nullptr;

  MemoryProbe probe;

  // Set-up: generate schedules/paths and construct runners or the
  // environment. setup_s is the median of rescaled set-ups spread over the
  // whole benchmark: kSetupsPerRound before the first run and after every
  // pass. The first copy runs; the others are timed and discarded.
  constexpr int kSetupsPerRound = 25;
  std::vector<double> setup_s;
  auto time_setups = [&](SpanLog* log) {
    std::unique_ptr<Workload> kept;
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const double scale = probe.scale();
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, i == 0 ? log : nullptr);
      setup_s.push_back(seconds_between(t0, Clock::now()) * scale);
      if (i == 0) kept = std::move(w);
    }
    return kept;
  };
  const std::unique_ptr<Workload> workload = time_setups(spans);
  const Clock::time_point first_run = Clock::now();

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  // Run id 0 tags the set-up's spans; runs count up from 1.
  std::uint64_t next_run_id = 1;
  ProbeCosts costs;
  // Passes run back to back while the next one is expected to fit into
  // --seconds; a traced benchmark alternates untraced and traced passes and
  // calibrates the probes after its first traced pass.
  for (;;) {
    const bool traced_turn = args.trace && traced.size() < untraced.size();
    PassResult p = run_pass(*workload, traced_turn, spans, next_run_id, args.tamper, probe);
    const double pass_s = p.wall_s;
    (traced_turn ? traced : untraced).push_back(std::move(p));
    if (traced_turn && traced.size() == 1) {
      ProbeShape shape;
      shape.heap_depth = static_cast<std::size_t>(traced.front().layers.heap_peak);
      shape.schemes = workload->schemes();
      shape.faults = workload->faults();
      costs = run_probes(shape);
    }
    const double used = seconds_between(first_run, Clock::now());
    const bool minimum_done = !args.trace || !traced.empty();
    if (minimum_done && used + pass_s > args.seconds) break;
    time_setups(nullptr);
  }

  // Output check across passes: every pass of one seed must reproduce the
  // first pass's digest and counts, traced or not.
  const PassResult& first = untraced.front();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string failure;
  for (const auto* passes : {&untraced, &traced}) {
    for (const PassResult& p : *passes) {
      attempted += p.attempted;
      failed += p.failed;
      if (failure.empty()) failure = p.first_failure;
      if (p.digest != first.digest || !(p.counts == first.counts)) {
        failed += p.attempted - p.failed;
        if (failure.empty()) {
          failure = "a repeated pass changed the digest or the exact counts";
        }
      }
    }
  }
  if (!args.expect_digest.empty() && args.expect_digest != hex(first.digest)) {
    // The recorded digest covers every run of the seed; a mismatch fails all.
    failed = attempted;
    failure = "sim_digest " + hex(first.digest) + " differs from the recorded " +
              args.expect_digest;
  }
  if (first.counts.primary_flows < 1000) {
    failure = "workload carries only " + std::to_string(first.counts.primary_flows) +
              " primary flows (< 1000)";
    failed = attempted;
  }

  const PassEstimate untraced_estimate = estimate(untraced);
  const double wall_s = untraced_estimate.wall_s;
  const std::vector<double>& run_ms = untraced_estimate.run_ms;

  report.note("workload " + args.workload + " seed " + std::to_string(args.seed) +
              ": closed loop, 1 thread, 1 simulation at a time");
  report.note("sim_digest " + hex(first.digest));
  report.note("passes untraced=" + std::to_string(untraced.size()) +
              " traced=" + std::to_string(traced.size()) + " runs/pass=" +
              std::to_string(workload->run_count()));
  std::string walls = "pass wall_s";
  for (const auto* passes : {&untraced, &traced}) {
    for (const PassResult& p : *passes) walls += " " + std::to_string(p.wall_s);
  }
  report.note(walls);
  report.note("memory probe median " + std::to_string(probe.median_ms()) + " ms (steady " +
              std::to_string(MemoryProbe::kSteadyMs) + " ms); raw wall_s " +
              std::to_string(estimate(untraced, false).wall_s) +
              " s; host times below are rescaled to the steady probe time");
  report.note("process start to first run " +
              std::to_string(seconds_between(process_start, first_run)) + " s (" +
              std::to_string(kSetupsPerRound) + " set-ups); setup_s samples " +
              std::to_string(setup_s.size()));
  report.note("run_ms samples " + std::to_string(run_ms.size()) +
              ", fct_ms samples " + std::to_string(first.fct_ms.size()));
  const RunCounts& c = first.counts;
  report.note("counts events=" + std::to_string(c.events) + ",data_pkts=" +
              std::to_string(c.data_pkts) + ",primary_flows=" +
              std::to_string(c.primary_flows) + ",queue_drops=" +
              std::to_string(c.queue_drops) + ",duplicate_rejected=" +
              std::to_string(c.duplicate_rejected) + ",fault_seen=" +
              std::to_string(c.fault_seen) + ",fault_actions=" +
              std::to_string(c.fault_actions));
  report.note("runs_failed " + std::to_string(failed) + "/" + std::to_string(attempted) +
              (failure.empty() ? "" : " (" + failure + ")"));

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", wall_s, "s");
    report.metric("run_ms.p50", quantile(run_ms, 0.50), "ms");
    report.metric("run_ms.p90", quantile(run_ms, 0.90), "ms");
    report.metric("data_pkts_per_s", static_cast<double>(first.counts.data_pkts) / wall_s,
                  "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("fct_ms.p50", quantile(first.fct_ms, 0.50), "ms");
    report.metric("fct_ms.p99", quantile(first.fct_ms, 0.99), "ms");
  } else {
    const PassResult& t = traced.front();
    const LayerCounts& l = t.layers;
    const double events = static_cast<double>(l.events);
    const double hops = static_cast<double>(l.hops);
    const double data_sent = static_cast<double>(std::max<std::uint64_t>(1, l.data_sent()));

    report.metric("sim.events", events, "count");
    report.metric("sim.events_per_pkt", events / data_sent, "ratio");
    report.metric("sim.heap_peak", l.heap_peak, "count");
    report.metric("sim.ns_per_event", costs.sim_ns_per_event, "ns");
    report.metric("sim.dispatch.packet_event", static_cast<double>(l.dispatch_packet), "count");
    report.metric("sim.dispatch.tx_done", static_cast<double>(l.dispatch_tx_done), "count");
    report.metric("sim.dispatch.timer", static_cast<double>(l.dispatch_timer), "count");
    report.metric("sim.dispatch.function", static_cast<double>(l.dispatch_function), "count");
    if (!workload->has_profiler_seam()) {
      report.note("sim.dispatch.*: PlanetLabEnv::run_one takes no DispatchProfiler; reported 0");
    }
    report.metric("net.hops", hops, "count");
    report.metric("net.bottleneck_drops", static_cast<double>(l.queue_drops), "count");
    report.metric("net.queue_peak_bytes", l.queue_peak_bytes, "bytes");
    report.metric("net.ns_per_hop", costs.net_ns_per_hop, "ns");

    // Attribution: probe costs times exact counts, as host seconds of one
    // untraced pass. Per-hop costs exclude the hop's own dispatches, which
    // the sim row already counts.
    const double flows = static_cast<double>(l.flows_started);
    const double sim_s = events * costs.sim_ns_per_event * 1e-9;
    const double net_s = hops * costs.net_self_ns_per_hop() * 1e-9;
    const double audit_s = (events * costs.audit_ns_per_event +
                            hops * costs.audit_self_ns_per_hop()) * 1e-9;
    const double netfault_s = static_cast<double>(l.fault_seen) * costs.netfault_ns_per_packet * 1e-9;
    const double transport_s = static_cast<double>(l.acks_received) * costs.transport_ns_per_ack * 1e-9;
    const double schemes_s = flows * costs.schemes_ns_per_flow() * 1e-9;
    const double explained = sim_s + net_s + audit_s + netfault_s + transport_s + schemes_s;

    report.metric("audit.ns_per_hop", costs.audit_ns_per_hop, "ns");
    report.metric("audit.ns_per_event", costs.audit_ns_per_event, "ns");
    report.metric("audit.share_est", audit_s / wall_s, "ratio");

    report.metric("netfault.packets_seen", static_cast<double>(l.fault_seen), "count");
    report.metric("netfault.offpath_share",
                  first.counts.fault_seen == 0
                      ? 0.0
                      : static_cast<double>(first.counts.fault_actions) /
                            static_cast<double>(first.counts.fault_seen),
                  "ratio");
    report.metric("netfault.ns_per_packet", costs.netfault_ns_per_packet, "ns");

    report.metric("transport.segments_sent", static_cast<double>(l.segments_sent), "count");
    report.metric("transport.retx_sent", static_cast<double>(l.retx_sent), "count");
    report.metric("transport.acks_received", static_cast<double>(l.acks_received), "count");
    report.metric("transport.rto_fired", static_cast<double>(l.rto_fired), "count");
    report.metric("transport.duplicate_rejected",
                  static_cast<double>(first.counts.duplicate_rejected), "count");
    report.metric("transport.useful_ratio", static_cast<double>(l.unique_acked) / data_sent,
                  "ratio");
    report.metric("transport.ns_per_ack", costs.transport_ns_per_ack, "ns");

    report.metric("schemes.paced_packets", static_cast<double>(l.paced_packets), "count");
    report.metric("schemes.ropr_packets", static_cast<double>(l.ropr_packets), "count");
    report.metric("schemes.ropr_abandoned", static_cast<double>(l.ropr_abandoned), "count");
    report.metric("schemes.fallback_packets", static_cast<double>(l.fallback_packets), "count");
    report.metric("schemes.flow_us", costs.schemes_flow_us, "us");

    report.metric("exp.runs", static_cast<double>(workload->run_count()), "count");
    double run_s = 0.0;
    for (double ms : t.run_ms) run_s += ms * 1e-3;
    report.metric("exp.run_s", run_s, "s");
    // Set-up (run id 0) is outside wall_s, so it is reported on its own and
    // not attributed.
    report.metric("exp.setup_ms", span_log.total_s("exp.setup", 0, 1) * 1e3, "ms");
    report.metric("workload.flows", static_cast<double>(first.counts.primary_flows), "count");
    report.metric("workload.schedule_ms", span_log.total_s("workload.schedule", 0, 1) * 1e3, "ms");

    // Traced against as many untraced passes, which ran interleaved with
    // them.
    const std::vector<PassResult> paired(untraced.begin(),
                                         untraced.begin() + static_cast<std::ptrdiff_t>(traced.size()));
    report.metric("telemetry.trace_overhead",
                  estimate(traced).wall_s / estimate(paired).wall_s - 1.0, "ratio");
    report.metric("attribution.sim_s", sim_s, "s");
    report.metric("attribution.net_s", net_s, "s");
    report.metric("attribution.audit_s", audit_s, "s");
    report.metric("attribution.netfault_s", netfault_s, "s");
    report.metric("attribution.transport_s", transport_s, "s");
    report.metric("attribution.schemes_s", schemes_s, "s");
    report.metric("attribution.wall_s", wall_s, "s");
    report.metric("attribution.unexplained_share", 1.0 - explained / wall_s, "ratio");

    if (!args.spans_path.empty() && !span_log.write_jsonl(args.spans_path)) {
      failure = "cannot write spans to " + args.spans_path;
      failed = attempted;
    }
  }

  const bool correct = failed == 0 && failure.empty();
  report.finish(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
