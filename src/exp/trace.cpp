#include "exp/trace.h"

#include <memory>

#include "exp/run.h"
#include "sim/timer.h"
#include "telemetry/timeseries.h"

namespace halfback::exp {

const char* to_string(TraceScenario scenario) {
  switch (scenario) {
    case TraceScenario::optimal: return "optimal";
    case TraceScenario::halfback: return "halfback";
    case TraceScenario::single_tcp: return "single-tcp";
    case TraceScenario::two_tcp_halves: return "two-tcp-halves";
  }
  return "?";
}

std::vector<ThroughputSample> throughput_samples(
    const telemetry::WindowSeries& series) {
  std::vector<ThroughputSample> out;
  out.reserve(series.window_count());
  const double seconds = series.width().to_seconds();
  for (std::size_t i = 0; i < series.window_count(); ++i) {
    ThroughputSample s;
    s.bucket_start = series.width() * static_cast<double>(i);
    s.mbps = static_cast<double>(series.window(i).bytes) * 8.0 / seconds / 1e6;
    out.push_back(s);
  }
  return out;
}

TraceRun run_trace(const TraceConfig& config, TraceScenario scenario) {
  Run run{config.seed};
  sim::Simulator& simulator = run.simulator();
  net::DumbbellConfig dc = config.dumbbell;
  dc.sender_count = std::max(dc.sender_count, 3);
  dc.receiver_count = std::max(dc.receiver_count, 3);
  net::Dumbbell dumbbell = net::build_dumbbell(run.network(), dc);
  run.attach_hosts(dumbbell.senders);
  run.attach_hosts(dumbbell.receivers);
  run.context().sender_config = config.sender_config;
  run.context().halfback_config = config.halfback_config;

  struct Tracked {
    std::string label;
    net::FlowId flow;
    std::size_t pair = 0;
    telemetry::WindowSeries series;
    std::uint32_t seen_segments = 0;
    transport::SenderBase* sender = nullptr;
  };
  std::vector<std::unique_ptr<Tracked>> tracked;

  // The sampler's last bucket starts at or before `duration`.
  const auto windows =
      static_cast<std::size_t>(config.duration.ns() / config.bucket.ns()) + 1;
  auto start_flow = [&](const std::string& label, schemes::Scheme scheme,
                        std::uint64_t bytes, std::size_t pair, sim::Time at,
                        std::uint32_t burst_window) {
    auto t = std::make_unique<Tracked>(
        Tracked{label, static_cast<net::FlowId>(tracked.size() + 1), pair,
                telemetry::WindowSeries{label, config.bucket, windows}, 0,
                nullptr});
    Tracked* raw = t.get();
    tracked.push_back(std::move(t));
    simulator.schedule_at(at, [&, raw, scheme, bytes, burst_window] {
      const net::NodeId from = dumbbell.senders[raw->pair];
      const net::NodeId to = dumbbell.receivers[raw->pair];
      if (burst_window > 0) {
        // "Optimal": the whole flow leaves in one immediate burst (an ICW
        // covering the flow), the best a sender-side scheme could do.
        raw->sender = &run.agent(from).start_flow(schemes::make_optimal_sender(
            run.context(), simulator, run.network().node(from), to, raw->flow,
            bytes, burst_window));
      } else {
        raw->sender = &run.start_flow(scheme, from, to, raw->flow, bytes);
      }
    });
  };

  // Background TCP flow on pair 0 from t=0.
  start_flow("background", schemes::Scheme::tcp, config.background_bytes, 0,
             sim::Time::zero(), 0);

  switch (scenario) {
    case TraceScenario::optimal:
      start_flow("short-optimal", schemes::Scheme::tcp, config.short_bytes, 1,
                 config.short_start, /*burst_window=*/97);
      break;
    case TraceScenario::halfback:
      start_flow("short-halfback", schemes::Scheme::halfback, config.short_bytes, 1,
                 config.short_start, 0);
      break;
    case TraceScenario::single_tcp:
      start_flow("short-tcp", schemes::Scheme::tcp, config.short_bytes, 1,
                 config.short_start, 0);
      break;
    case TraceScenario::two_tcp_halves:
      start_flow("short-tcp-1", schemes::Scheme::tcp, config.short_bytes / 2, 1,
                 config.short_start, 0);
      start_flow("short-tcp-2", schemes::Scheme::tcp, config.short_bytes / 2, 2,
                 config.short_start, 0);
      break;
  }

  // Sample receiver progress every bucket, on one reusable timer.
  sim::Timer sampler;
  sampler.bind(simulator, [&] {
    for (auto& t : tracked) {
      transport::Receiver* r =
          run.agent(dumbbell.receivers[t->pair]).receiver(t->flow);
      if (r == nullptr) continue;
      const std::uint32_t now_segments = r->stats().unique_segments;
      if (now_segments > t->seen_segments) {
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(now_segments - t->seen_segments) *
            net::kSegmentPayloadBytes;
        // Attribute to the bucket that just ended.
        t->series.tally_bytes(simulator.now() - config.bucket, bytes);
        t->seen_segments = now_segments;
      }
    }
    if (simulator.now() < config.duration) {
      sampler.schedule_after(config.bucket);
    }
  });
  sampler.schedule_after(config.bucket);

  run.run_until(config.duration);

  TraceRun out;
  for (auto& t : tracked) {
    FlowTrace ft;
    ft.label = t->label;
    ft.throughput = throughput_samples(t->series);
    if (t->sender != nullptr && t->sender->complete()) {
      ft.completion = t->sender->record().completion_time;
    }
    out.flows.push_back(std::move(ft));
  }
  const RunSummary summary = run.finish();
  out.trace_hash = summary.trace_hash;
  out.audit_violations = summary.audit_violations;
  return out;
}

}  // namespace halfback::exp
