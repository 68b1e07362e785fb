#include "exp/chaos.h"

#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {

std::vector<ChaosScenario> chaos_catalog() {
  using sim::Time;
  std::vector<ChaosScenario> catalog;

  // Baseline: no injector at all — the fast path the golden hashes anchor.
  catalog.push_back({"clean", {}});

  {
    // Gilbert–Elliott bursty loss: mostly-clean path with ~0.5% residual
    // loss that occasionally enters a bad state losing half its packets.
    ChaosScenario s{"bursty-loss", {}};
    s.faults.gilbert_elliott.p_good_to_bad = 0.02;
    s.faults.gilbert_elliott.p_bad_to_good = 0.3;
    s.faults.gilbert_elliott.loss_good = 0.005;
    s.faults.gilbert_elliott.loss_bad = 0.5;
    catalog.push_back(std::move(s));
  }
  {
    // Reordering: a fifth of packets get up to 20 ms of extra propagation,
    // roughly a bottleneck serialization quantum — enough to overtake.
    ChaosScenario s{"reorder", {}};
    s.faults.reorder.probability = 0.2;
    s.faults.reorder.max_extra_delay = Time::milliseconds(20);
    catalog.push_back(std::move(s));
  }
  {
    ChaosScenario s{"duplicate", {}};
    s.faults.duplicate.probability = 0.1;
    s.faults.duplicate.max_copies = 2;
    s.faults.duplicate.spacing = Time::milliseconds(1);
    catalog.push_back(std::move(s));
  }
  {
    // Payload corruption: delivered, checksum-rejected at the receiver.
    ChaosScenario s{"corrupt", {}};
    s.faults.corrupt.probability = 0.05;
    catalog.push_back(std::move(s));
  }
  {
    // Total blackout from t=1 s for 2.5 s — longer than the 1 s initial
    // RTO, so recovering requires surviving backed-off retransmission (and
    // capped SYN backoff for flows that arrive mid-outage).
    ChaosScenario s{"blackout", {}};
    s.faults.outages.emplace_back(Time::seconds(1), Time::seconds(2.5));
    catalog.push_back(std::move(s));
  }
  {
    // Random flapping: ~2 s up phases punctuated by ~200 ms outages.
    ChaosScenario s{"flap", {}};
    s.faults.flap.mean_up = Time::seconds(2);
    s.faults.flap.mean_down = Time::milliseconds(200);
    catalog.push_back(std::move(s));
  }
  {
    // Rare routing-transient delay spikes of 150 ms (several RTTs).
    ChaosScenario s{"delay-spike", {}};
    s.faults.delay_spike.probability = 0.02;
    s.faults.delay_spike.magnitude = Time::milliseconds(150);
    catalog.push_back(std::move(s));
  }
  {
    // Everything at once, each dialled down so the composite stays
    // survivable: the adversarial cell for "handles as many scenarios as
    // you can imagine".
    ChaosScenario s{"adversarial", {}};
    s.faults.gilbert_elliott.p_good_to_bad = 0.01;
    s.faults.gilbert_elliott.p_bad_to_good = 0.4;
    s.faults.gilbert_elliott.loss_good = 0.002;
    s.faults.gilbert_elliott.loss_bad = 0.3;
    s.faults.reorder.probability = 0.1;
    s.faults.reorder.max_extra_delay = Time::milliseconds(10);
    s.faults.duplicate.probability = 0.05;
    s.faults.duplicate.max_copies = 2;
    s.faults.duplicate.spacing = Time::milliseconds(1);
    s.faults.corrupt.probability = 0.02;
    s.faults.delay_spike.probability = 0.01;
    s.faults.delay_spike.magnitude = Time::milliseconds(100);
    s.faults.outages.emplace_back(Time::seconds(2), Time::seconds(1.5));
    catalog.push_back(std::move(s));
  }
  return catalog;
}

namespace {

RunResult run_cell(const ChaosSweepConfig& config, const ChaosScenario& scenario,
                   schemes::Scheme scheme, std::uint64_t seed,
                   telemetry::Hub* hub = nullptr,
                   telemetry::RunManifest* manifest_out = nullptr) {
  EmulabRunner::Config runner_config = config.runner;
  runner_config.seed = seed;
  runner_config.faults = scenario.faults;
  runner_config.telemetry = hub;
  runner_config.budget = config.cell_budget;
  runner_config.wall_limit = config.cell_wall_limit;
  EmulabRunner runner{runner_config};
  WorkloadPart part{scheme, {}, FlowRole::primary, {}};
  part.schedule.reserve(config.flows_per_cell);
  for (std::size_t i = 0; i < config.flows_per_cell; ++i) {
    workload::FlowArrival arrival;
    arrival.at = config.arrival_spacing * static_cast<double>(i);
    arrival.bytes = config.flow_bytes;
    part.schedule.push_back(arrival);
  }
  RunResult result = runner.run({part});
  if (manifest_out != nullptr) {
    *manifest_out = runner.manifest(result, "chaos:" + scenario.name);
    manifest_out->scheme = schemes::name(scheme);
  }
  return result;
}

/// Write one export file through `write`; a file that cannot be opened or
/// written throws, which the supervisor records against the cell.
template <typename Write>
void write_export(const std::string& path, Write&& write) {
  std::ofstream out{path};
  if (out) write(out);
  out.flush();
  if (!out) throw std::runtime_error{"telemetry export: cannot write " + path};
}

void export_cell(const std::string& dir, const ChaosScenario& scenario,
                 schemes::Scheme scheme, const telemetry::Hub& hub,
                 const telemetry::RunManifest& manifest, sim::Time end) {
  const std::string stem =
      dir + "/" + scenario.name + "-" + schemes::name(scheme);
  write_export(stem + ".metrics.jsonl", [&](std::ostream& out) {
    telemetry::write_metrics_jsonl(out, hub.registry());
  });
  // The full-hub overload: the tape events plus the causal span log as
  // nested B/E duration events on pid 3.
  write_export(stem + ".trace.json", [&](std::ostream& out) {
    telemetry::write_chrome_trace(out, hub, end);
  });
  write_export(stem + ".spans.jsonl", [&](std::ostream& out) {
    telemetry::write_spans_jsonl(out, hub.spans(), end);
  });
  write_export(stem + ".series.jsonl", [&](std::ostream& out) {
    telemetry::write_timeseries_jsonl(out, hub);
  });
  write_export(stem + ".manifest.json", [&](std::ostream& out) {
    telemetry::write_manifest_json(out, manifest, &hub.registry());
  });
}

ChaosCell summarize(const ChaosScenario& scenario, schemes::Scheme scheme,
                    const RunResult& run) {
  ChaosCell cell;
  cell.scenario = scenario.name;
  cell.scheme = scheme;
  cell.flows = run.flows.size();
  cell.unfinished = run.unfinished_count(FlowRole::primary);
  cell.mean_fct_ms = run.mean_fct_ms(FlowRole::primary);
  stats::Summary fct = run.fct_ms(FlowRole::primary);
  cell.median_fct_ms = fct.empty() ? 0.0 : fct.median();
  stats::Summary timeouts = run.metric(FlowRole::primary, [](const FlowResult& f) {
    return static_cast<double>(f.record.timeouts);
  });
  cell.mean_timeouts = timeouts.empty() ? 0.0 : timeouts.mean();
  stats::Summary retx = run.metric(FlowRole::primary, [](const FlowResult& f) {
    return static_cast<double>(f.record.normal_retx);
  });
  cell.mean_normal_retx = retx.empty() ? 0.0 : retx.mean();
  stats::Summary proactive = run.metric(FlowRole::primary, [](const FlowResult& f) {
    return static_cast<double>(f.record.proactive_retx);
  });
  cell.mean_proactive_retx = proactive.empty() ? 0.0 : proactive.mean();
  cell.fault_drops = run.faults.total_drops();
  cell.corrupted_rejected = run.delivery.corrupted_rejected;
  cell.duplicate_rejected = run.delivery.duplicate_rejected;
  cell.audit_violations = run.audit_violations;
  cell.trace_hash = run.trace_hash;
  cell.events_executed = run.events_executed;
  cell.trip = run.budget_report.tripped;
  return cell;
}

}  // namespace

ChaosSweepResult chaos_sweep(const ChaosSweepConfig& config,
                             std::span<const schemes::Scheme> schemes) {
  const std::vector<ChaosScenario> catalog = chaos_catalog();
  const std::size_t scheme_count = schemes.size();
  ChaosSweepResult result;
  result.cells.assign(catalog.size() * scheme_count, ChaosCell{});
  std::vector<ChaosCell>& cells = result.cells;

  const auto cell_name = [&](std::size_t i) {
    return catalog[i / scheme_count].name + "/" +
           std::string{schemes::name(schemes[i % scheme_count])};
  };

  SupervisorConfig supervisor;
  supervisor.seed = config.runner.seed;
  supervisor.retry = config.retry;
  supervisor.threads = config.threads;

  result.supervision = supervised_for(
      cells.size(),
      [&](const CellAttempt& id) {
        const std::size_t i = id.index;
        const ChaosScenario& scenario = catalog[i / scheme_count];
        const schemes::Scheme scheme = schemes[i % scheme_count];
        const bool exporting = !config.telemetry_dir.empty();
        const bool need_hub = exporting || config.record_percentiles;
        // One hub per cell, alive only for the cell: the sweep shards cells
        // across threads and the hub is not thread-safe.
        std::optional<telemetry::Hub> hub;
        if (need_hub) hub.emplace();
        telemetry::RunManifest manifest;
        RunResult run = run_cell(config, scenario, scheme, id.seed,
                                 need_hub ? &*hub : nullptr,
                                 exporting ? &manifest : nullptr);
        // Keep the (possibly partial) summary either way: a quarantined
        // cell's last attempt is the triage evidence.
        cells[i] = summarize(scenario, scheme, run);
        cells[i].attempts = id.attempt + 1;
        if (config.record_percentiles) {
          const telemetry::Histogram& fct = *hub->transport().fct;
          cells[i].p50_fct_ms =
              static_cast<double>(fct.value_at_quantile(0.5)) / 1e6;
          cells[i].p99_fct_ms =
              static_cast<double>(fct.value_at_quantile(0.99)) / 1e6;
          cells[i].p999_fct_ms =
              static_cast<double>(fct.value_at_quantile(0.999)) / 1e6;
        }
        if (run.budget_report.tripped != sim::BudgetTrip::none) {
          return AttemptOutcome::from_budget(run.budget_report);
        }
        if (exporting) {
          export_cell(config.telemetry_dir, scenario, scheme, *hub, manifest,
                      run.sim_end);
        }
        if (config.verify_determinism) {
          RunResult rerun = run_cell(config, scenario, scheme, id.seed);
          cells[i].deterministic = rerun.trace_hash == run.trace_hash;
        }
        return AttemptOutcome{};
      },
      supervisor, cell_name);

  for (const telemetry::QuarantineRecord& record :
       result.supervision.manifest.records) {
    cells[record.cell_index].quarantined = true;
  }
  return result;
}

}  // namespace halfback::exp
