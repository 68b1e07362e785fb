#include "workloads.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "exp/chaos.h"
#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "sim/random.h"
#include "workload/flow_schedule.h"

namespace perfbench {
namespace {

using namespace halfback;

constexpr std::uint64_t kShortFlowBytes = 100'000;

// bufferbloat: Fig. 10 cells at three bottleneck buffers (below the BDP,
// the BDP, bloated) for every evaluation_set scheme, kBloatCopies cells
// each. Short flows arrive every ~0.5 s instead of Fig. 10's ~10 s so the
// workload carries over 1000 primary flows; the bulk flow still does most
// of the work.
//
// Cells here and in chaos_loaded take 15 simulated seconds of arrivals
// (Fig. 10 takes 60) so that one run lasts tens of host milliseconds: a
// run's time is its fastest over the passes (see main.cpp), and a short
// run often finds a spell free of interference from other work on the
// host where a long one does not.
constexpr std::uint64_t kBloatBuffersKb[] = {25, 115, 450};
constexpr int kBloatCopies = 2;
constexpr double kCellDurationS = 15.0;
constexpr double kBloatShortInterarrivalS = 0.5;

// chaos_loaded: short flows offered at 70% of the 15 Mbps bottleneck under
// the catalog's composite fault scenario, kChaosCellsPerScheme cells per
// scheme.
constexpr double kChaosUtilization = 0.7;
constexpr int kChaosCellsPerScheme = 4;

// ensemble: one trial per path, the planetlab_set schemes taking turns
// across paths. A trial's cost depends strongly on its path: one with cross
// traffic on a fast bottleneck, or a lossy one whose flow takes long,
// costs tens of times an idle one. So that the workload's cost and its
// run-time percentiles vary little from seed to seed, the paths are a
// stratified draw from a larger seeded sample: fixed numbers with and
// without cross traffic and random loss, in PlanetLabEnv's own proportions
// (30% and 10%, independent), each spread evenly over its group's
// bottleneck rates and RTTs.
constexpr std::size_t kEnsembleGroupPaths[2][2] = {
    {756, 84},  // no cross traffic: clean, lossy
    {324, 36},  // cross traffic: clean, lossy
};
constexpr int kEnsemblePool = 3600;

void fold_record(std::uint64_t& digest, const transport::FlowRecord& r,
                 bool finished, sim::Time fct) {
  fnv_fold(digest, finished ? 1 : 0);
  fnv_fold(digest, static_cast<std::uint64_t>(fct.ns()));
  fnv_fold(digest, r.normal_retx);
  fnv_fold(digest, r.proactive_retx);
  fnv_fold(digest, r.timeouts);
  fnv_fold(digest, r.flow_bytes.count());
  fnv_fold(digest, r.data_packets_sent);
}

void fail(RunOutcome& out, std::string why) {
  if (out.ok) out.failure = std::move(why);
  out.ok = false;
}

/// The auditor's order-sensitive run-trace hash is filled on every run of
/// the audited build; zero means the audit hooks were compiled out.
void check_trace_hash(RunOutcome& out, std::uint64_t trace_hash) {
  if (trace_hash == 0) fail(out, "no run-trace hash: the build has no audit hooks");
}

/// Checks a flow record for internal consistency: a finished flow completed
/// after it started; an unfinished one carries a positive censored time.
void check_flow(RunOutcome& out, const transport::FlowRecord& r, bool finished,
                sim::Time fct) {
  if (finished && (!r.completed || r.completion_time < r.start_time)) {
    fail(out, "flow " + std::to_string(r.flow) + " finished without a valid completion");
  }
  if (fct.ns() <= 0) {
    fail(out, "flow " + std::to_string(r.flow) + " has no completion or censored time");
  }
  if (finished && r.data_packets_sent < r.total_segments) {
    fail(out, "flow " + std::to_string(r.flow) + " finished with fewer sends than segments");
  }
}

/// Dumbbell workloads: one EmulabRunner::run per (cell config, parts).
class EmulabWorkload final : public Workload {
 public:
  struct Cell {
    exp::EmulabRunner::Config config;
    std::vector<exp::WorkloadPart> parts;
  };

  EmulabWorkload(std::vector<Cell> cells, std::span<const schemes::Scheme> used,
                 netfault::FaultConfig faults, SpanLog* spans)
      : cells_{std::move(cells)}, schemes_{used}, faults_{std::move(faults)} {
    runners_.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      ScopedSpan span{spans, 0, "exp", "exp.setup"};
      runners_.emplace_back(cells_[i].config);
    }
  }

  std::size_t run_count() const override { return cells_.size(); }
  bool has_profiler_seam() const override { return true; }
  std::span<const schemes::Scheme> schemes() const override { return schemes_; }
  netfault::FaultConfig faults() const override { return faults_; }

  RunOutcome run(std::size_t index, std::uint64_t run_id,
                 const Observers& observers, bool tamper) override {
    const Cell& cell = cells_[index];
    std::optional<exp::EmulabRunner> traced;
    exp::EmulabRunner* runner = &runners_[index];
    if (observers.hub != nullptr || observers.profiler != nullptr) {
      ScopedSpan span{observers.spans, run_id, "exp", "exp.setup"};
      exp::EmulabRunner::Config config = cell.config;
      config.telemetry = observers.hub;
      config.profiler = observers.profiler;
      runner = &traced.emplace(config);
    }

    RunOutcome out;
    exp::RunResult result;
    try {
      ScopedSpan span{observers.spans, run_id, "exp", "exp.run"};
      const Clock::time_point start = Clock::now();
      result = runner->run(cell.parts);
      out.host_ms = seconds_between(start, Clock::now()) * 1e3;
    } catch (const std::exception& e) {
      fail(out, std::string{"run threw: "} + e.what());
      return out;
    }

    ScopedSpan span{observers.spans, run_id, "check", "check"};
    if (tamper) {
      for (exp::FlowResult& f : result.flows) {
        if (f.role != exp::FlowRole::primary) continue;
        f.record.completion_time = f.record.completion_time + sim::Time::nanoseconds(1);
        break;
      }
    }
    if (result.budget_report.tripped != sim::BudgetTrip::none) {
      fail(out, "budget tripped: " + result.budget_report.summary());
    }
    if (result.audit_violations != 0) {
      fail(out, std::to_string(result.audit_violations) + " audit violations");
    }
    check_trace_hash(out, result.trace_hash);
    std::size_t expected_primary = 0;
    for (const exp::WorkloadPart& part : cell.parts) {
      if (part.role == exp::FlowRole::primary) expected_primary += part.schedule.size();
    }

    std::uint64_t digest = kFnvOffset;
    fnv_fold(digest, result.events_executed);
    fnv_fold(digest, result.trace_hash);
    RunCounts& c = out.counts;
    c.events = result.events_executed;
    c.queue_drops = result.bottleneck_drops_total;
    c.duplicate_rejected = result.delivery.duplicate_rejected;
    c.fault_seen = result.faults.packets_seen;
    c.fault_actions = result.faults.outage_drops + result.faults.flap_drops +
                      result.faults.burst_drops + result.faults.corrupted +
                      result.faults.duplicated + result.faults.jittered +
                      result.faults.delay_spikes;
    for (const exp::FlowResult& f : result.flows) {
      const sim::Time fct = f.finished ? f.record.fct() : f.censored_fct;
      c.data_pkts += f.record.data_packets_sent;
      fold_record(digest, f.record, f.finished, fct);
      fnv_fold(digest, static_cast<std::uint64_t>(f.role));
      if (f.role != exp::FlowRole::primary) continue;
      ++c.primary_flows;
      check_flow(out, f.record, f.finished, fct);
      out.primary_fct_ms.push_back(fct.to_ms());
    }
    if (c.primary_flows != expected_primary) {
      fail(out, std::to_string(expected_primary - c.primary_flows) +
                    " primary flows missing from the result");
    }
    out.digest = digest;
    return out;
  }

 private:
  std::vector<Cell> cells_;
  std::vector<exp::EmulabRunner> runners_;
  std::span<const schemes::Scheme> schemes_;
  netfault::FaultConfig faults_;
};

/// `want` indices from `group`, spread evenly over bottleneck rate and,
/// within each of kRateBands bands of rate, over RTT: the two path
/// properties a trial's cost depends on most.
std::vector<std::size_t> spread_evenly(std::vector<std::size_t> group, std::size_t want,
                                       const std::vector<exp::PathSample>& paths) {
  constexpr std::size_t kRateBands = 20;
  if (group.size() < want) throw std::runtime_error{"path sample too small to stratify"};
  std::sort(group.begin(), group.end(), [&paths](std::size_t a, std::size_t b) {
    return paths[a].bottleneck < paths[b].bottleneck;
  });
  std::vector<std::size_t> picked;
  for (std::size_t band = 0; band < kRateBands; ++band) {
    const auto first = group.begin() + static_cast<std::ptrdiff_t>(band * group.size() / kRateBands);
    const auto last =
        group.begin() + static_cast<std::ptrdiff_t>((band + 1) * group.size() / kRateBands);
    std::sort(first, last, [&paths](std::size_t a, std::size_t b) {
      return paths[a].rtt < paths[b].rtt;
    });
    const auto size = static_cast<std::size_t>(last - first);
    const std::size_t n = want * (band + 1) / kRateBands - want * band / kRateBands;
    for (std::size_t k = 0; k < n; ++k) picked.push_back(first[(2 * k + 1) * size / (2 * n)]);
  }
  return picked;
}

/// Indices into `paths` of the stratified draw described at kEnsembleGroupPaths,
/// in sample order.
std::vector<std::size_t> stratified_paths(const std::vector<exp::PathSample>& paths) {
  // Groups by (cross traffic, lossy), each `want` paths.
  std::vector<std::size_t> groups[2][2];
  for (std::size_t i = 0; i < paths.size(); ++i) {
    groups[paths[i].cross_traffic ? 1 : 0][paths[i].random_loss > 0.0 ? 1 : 0].push_back(i);
  }
  std::vector<std::size_t> picked;
  for (int cross = 0; cross < 2; ++cross) {
    for (int lossy = 0; lossy < 2; ++lossy) {
      const std::vector<std::size_t> some = spread_evenly(
          std::move(groups[cross][lossy]), kEnsembleGroupPaths[cross][lossy], paths);
      picked.insert(picked.end(), some.begin(), some.end());
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

/// The path ensemble: one PlanetLabEnv::run_one per drawn path.
class EnsembleWorkload final : public Workload {
 public:
  EnsembleWorkload(std::uint64_t seed, SpanLog* spans)
      : seed_{seed}, env_{make_env(seed, spans)} {
    ScopedSpan span{spans, 0, "workload", "workload.schedule"};
    drawn_ = stratified_paths(env_.paths());
  }

  std::size_t run_count() const override { return drawn_.size(); }
  bool has_profiler_seam() const override { return false; }
  std::span<const schemes::Scheme> schemes() const override {
    return schemes::planetlab_set();
  }

  RunOutcome run(std::size_t index, std::uint64_t run_id,
                 const Observers& observers, bool tamper) override {
    const auto set = schemes::planetlab_set();
    const schemes::Scheme scheme = set[index % set.size()];
    const std::size_t path = drawn_[index];
    RunOutcome out;
    exp::TrialResult trial;
    try {
      ScopedSpan span{observers.spans, run_id, "exp", "exp.run"};
      const Clock::time_point start = Clock::now();
      // Trial seeds as PlanetLabEnv::run derives them from the path index.
      trial = env_.run_one(scheme, env_.paths()[path], seed_ * 31 + path,
                           observers.hub);
      out.host_ms = seconds_between(start, Clock::now()) * 1e3;
    } catch (const std::exception& e) {
      fail(out, std::string{"run_one threw: "} + e.what());
      return out;
    }

    ScopedSpan span{observers.spans, run_id, "check", "check"};
    if (tamper) {
      trial.record.completion_time = trial.record.completion_time + sim::Time::nanoseconds(1);
    }
    if (trial.audit_violations != 0) {
      fail(out, std::to_string(trial.audit_violations) + " audit violations");
    }
    if (trial.record.flow == 0) fail(out, "trial never started its flow");
    check_trace_hash(out, trial.trace_hash);
    const sim::Time fct = trial.record.fct();
    check_flow(out, trial.record, trial.finished, fct);
    // run_one reports no event count; the auditor's run-trace hash covers
    // the trial's events in order.
    std::uint64_t digest = kFnvOffset;
    fnv_fold(digest, trial.trace_hash);
    fold_record(digest, trial.record, trial.finished, fct);
    out.digest = digest;
    out.counts.data_pkts = trial.record.data_packets_sent;
    out.counts.primary_flows = 1;
    out.primary_fct_ms.push_back(fct.to_ms());
    return out;
  }

 private:
  static exp::PlanetLabEnv make_env(std::uint64_t seed, SpanLog* spans) {
    ScopedSpan span{spans, 0, "exp", "exp.setup"};
    exp::PlanetLabConfig config;
    config.pair_count = kEnsemblePool;
    config.seed = seed;
    return exp::PlanetLabEnv{config};
  }

  std::uint64_t seed_;
  exp::PlanetLabEnv env_;
  std::vector<std::size_t> drawn_;
};

/// Short-flow schedules, one per cell, drawn one after another from a
/// single seeded stream: every cell sees its own arrivals.
class ShortSchedules {
 public:
  ShortSchedules(std::uint64_t seed, double utilization, double duration_s,
                 SpanLog* spans)
      : rng_{seed * 11}, spans_{spans} {
    config_.duration = sim::Time::seconds(duration_s);
    config_.bottleneck = sim::DataRate::megabits_per_second(15);
    config_.target_utilization = utilization;
  }

  std::vector<workload::FlowArrival> next() {
    ScopedSpan span{spans_, 0, "workload", "workload.schedule"};
    return workload::make_schedule(workload::FlowSizeDist::fixed(kShortFlowBytes),
                                   config_, rng_);
  }

 private:
  sim::Random rng_;
  workload::ScheduleConfig config_;
  SpanLog* spans_;
};

std::unique_ptr<Workload> make_bufferbloat(std::uint64_t seed, SpanLog* spans) {
  const double bottleneck_bytes_per_s =
      sim::DataRate::megabits_per_second(15).bytes_per_second();
  ShortSchedules shorts{
      seed, kShortFlowBytes / kBloatShortInterarrivalS / bottleneck_bytes_per_s,
      kCellDurationS, spans};
  // One bulk TCP flow that outlives the run, with a 1000-segment receive
  // window so it can fill the bloated buffer (as in Fig. 10).
  const auto bulk_bytes =
      static_cast<std::uint64_t>(bottleneck_bytes_per_s * kCellDurationS * 1.2);
  transport::SenderConfig bulk_config;
  bulk_config.receive_window_segments = 1000;
  exp::WorkloadPart bulk{schemes::Scheme::tcp,
                         {{sim::Time::zero(), bulk_bytes}},
                         exp::FlowRole::background,
                         bulk_config};

  std::vector<EmulabWorkload::Cell> cells;
  for (int copy = 0; copy < kBloatCopies; ++copy) {
    for (std::uint64_t buffer_kb : kBloatBuffersKb) {
      for (schemes::Scheme scheme : schemes::evaluation_set()) {
        EmulabWorkload::Cell cell;
        cell.config.seed = seed;
        cell.config.dumbbell.bottleneck_buffer_bytes = buffer_kb * 1000;
        cell.parts = {exp::WorkloadPart{scheme, shorts.next(),
                                        exp::FlowRole::primary, {}},
                      bulk};
        cells.push_back(std::move(cell));
      }
    }
  }
  return std::make_unique<EmulabWorkload>(std::move(cells), schemes::evaluation_set(),
                                          netfault::FaultConfig{}, spans);
}

std::unique_ptr<Workload> make_chaos_loaded(std::uint64_t seed, SpanLog* spans) {
  ShortSchedules shorts{seed, kChaosUtilization, kCellDurationS, spans};
  netfault::FaultConfig composite;
  for (exp::ChaosScenario& scenario : exp::chaos_catalog()) {
    if (scenario.name == "adversarial") composite = std::move(scenario.faults);
  }
  if (!composite.any()) throw std::logic_error{"chaos catalog lost its composite scenario"};

  std::vector<EmulabWorkload::Cell> cells;
  for (int copy = 0; copy < kChaosCellsPerScheme; ++copy) {
    for (schemes::Scheme scheme : schemes::evaluation_set()) {
      EmulabWorkload::Cell cell;
      cell.config.seed = seed;
      cell.config.faults = composite;
      cell.config.budget = exp::default_cell_budget();
      cell.parts = {exp::WorkloadPart{scheme, shorts.next(),
                                      exp::FlowRole::primary, {}}};
      cells.push_back(std::move(cell));
    }
  }
  return std::make_unique<EmulabWorkload>(std::move(cells), schemes::evaluation_set(),
                                          std::move(composite), spans);
}

}  // namespace

RunCounts& RunCounts::operator+=(const RunCounts& other) {
  events += other.events;
  data_pkts += other.data_pkts;
  primary_flows += other.primary_flows;
  queue_drops += other.queue_drops;
  duplicate_rejected += other.duplicate_rejected;
  fault_seen += other.fault_seen;
  fault_actions += other.fault_actions;
  return *this;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, SpanLog* spans) {
  if (name == "bufferbloat") return make_bufferbloat(seed, spans);
  if (name == "ensemble") return std::make_unique<EnsembleWorkload>(seed, spans);
  if (name == "chaos_loaded") return make_chaos_loaded(seed, spans);
  throw std::invalid_argument{"unknown workload \"" + name + "\""};
}

}  // namespace perfbench
