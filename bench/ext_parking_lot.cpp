// Extension bench (paper §7 future work: "emulation with more complex
// topologies"): short flows traversing a multi-bottleneck parking-lot
// chain while per-hop TCP cross traffic loads every hop independently.
//
// The question: does Halfback's single-RTT pacing + ROPR still pay off
// when the flow must survive several independently-congested queues, where
// the end-to-end RTT (the pacing budget) is the *sum* of hop RTTs but the
// congestion signal is per hop?
#include <cstdio>

#include "common.h"
#include "exp/parallel.h"
#include "exp/run.h"
#include "net/topology.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "workload/flow_schedule.h"

using namespace halfback;

namespace {

struct Result {
  stats::Summary fct_ms;
  double timeouts = 0;
  std::size_t flows = 0;
  std::uint64_t audit_violations = 0;
};

Result run_chain(schemes::Scheme scheme, int hops, double cross_utilization,
                 std::uint64_t seed, double duration_s) {
  exp::Run run{seed};
  sim::Simulator& simulator = run.simulator();
  net::ParkingLotConfig topo;
  topo.hops = hops;
  const net::ParkingLot lot = net::build_parking_lot(run.network(), topo);
  const net::NodeId main_hosts[] = {lot.main_sender, lot.main_receiver};
  run.attach_hosts(main_hosts);
  run.attach_hosts(lot.cross_senders);
  run.attach_hosts(lot.cross_receivers);
  net::FlowId next_flow = 1;

  // Per-hop cross traffic: TCP flows at the requested hop utilization.
  sim::Random rng{seed * 31};
  workload::ScheduleConfig sc;
  sc.target_utilization = cross_utilization;
  sc.bottleneck = topo.bottleneck_rate;
  sc.duration = sim::Time::seconds(duration_s);
  for (int h = 0; h < hops; ++h) {
    auto schedule =
        workload::make_schedule(workload::FlowSizeDist::fixed(100'000), sc, rng);
    for (const workload::FlowArrival& arrival : schedule) {
      const net::FlowId flow = next_flow++;
      const auto hop = static_cast<std::size_t>(h);
      simulator.schedule_at(arrival.at, [&, hop, flow, bytes = arrival.bytes] {
        run.start_flow(schemes::Scheme::tcp, lot.cross_senders[hop],
                       lot.cross_receivers[hop], flow, bytes);
      });
    }
  }

  // Main path: a 100 KB flow of the scheme under test every ~2 s.
  Result result;
  std::vector<transport::SenderBase*> main_flows;
  for (double t = 1.0; t < duration_s; t += 2.0) {
    const net::FlowId flow = next_flow++;
    simulator.schedule_at(sim::Time::seconds(t), [&, flow] {
      main_flows.push_back(
          &run.start_flow(scheme, lot.main_sender, lot.main_receiver, flow, 100'000));
    });
  }
  run.run_until(sim::Time::seconds(duration_s + 30));

  for (transport::SenderBase* flow : main_flows) {
    ++result.flows;
    result.fct_ms.add(flow->complete()
                          ? flow->record().fct().to_ms()
                          : (simulator.now() - flow->record().start_time).to_ms());
    result.timeouts += flow->record().timeouts;
  }
  result.audit_violations = run.finish().audit_violations;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(
      argc, argv, bench::kFull | bench::kSeed | bench::kThreads | bench::kDuration);
  bench::print_header("Extension: parking lot",
                      "short flows across multi-bottleneck chains", opt);

  const double duration_s = opt.duration_s > 0 ? opt.duration_s : (opt.full ? 120 : 40);
  constexpr std::array<schemes::Scheme, 4> kSet{
      schemes::Scheme::tcp, schemes::Scheme::tcp10, schemes::Scheme::jumpstart,
      schemes::Scheme::halfback};
  const std::vector<int> hop_counts{1, 2, 4};
  const std::vector<double> cross_utils{0.2, 0.5};

  struct Job {
    int hops;
    double util;
    schemes::Scheme scheme;
    Result result;
  };
  std::vector<Job> jobs;
  for (int hops : hop_counts) {
    for (double util : cross_utils) {
      for (schemes::Scheme s : kSet) jobs.push_back({hops, util, s, {}});
    }
  }
  exp::parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        jobs[i].result = run_chain(jobs[i].scheme, jobs[i].hops, jobs[i].util,
                                   opt.seed, duration_s);
      },
      opt.threads);
  for (const Job& job : jobs) bench::require_clean_audit(job.result.audit_violations);

  stats::Table table{{"hops", "cross util %", "scheme", "mean FCT (ms)",
                      "median (ms)", "timeouts/flow"}};
  for (const Job& job : jobs) {
    table.add_row({std::to_string(job.hops), stats::Table::num(100 * job.util, 0),
                   bench::display(job.scheme),
                   stats::Table::num(job.result.fct_ms.mean(), 0),
                   stats::Table::num(job.result.fct_ms.median(), 0),
                   stats::Table::num(job.result.timeouts /
                                         static_cast<double>(job.result.flows),
                                     2)});
  }
  table.print();
  std::printf(
      "\nWith more hops the end-to-end RTT grows, so pacing spreads further\n"
      "and every hop's cross traffic gets a chance to clip the batch; ROPR\n"
      "must recover losses whose signals take the full path RTT to return.\n");
  return 0;
}
