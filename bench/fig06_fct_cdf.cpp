// Fig. 6 — CDF and complementary CDF of flow completion time for 100 KB
// flows across the wide-area path ensemble (§4.2.1). Also prints the
// §4.2.1 headline summary: mean FCT per scheme and Halfback's reductions.
#include <cstdio>

#include "planetlab_common.h"
#include "stats/summary.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(
      argc, argv, bench::kPlanetLabFlags | bench::kCsv);
  bench::print_header("Figure 6", "FCT of short flows across the path ensemble", opt);

  bench::PlanetLabCampaign campaign = bench::run_planetlab_campaign(opt);

  std::map<schemes::Scheme, stats::Summary> fct;
  for (const auto& [scheme, trials] : campaign.trials) {
    for (const auto& t : trials) fct[scheme].add(t.record.fct().to_ms());
  }

  stats::Table summary{{"scheme", "mean FCT (ms)", "median (ms)", "p99 (ms)"}};
  for (const auto& [scheme, s] : fct) {
    summary.add_row({bench::display(scheme), stats::Table::num(s.mean(), 0),
                     stats::Table::num(s.median(), 0),
                     stats::Table::num(s.percentile(99), 0)});
  }
  summary.print();
  bench::maybe_write_csv(opt, "fig06_fct_summary", summary);

  const stats::Summary& halfback = fct.at(schemes::Scheme::halfback);
  const stats::Summary& jumpstart = fct.at(schemes::Scheme::jumpstart);
  const stats::Summary& tcp = fct.at(schemes::Scheme::tcp);
  const stats::Summary& tcp10 = fct.at(schemes::Scheme::tcp10);
  std::printf(
      "\nSummary (§4.2.1): Halfback mean %.0f ms vs JumpStart %.0f ms "
      "(%.0f%% lower), TCP %.0f ms (%.0f%% lower), TCP-10 %.0f ms\n",
      halfback.mean(), jumpstart.mean(),
      100.0 * (1.0 - halfback.mean() / jumpstart.mean()), tcp.mean(),
      100.0 * (1.0 - halfback.mean() / tcp.mean()), tcp10.mean());
  std::printf(
      "99th percentile: Halfback = %.1f%% of TCP's, %.1f%% of TCP-10's, "
      "%.1f%% of JumpStart's\n\n",
      100.0 * halfback.percentile(99) / tcp.percentile(99),
      100.0 * halfback.percentile(99) / tcp10.percentile(99),
      100.0 * halfback.percentile(99) / jumpstart.percentile(99));

  for (const auto& [scheme, s] : fct) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.cdf(60)) points.emplace_back(p.value, p.percent);
    stats::print_series(std::string("Fig 6a CDF — ") + bench::display(scheme),
                        "latency_ms", "percent_of_trials", points);
  }
  for (const auto& [scheme, s] : fct) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.ccdf(60)) {
      if (p.percent > 0) points.emplace_back(p.value, p.percent);
    }
    stats::print_series(std::string("Fig 6b CCDF — ") + bench::display(scheme),
                        "latency_ms", "percent_of_trials", points);
  }
  return 0;
}
