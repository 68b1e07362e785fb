// Fig. 7 — CDF and complementary CDF of the number of RTTs each short flow
// needed (FCT normalized by the path RTT, §4.2.1): ~60% of paced-scheme
// flows finish in ~2 RTTs, a third of TCP's count.
#include <cstdio>

#include "planetlab_common.h"
#include "stats/summary.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv, bench::kPlanetLabFlags);
  bench::print_header("Figure 7", "RTTs used per short flow", opt);

  bench::PlanetLabCampaign campaign = bench::run_planetlab_campaign(opt);

  std::map<schemes::Scheme, stats::Summary> rtts;
  for (const auto& [scheme, trials] : campaign.trials) {
    for (const auto& t : trials) rtts[scheme].add(t.record.rtts_used());
  }

  stats::Table table{
      {"scheme", "mean RTTs", "median", "p99", "% finished within ~2 data RTTs"}};
  for (const auto& [scheme, s] : rtts) {
    table.add_row({bench::display(scheme), stats::Table::num(s.mean(), 1),
                   stats::Table::num(s.median(), 1),
                   stats::Table::num(s.percentile(99), 0),
                   stats::Table::num(100.0 * s.fraction_at_most(3.2), 1)});
  }
  table.print();
  std::printf("\n");

  for (const auto& [scheme, s] : rtts) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.cdf(40)) points.emplace_back(p.value, p.percent);
    stats::print_series(std::string("Fig 7a CDF — ") + bench::display(scheme),
                        "number_of_rtts", "percent_of_trials", points);
  }
  for (const auto& [scheme, s] : rtts) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.ccdf(40)) {
      if (p.percent > 0) points.emplace_back(p.value, p.percent);
    }
    stats::print_series(std::string("Fig 7b CCDF — ") + bench::display(scheme),
                        "number_of_rtts", "percent_of_trials", points);
  }
  return 0;
}
