// Fig. 5 — CDF and complementary CDF of the number of *normal* TCP
// retransmissions per 100 KB flow across the path ensemble (§4.2.1).
#include <cstdio>

#include "planetlab_common.h"
#include "stats/summary.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv, bench::kPlanetLabFlags);
  bench::print_header("Figure 5", "normal retransmissions per short flow", opt);

  bench::PlanetLabCampaign campaign = bench::run_planetlab_campaign(opt);

  stats::Table table{{"scheme", "mean retx", "p90", "p99", "% trials with 0 retx"}};
  std::map<schemes::Scheme, stats::Summary> retx;
  for (const auto& [scheme, trials] : campaign.trials) {
    for (const auto& t : trials) {
      retx[scheme].add(static_cast<double>(t.record.normal_retx));
    }
  }
  for (const auto& [scheme, s] : retx) {
    table.add_row({bench::display(scheme), stats::Table::num(s.mean(), 2),
                   stats::Table::num(s.percentile(90), 0),
                   stats::Table::num(s.percentile(99), 0),
                   stats::Table::num(100.0 * s.fraction_at_most(0.0), 1)});
  }
  table.print();
  std::printf("\n");

  for (const auto& [scheme, s] : retx) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.cdf(40)) points.emplace_back(p.value, p.percent);
    stats::print_series(std::string("Fig 5a CDF — ") + bench::display(scheme),
                        "normal_retransmissions", "percent_of_trials", points);
  }
  for (const auto& [scheme, s] : retx) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.ccdf(40)) {
      if (p.percent > 0) points.emplace_back(p.value, p.percent);
    }
    stats::print_series(std::string("Fig 5b CCDF — ") + bench::display(scheme),
                        "normal_retransmissions", "percent_of_trials", points);
  }
  return 0;
}
