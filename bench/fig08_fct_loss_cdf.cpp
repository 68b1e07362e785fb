// Fig. 8 — CDF of FCT restricted to the trials where packet loss happened
// (§4.2.1): Halfback's ROPR wins by ~20% median over JumpStart here.
#include <cstdio>

#include "planetlab_common.h"
#include "stats/summary.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv, bench::kPlanetLabFlags);
  bench::print_header("Figure 8", "FCT for trials that saw packet loss", opt);

  bench::PlanetLabCampaign campaign = bench::run_planetlab_campaign(opt);

  // "Loss happened" is judged per path from the union over schemes, so all
  // schemes are compared on the same subset of paths (as in the paper,
  // where the loss cases are the same network conditions).
  std::vector<bool> lossy(campaign.config.pair_count, false);
  for (const auto& [scheme, trials] : campaign.trials) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (trials[i].saw_loss) lossy[i] = true;
    }
  }
  int lossy_count = 0;
  for (bool b : lossy) lossy_count += b ? 1 : 0;
  std::printf("paths with loss in at least one scheme: %d / %d (%.0f%%)\n\n",
              lossy_count, campaign.config.pair_count,
              100.0 * lossy_count / campaign.config.pair_count);

  std::map<schemes::Scheme, stats::Summary> fct;
  for (const auto& [scheme, trials] : campaign.trials) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (lossy[i]) fct[scheme].add(trials[i].record.fct().to_ms());
    }
  }

  stats::Table table{{"scheme", "mean FCT (ms)", "median (ms)", "p90 (ms)"}};
  for (const auto& [scheme, s] : fct) {
    table.add_row({bench::display(scheme), stats::Table::num(s.mean(), 0),
                   stats::Table::num(s.median(), 0),
                   stats::Table::num(s.percentile(90), 0)});
  }
  table.print();

  const double h = fct.at(schemes::Scheme::halfback).median();
  const double j = fct.at(schemes::Scheme::jumpstart).median();
  std::printf(
      "\nHalfback median under loss: %.0f ms vs JumpStart %.0f ms "
      "(%.0f ms / %.0f%% reduction; paper: 193 ms / 21%%)\n\n",
      h, j, j - h, 100.0 * (1.0 - h / j));

  for (const auto& [scheme, s] : fct) {
    std::vector<std::pair<double, double>> points;
    for (const auto& p : s.cdf(40)) points.emplace_back(p.value, p.percent);
    stats::print_series(std::string("Fig 8 CDF — ") + bench::display(scheme),
                        "latency_ms", "percent_of_trials", points);
  }
  return 0;
}
