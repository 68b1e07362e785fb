// Fig. 2 — CDF of the fraction of *traffic* (bytes) carried by flows of
// each size, for the Internet / private DC / public DC distributions.
#include <cstdio>

#include "common.h"
#include "stats/table.h"
#include "workload/flow_size.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv, bench::kSeed);
  bench::print_header("Figure 2", "fraction of traffic by flow size", opt);

  const workload::FlowSizeDist dists[] = {
      workload::FlowSizeDist::internet(),
      workload::FlowSizeDist::benson(),
      workload::FlowSizeDist::vl2(),
  };

  stats::Table table{{"distribution", "mean flow (KB)", "bytes in flows <141KB (%)",
                      "flows <100KB (%)"}};
  sim::Random rng{opt.seed};
  for (const workload::FlowSizeDist& d : dists) {
    int below = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      if (d.sample(rng) < 100'000) ++below;
    }
    table.add_row({d.name(), stats::Table::num(d.mean_bytes() / 1000.0, 1),
                   stats::Table::num(100.0 * d.byte_weighted_cdf(141'000), 1),
                   stats::Table::num(100.0 * below / n, 1)});
  }
  table.print();
  std::printf("\npaper anchors: Internet 34.7%% of bytes < 141 KB; data centers < 1%%\n\n");

  for (const workload::FlowSizeDist& d : dists) {
    std::vector<std::pair<double, double>> points;
    for (double b = d.min_bytes(); b <= d.max_bytes() * 1.0001; b *= 1.6) {
      points.emplace_back(b, d.byte_weighted_cdf(b));
    }
    stats::print_series(std::string("Fig 2 — ") + d.name(), "flow_size_bytes",
                        "fraction_of_traffic", points);
  }
  return 0;
}
