// Table 1 — the startup-phase / loss-recovery design space, printed from
// the scheme registry, plus the §2.1 back-of-envelope overhead bound.
#include <cstdio>

#include "common.h"
#include "stats/table.h"
#include "workload/flow_size.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv, 0);
  bench::print_header("Table 1", "startup and lost-packet recovery design space", opt);

  stats::Table table{{"scheme", "startup phase", "extra bandwidth",
                      "retx direction", "retx rate", "sender-side only"}};
  for (const schemes::SchemeInfo& info : schemes::all_schemes()) {
    table.add_row({info.display_name, info.startup, info.extra_bandwidth,
                   info.retx_order, info.retx_rate, info.sender_side_only ? "yes" : "no"});
  }
  table.print();

  // §2.1 / §3.2: proactive overhead applied to flows < 141 KB increases
  // total utilization by a bounded sliver because those flows carry a small
  // byte share. Reproduce the arithmetic from our calibrated distributions.
  const double internet_share =
      workload::FlowSizeDist::internet().byte_weighted_cdf(141'000);
  const double dc_share = workload::FlowSizeDist::benson().byte_weighted_cdf(141'000);
  std::printf(
      "\n§2.1 overhead bound: bytes in flows <141 KB — Internet %.1f%%, "
      "private DC %.1f%%.\n",
      100.0 * internet_share, 100.0 * dc_share);
  std::printf(
      "Proactive TCP (100%% duplication) at 20-30%% average utilization adds "
      "%.1f%%-%.1f%% network load on the Internet mix;\n"
      "Halfback's ROPR (~50%%) adds %.1f%%-%.1f%% (paper: 0.1%% to 5.2%%).\n",
      100.0 * 0.20 * internet_share * 1.0, 100.0 * 0.30 * internet_share * 1.0,
      100.0 * 0.20 * internet_share * 0.5, 100.0 * 0.30 * internet_share * 0.5);
  return 0;
}
