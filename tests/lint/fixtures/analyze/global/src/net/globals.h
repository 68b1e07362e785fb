// Fixture: hidden mutable static-storage state — what sim_escape's
// mutable-static route inventories (a namespace-scope variable and a
// singleton-style local static).
#pragma once
namespace halfback::net {

int g_total_packets = 0;

inline long sequence() {
  static long next = 0;
  return ++next;
}

}  // namespace halfback::net
