// Fixture: static-storage instance caches the escape analysis must refuse.
// Both declarations are `const`, so the mutable-static route ignores them
// — but a const pointer aliases a live Simulator just fine, which is what
// the static-instance-cache route catches.
#pragma once
namespace halfback::net {

// A process-scope alias to one instance's state (const applies to the
// pointer, not the pointee).
inline sim::Simulator* const g_primary_sim = nullptr;

// A function-local cache has static storage duration all the same.
inline sim::Simulator* last_simulator() {
  static sim::Simulator* const cached = nullptr;
  return cached;
}

}  // namespace halfback::net
