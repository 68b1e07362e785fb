// Deterministic work-count gate for steady-state allocation: in a bulk TCP
// transfer, neither the simulation nor the invariant auditor may allocate
// per delivered packet. Queues, link pipes and the scoreboard window are
// rings that grow only at a new high-water mark, and the uid sets take one
// 64-byte page per 512 uids, so the second half of a run allocates a small
// constant (amortised doublings), however many packets it moves. The
// count comes from a replaced global operator new, so it is exact and
// independent of host speed. Its own binary, because the replacement
// covers the whole program.
//
// The same run is made with and without the auditor: the plain run is
// gated on its own count, and the auditor on the difference. The two runs
// must deliver the same packets, since observing a run never changes it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "audit/invariant_auditor.h"
#include "support/dumbbell_fixture.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace halfback::audit {
namespace {

using namespace halfback::sim::literals;

struct HalfCounts {
  std::uint64_t second_half_allocations = 0;
  std::uint64_t second_half_delivered = 0;
  bool audit_ok = true;
};

/// One bulk TCP flow over the default dumbbell, split at `half` of the
/// simulated span. Its receive window keeps the bottleneck queue short of
/// overflowing, so the steady state is pure forwarding at line rate.
HalfCounts bulk_run(sim::Time half, bool audited) {
  testing::DumbbellFixture fx;
  InvariantAuditor auditor;
  if (audited) fx.net.install_auditor(auditor);
  fx.start(schemes::Scheme::tcp, 1'000'000'000);
  const net::Link& bottleneck = *fx.dumbbell.bottleneck_forward;

  fx.sim.run_until(half);
  const std::uint64_t allocations_at_half = g_allocations;
  const std::uint64_t delivered_at_half = bottleneck.stats().delivered_packets;
  fx.sim.run_until(half + half);

  HalfCounts counts;
  counts.second_half_allocations = g_allocations - allocations_at_half;
  counts.second_half_delivered =
      bottleneck.stats().delivered_packets - delivered_at_half;
  if (audited) {
    auditor.finalize(/*drained=*/false);
    counts.audit_ok = auditor.ok();
  }
  return counts;
}

TEST(AuditAllocationGate, SteadyStateSimulationAllocationsDoNotScaleWithPackets) {
  const HalfCounts plain = bulk_run(5_s, /*audited=*/false);
  ASSERT_GT(plain.second_half_delivered, 5'000u);
  EXPECT_LE(plain.second_half_allocations, 16u)
      << "the simulation allocated " << plain.second_half_allocations
      << " times while " << plain.second_half_delivered
      << " packets crossed the bottleneck";
}

TEST(AuditAllocationGate, SteadyStateAuditAllocationsDoNotScaleWithPackets) {
#ifndef HALFBACK_AUDIT
  GTEST_SKIP() << "audit hooks compiled out (HALFBACK_AUDIT=OFF)";
#endif
  const HalfCounts plain = bulk_run(5_s, /*audited=*/false);
  const HalfCounts audited = bulk_run(5_s, /*audited=*/true);
  ASSERT_TRUE(audited.audit_ok);
  ASSERT_EQ(audited.second_half_delivered, plain.second_half_delivered);
  // The gate means something only if the second half moves real traffic.
  ASSERT_GT(audited.second_half_delivered, 5'000u);
  ASSERT_GE(audited.second_half_allocations, plain.second_half_allocations);
  const std::uint64_t audit_allocations =
      audited.second_half_allocations - plain.second_half_allocations;
  EXPECT_LE(audit_allocations, 16u)
      << "the auditor allocated " << audit_allocations << " times while "
      << audited.second_half_delivered << " packets crossed the bottleneck";
}

}  // namespace
}  // namespace halfback::audit
