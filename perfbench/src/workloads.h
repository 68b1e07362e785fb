// The benchmark's workloads. Each one is a fixed list of simulation runs
// generated from the seed; a run is one call into a real experiment entry
// point (exp::EmulabRunner::run or exp::PlanetLabEnv::run_one), followed by
// the benchmark's output check.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netfault/fault_config.h"
#include "schemes/scheme.h"
#include "sim/dispatch_profiler.h"
#include "spans.h"
#include "telemetry/hub.h"

namespace perfbench {

/// Folds the eight bytes of `v` into an FNV-1a hash, low byte first.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline void fnv_fold(std::uint64_t& hash, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
}

/// Exact counts of one run that the entry point reports without any
/// observer installed. A traced run must reproduce them exactly.
struct RunCounts {
  std::uint64_t events = 0;     ///< dispatched events (EmulabRunner only)
  std::uint64_t data_pkts = 0;  ///< data packets sent by the reported flows
  std::uint64_t primary_flows = 0;
  std::uint64_t queue_drops = 0;  ///< bottleneck drops (EmulabRunner only)
  std::uint64_t duplicate_rejected = 0;
  std::uint64_t fault_seen = 0;     ///< packets the fault injectors inspected
  std::uint64_t fault_actions = 0;  ///< drops, corruptions, copies, delays

  bool operator==(const RunCounts&) const = default;
  RunCounts& operator+=(const RunCounts& other);
};

/// One run's outcome after the output check.
struct RunOutcome {
  bool ok = true;
  std::string failure;   ///< why the run failed (empty when ok)
  double host_ms = 0.0;  ///< host time of the run call alone
  RunCounts counts;
  std::uint64_t digest = 0;  ///< FNV-1a over the flow records, event count
                             ///< and the auditor's run-trace hash
  std::vector<double> primary_fct_ms;  ///< finished or censored, per flow
};

/// Observers of a traced run; all null on an untraced run.
struct Observers {
  halfback::telemetry::Hub* hub = nullptr;
  halfback::sim::DispatchProfiler* profiler = nullptr;
  SpanLog* spans = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t run_count() const = 0;

  /// Execute run `index` and check its output. `run_id` tags its spans.
  /// `tamper` alters one primary flow record before the check, which the
  /// self-test uses to prove the check notices.
  virtual RunOutcome run(std::size_t index, std::uint64_t run_id,
                         const Observers& observers, bool tamper) = 0;

  /// Whether the entry point accepts a sim::DispatchProfiler.
  virtual bool has_profiler_seam() const = 0;

  /// Schemes the runs use and the fault configuration on their bottleneck
  /// (empty when none): the shape the calibration probes replay.
  virtual std::span<const halfback::schemes::Scheme> schemes() const = 0;
  virtual halfback::netfault::FaultConfig faults() const { return {}; }
};

/// Generate the workload's inputs from `seed` and construct its runners or
/// environment; this is the benchmark's set-up. Its spans go to `spans`,
/// when non-null, under run id 0. Throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, SpanLog* spans);

}  // namespace perfbench
