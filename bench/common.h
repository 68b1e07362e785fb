// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints the rows/series of one paper figure or table.
// Defaults are scaled down so the whole bench suite runs in minutes on a
// laptop; pass --full for paper-scale parameters. EXPERIMENTS.md records
// paper-vs-measured values for both settings.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ranges>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "schemes/scheme.h"
#include "sim/time.h"
#include "stats/table.h"

namespace halfback::bench {

/// Command-line options shared by the bench binaries.
struct Options {
  bool full = false;          ///< paper-scale parameters
  std::uint64_t seed = 1;
  unsigned threads = 0;       ///< 0 = hardware concurrency
  int pairs = -1;             ///< ensemble size override (-1 = default)
  double duration_s = -1.0;   ///< workload duration override
  int replications = 1;       ///< independent seeds per sweep cell
  std::string csv_dir;        ///< write result tables as CSV here
  std::string telemetry_dir;  ///< write telemetry exports/manifests here
  /// Add per-cell FCT tail-percentile columns (p50/p99/p99.9) to sweeps
  /// that support them (ext_chaos_matrix). Deterministic at any --threads.
  bool percentiles = false;

  // Supervision knobs (docs/robustness.md), honored by the sweep benches
  // that run under the supervised executor (ext_chaos_matrix).
  bool allow_quarantine = false;   ///< quarantined cells don't fail the run
  std::uint64_t budget_events = 0; ///< per-cell event budget (0 = default)
  std::uint64_t storm_window = 0;  ///< storm-detector window (0 = default)
  double storm_rate = 0.0;         ///< events/sim-second threshold (0 = default)
  std::uint64_t cell_attempts = 0; ///< attempts per cell (0 = default policy)
  std::string quarantine_path;     ///< write the quarantine manifest here
};

/// Parse a strictly numeric, non-negative value for `flag`; exits with a
/// diagnostic on junk like `--threads=abc`, `--pairs=-3`, or `--reps=` —
/// silently treating those as 0 (the old atoi behaviour) turned typos into
/// hour-long misconfigured campaigns.
inline std::uint64_t parse_count(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (*v == '\0' || end == nullptr || *end != '\0' || *v == '-' || errno != 0) {
    std::fprintf(stderr, "%s expects a non-negative integer, got \"%s\"\n", flag, v);
    std::exit(2);
  }
  return parsed;
}

inline double parse_seconds(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || end == nullptr || *end != '\0' || errno != 0 || parsed < 0.0) {
    std::fprintf(stderr, "%s expects a non-negative number of seconds, got \"%s\"\n",
                 flag, v);
    std::exit(2);
  }
  return parsed;
}

inline double parse_number(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || end == nullptr || *end != '\0' || errno != 0 || parsed < 0.0) {
    std::fprintf(stderr, "%s expects a non-negative number, got \"%s\"\n", flag,
                 v);
    std::exit(2);
  }
  return parsed;
}

/// The shared flags, as bits: each bench passes parse_options() the set it
/// reads, and every other shared flag is refused.
enum Flag : unsigned {
  kFull = 1u << 0,         ///< --full
  kSeed = 1u << 1,         ///< --seed=N
  kThreads = 1u << 2,      ///< --threads=N
  kPairs = 1u << 3,        ///< --pairs=N
  kDuration = 1u << 4,     ///< --duration=SECONDS
  kReps = 1u << 5,         ///< --reps=N
  kCsv = 1u << 6,          ///< --csv=DIR
  kTelemetry = 1u << 7,    ///< --telemetry=DIR
  kPercentiles = 1u << 8,  ///< --percentiles
  /// --allow-quarantine, --budget-events, --storm-window, --storm-rate,
  /// --cell-attempts and --quarantine.
  kSupervision = 1u << 9,
};
using Flags = unsigned;

/// The --help line of a bench that accepts `accepted`.
inline std::string usage(const char* bench, Flags accepted) {
  static constexpr std::pair<Flags, const char*> kSpellings[] = {
      {kFull, " [--full]"},
      {kSeed, " [--seed=N]"},
      {kThreads, " [--threads=N]"},
      {kPairs, " [--pairs=N]"},
      {kDuration, " [--duration=SECONDS]"},
      {kReps, " [--reps=N]"},
      {kCsv, " [--csv=DIR]"},
      {kTelemetry, " [--telemetry=DIR]"},
      {kPercentiles, " [--percentiles]"},
      {kSupervision,
       " [--allow-quarantine] [--budget-events=N] [--storm-window=N]"
       " [--storm-rate=EVENTS_PER_SIM_SECOND] [--cell-attempts=N]"
       " [--quarantine=FILE]"},
  };
  std::string line = std::string{"usage: "} + bench;
  for (const auto& [flag, text] : kSpellings) {
    if ((accepted & flag) != 0) line += text;
  }
  return line;
}

/// Parse the shared flags; exits 2 on anything malformed or unknown, and on
/// a shared flag outside `accepted` — a flag a bench would accept and then
/// ignore. --help lists only the accepted flags.
inline Options parse_options(int argc, char** argv, Flags accepted) {
  const char* bench = std::strrchr(argv[0], '/');
  bench = bench != nullptr ? bench + 1 : argv[0];
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // True when `flag` is accepted; exits 2 naming the bench otherwise.
    auto accepts = [&](Flags flag) {
      if ((accepted & flag) != 0) return true;
      const std::string name = arg.substr(0, arg.find('='));
      std::fprintf(stderr, "%s is not supported by this bench (%s); see --help\n",
                   name.c_str(), bench);
      std::exit(2);
    };
    const char* v = nullptr;
    if (arg == "--full" && accepts(kFull)) {
      opt.full = true;
    } else if ((v = value("--seed=")) && accepts(kSeed)) {
      opt.seed = parse_count("--seed", v);
    } else if ((v = value("--threads=")) && accepts(kThreads)) {
      opt.threads = static_cast<unsigned>(parse_count("--threads", v));
    } else if ((v = value("--pairs=")) && accepts(kPairs)) {
      opt.pairs = static_cast<int>(parse_count("--pairs", v));
    } else if ((v = value("--duration=")) && accepts(kDuration)) {
      opt.duration_s = parse_seconds("--duration", v);
    } else if ((v = value("--reps=")) && accepts(kReps)) {
      opt.replications = static_cast<int>(parse_count("--reps", v));
    } else if ((v = value("--csv=")) && accepts(kCsv)) {
      opt.csv_dir = v;
    } else if ((v = value("--telemetry=")) && accepts(kTelemetry)) {
      if (*v == '\0') {
        std::fprintf(stderr, "--telemetry expects a directory\n");
        std::exit(2);
      }
      opt.telemetry_dir = v;
    } else if (arg == "--percentiles" && accepts(kPercentiles)) {
      opt.percentiles = true;
    } else if (arg == "--allow-quarantine" && accepts(kSupervision)) {
      opt.allow_quarantine = true;
    } else if ((v = value("--budget-events=")) && accepts(kSupervision)) {
      opt.budget_events = parse_count("--budget-events", v);
    } else if ((v = value("--storm-window=")) && accepts(kSupervision)) {
      opt.storm_window = parse_count("--storm-window", v);
    } else if ((v = value("--storm-rate=")) && accepts(kSupervision)) {
      opt.storm_rate = parse_number("--storm-rate", v);
    } else if ((v = value("--cell-attempts=")) && accepts(kSupervision)) {
      opt.cell_attempts = parse_count("--cell-attempts", v);
    } else if ((v = value("--quarantine=")) && accepts(kSupervision)) {
      opt.quarantine_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s\n", usage(bench, accepted).c_str());
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

inline void print_header(const char* figure, const char* description,
                         const Options& opt) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("mode: %s, seed: %llu\n", opt.full ? "FULL (paper scale)" : "quick",
              static_cast<unsigned long long>(opt.seed));
  std::printf("==================================================================\n\n");
}

inline const char* display(schemes::Scheme s) {
  return schemes::info(s).display_name;
}

/// Exit 1 when the audited runs behind a figure reported invariant
/// violations (always zero when HALFBACK_AUDIT compiles the hooks out): a
/// figure computed from runs that broke an engine invariant is not printed.
inline void require_clean_audit(std::uint64_t violations) {
  if (violations == 0) return;
  std::fprintf(stderr, "invariant auditor reported %llu violations\n",
               static_cast<unsigned long long>(violations));
  std::exit(1);
}

/// The same over a figure's cells or trials: exits 1 when any element's
/// audit_violations is non-zero (sweep cells already sum their runs).
template <std::ranges::input_range Results>
void require_clean_audit(const Results& results) {
  std::uint64_t total = 0;
  for (const auto& r : results) total += r.audit_violations;
  require_clean_audit(total);
}

/// Create `dir` (and its parents) for output, or exit 1 saying why.
inline void make_output_dir(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error || !std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "cannot create output directory %s: %s\n", dir.c_str(),
                 error ? error.message().c_str() : "not a directory");
    std::exit(1);
  }
}

/// Write `path` through `write(std::ostream&)`, or exit 1 when the file
/// cannot be opened or written: an output a flag asked for never goes
/// missing silently.
template <typename Write>
void write_file(const std::string& path, Write&& write) {
  std::ofstream out{path};
  if (out) write(out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Write `table` as <csv_dir>/<name>.csv when --csv was given.
inline void maybe_write_csv(const Options& opt, const char* name,
                            const stats::Table& table) {
  if (opt.csv_dir.empty()) return;
  const std::string path = opt.csv_dir + "/" + name + ".csv";
  if (!table.write_csv(path)) std::exit(1);  // write_csv said why on stderr
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace halfback::bench
