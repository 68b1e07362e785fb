// bench::parse_options argument validation: numeric flags must reject junk
// instead of silently reading 0 (the old atoi/strtoul behaviour), which
// turned typos into misconfigured hour-long campaigns, and a bench must
// refuse every shared flag it does not read instead of ignoring it.
#include "common.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace halfback::bench {
namespace {

constexpr Flags kAllFlags = kFull | kSeed | kThreads | kPairs | kDuration | kReps |
                            kCsv | kTelemetry | kPercentiles | kSupervision;

Options parse(std::vector<const char*> args, Flags accepted = kAllFlags) {
  args.insert(args.begin(), "bench_test");
  return parse_options(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()), accepted);
}

TEST(ParseOptions, ParsesValidNumericFlags) {
  const Options opt = parse({"--seed=42", "--threads=8", "--pairs=20",
                             "--duration=2.5", "--reps=3"});
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_EQ(opt.threads, 8u);
  EXPECT_EQ(opt.pairs, 20);
  EXPECT_DOUBLE_EQ(opt.duration_s, 2.5);
  EXPECT_EQ(opt.replications, 3);
}

TEST(ParseOptions, DefaultsSurviveWhenFlagsAbsent) {
  const Options opt = parse({"--full"});
  EXPECT_TRUE(opt.full);
  EXPECT_EQ(opt.threads, 0u);
  EXPECT_EQ(opt.pairs, -1);
  EXPECT_DOUBLE_EQ(opt.duration_s, -1.0);
  EXPECT_EQ(opt.replications, 1);
}

TEST(ParseOptions, ParsesPercentilesAndTelemetryFlags) {
  const Options opt = parse({"--percentiles", "--telemetry=/tmp/telem"});
  EXPECT_TRUE(opt.percentiles);
  EXPECT_EQ(opt.telemetry_dir, "/tmp/telem");
}

TEST(ParseOptions, PercentilesDefaultOff) {
  const Options opt = parse({});
  EXPECT_FALSE(opt.percentiles);
  EXPECT_TRUE(opt.telemetry_dir.empty());
}

TEST(ParseOptions, ParsesSupervisionFlags) {
  const Options opt =
      parse({"--allow-quarantine", "--budget-events=5000", "--storm-window=250",
             "--storm-rate=1e6", "--cell-attempts=3", "--quarantine=/tmp/q.json"});
  EXPECT_TRUE(opt.allow_quarantine);
  EXPECT_EQ(opt.budget_events, 5000u);
  EXPECT_EQ(opt.storm_window, 250u);
  EXPECT_DOUBLE_EQ(opt.storm_rate, 1e6);
  EXPECT_EQ(opt.cell_attempts, 3u);
  EXPECT_EQ(opt.quarantine_path, "/tmp/q.json");
}

TEST(ParseOptions, SupervisionDefaultsAreOff) {
  const Options opt = parse({});
  EXPECT_FALSE(opt.allow_quarantine);
  EXPECT_EQ(opt.budget_events, 0u);
  EXPECT_EQ(opt.storm_window, 0u);
  EXPECT_DOUBLE_EQ(opt.storm_rate, 0.0);
  EXPECT_EQ(opt.cell_attempts, 0u);
  EXPECT_TRUE(opt.quarantine_path.empty());
}

using ParseOptionsDeath = ::testing::Test;

TEST(ParseOptionsDeath, RejectsNegativeStormRate) {
  EXPECT_EXIT(parse({"--storm-rate=-5"}), ::testing::ExitedWithCode(2),
              "--storm-rate expects a non-negative number");
}

TEST(ParseOptionsDeath, RejectsNonNumericBudgetEvents) {
  EXPECT_EXIT(parse({"--budget-events=lots"}), ::testing::ExitedWithCode(2),
              "--budget-events expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNonNumericThreads) {
  EXPECT_EXIT(parse({"--threads=abc"}), ::testing::ExitedWithCode(2),
              "--threads expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNegativeThreads) {
  EXPECT_EXIT(parse({"--threads=-2"}), ::testing::ExitedWithCode(2),
              "--threads expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsEmptyPairs) {
  EXPECT_EXIT(parse({"--pairs="}), ::testing::ExitedWithCode(2),
              "--pairs expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNegativePairs) {
  EXPECT_EXIT(parse({"--pairs=-3"}), ::testing::ExitedWithCode(2),
              "--pairs expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsTrailingJunkInReps) {
  EXPECT_EXIT(parse({"--reps=3x"}), ::testing::ExitedWithCode(2),
              "--reps expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNonNumericDuration) {
  EXPECT_EXIT(parse({"--duration=fast"}), ::testing::ExitedWithCode(2),
              "--duration expects a non-negative number of seconds");
}

TEST(ParseOptionsDeath, RejectsNegativeDuration) {
  EXPECT_EXIT(parse({"--duration=-1.5"}), ::testing::ExitedWithCode(2),
              "--duration expects a non-negative number of seconds");
}

TEST(ParseOptionsDeath, RejectsTelemetryWhereTheBenchIgnoresIt) {
  EXPECT_EXIT(parse({"--telemetry=/tmp/telem"}, kAllFlags & ~kTelemetry),
              ::testing::ExitedWithCode(2),
              "--telemetry is not supported by this bench \\(bench_test\\)");
}

TEST(ParseOptionsDeath, RejectsEmptyTelemetryDir) {
  EXPECT_EXIT(parse({"--telemetry="}), ::testing::ExitedWithCode(2),
              "--telemetry expects a directory");
}

// Each shared flag is refused, naming the bench, by a bench that does not
// list it — the flags a figure used to accept and then ignore.
TEST(ParseOptionsDeath, RejectsEverySharedFlagOutsideTheAcceptedSet) {
  const std::vector<std::pair<const char*, Flags>> cases{
      {"--full", kFull},
      {"--seed=3", kSeed},
      {"--threads=2", kThreads},
      {"--pairs=5", kPairs},
      {"--duration=2", kDuration},
      {"--reps=2", kReps},
      {"--csv=/tmp/out", kCsv},
      {"--percentiles", kPercentiles},
      {"--allow-quarantine", kSupervision},
      {"--budget-events=10", kSupervision},
      {"--storm-window=10", kSupervision},
      {"--storm-rate=10", kSupervision},
      {"--cell-attempts=2", kSupervision},
      {"--quarantine=/tmp/q.json", kSupervision},
  };
  for (const auto& [arg, flag] : cases) {
    const std::string name = std::string{arg}.substr(0, std::string{arg}.find('='));
    EXPECT_EXIT(parse({arg}, kAllFlags & ~flag), ::testing::ExitedWithCode(2),
                name + " is not supported by this bench \\(bench_test\\)")
        << arg;
    // The same flag passes where it is accepted.
    parse({arg}, flag);
  }
}

TEST(ParseOptionsDeath, ABenchWithNoSharedFlagsRefusesThemAll) {
  EXPECT_EXIT(parse({"--seed=1"}, 0), ::testing::ExitedWithCode(2),
              "--seed is not supported by this bench");
}

TEST(ParseOptions, HelpListsOnlyTheAcceptedFlags) {
  EXPECT_EQ(usage("fig99", kSeed | kCsv), "usage: fig99 [--seed=N] [--csv=DIR]");
  EXPECT_EQ(usage("table1", 0), "usage: table1");
  EXPECT_NE(usage("all", kAllFlags).find("[--quarantine=FILE]"), std::string::npos);
}
TEST(OutputFiles, MakeOutputDirCreatesNestedDirectories) {
  const std::filesystem::path root =
      std::filesystem::path{::testing::TempDir()} / "hb_make_output_dir";
  std::filesystem::remove_all(root);
  make_output_dir((root / "a" / "b").string());
  EXPECT_TRUE(std::filesystem::is_directory(root / "a" / "b"));
  write_file((root / "a" / "b" / "x.txt").string(),
             [](std::ostream& out) { out << "hello\n"; });
  EXPECT_EQ(std::filesystem::file_size(root / "a" / "b" / "x.txt"), 6u);
  std::filesystem::remove_all(root);
}

TEST(OutputFilesDeath, UnwritableFileExitsNonZero) {
  const std::string missing =
      (std::filesystem::path{::testing::TempDir()} / "hb_no_such_dir" / "x.txt")
          .string();
  EXPECT_EXIT(write_file(missing, [](std::ostream& out) { out << "x"; }),
              ::testing::ExitedWithCode(1), "cannot write");
}

TEST(OutputFilesDeath, OutputDirUnderAFileExitsNonZero) {
  const std::filesystem::path file =
      std::filesystem::path{::testing::TempDir()} / "hb_plain_file";
  write_file(file.string(), [](std::ostream& out) { out << "x"; });
  EXPECT_EXIT(make_output_dir((file / "sub").string()), ::testing::ExitedWithCode(1),
              "cannot create output directory");
  std::filesystem::remove(file);
}

TEST(ParseOptionsDeath, RejectsUnknownOption) {
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown option");
}

}  // namespace
}  // namespace halfback::bench
