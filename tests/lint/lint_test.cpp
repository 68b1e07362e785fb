// Pins halfback-lint's per-file rules: each fixture under tests/lint/fixtures/
// carries a known number of violations per rule, the clean fixture carries
// none, and — the teeth — the live tree lints clean. Each fixture file is
// modeled on its own under a logical path (the path rules scope on) and runs
// through lint_model(), the sweep the CLI runs.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "model.h"
#include "rules.h"
#include "source_file.h"

namespace lint = halfback::lint;

namespace {

std::filesystem::path fixture_dir() { return HALFBACK_LINT_FIXTURES; }
std::filesystem::path repo_root() { return HALFBACK_REPO_ROOT; }

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot read fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Load a fixture from disk, posing as `logical_path` (the path rules scope
/// on).
lint::SourceFile fixture(const std::string& name, std::string logical_path) {
  return {std::move(logical_path), slurp(fixture_dir() / name)};
}

/// Model `file` on its own and run `rule` over it (every rule when empty).
std::vector<lint::Finding> run_rule(lint::SourceFile file,
                                    std::string_view rule) {
  lint::ProjectModel model;
  model.add_file(std::move(file));
  model.finalize();
  return lint::lint_model(model, {}, rule);
}

std::string describe(const std::vector<lint::Finding>& findings) {
  std::ostringstream out;
  for (const lint::Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return std::move(out).str();
}

TEST(NondeterminismRule, FixtureHasExactlySixFindings) {
  const auto findings =
      run_rule(fixture("nondet.cpp", "src/fixture/nondet.cpp"),
               "nondeterminism");
  EXPECT_EQ(findings.size(), 6u) << describe(findings);
}

TEST(NondeterminismRule, IgnoresFilesOutsideSrc) {
  EXPECT_TRUE(run_rule(fixture("nondet.cpp", "tools/fixture/nondet.cpp"),
                       "nondeterminism")
                  .empty());
}

TEST(NondeterminismRule, AccessorDeclarationIsNotACall) {
  // The regression that motivated the declaration heuristic: an accessor
  // named like a banned function (sim::Simulator::random()).
  lint::SourceFile file{"src/fixture/accessor.h",
                        "#pragma once\n"
                        "struct S {\n"
                        "  Random& random() { return rng_; }\n"
                        "  double time() const;\n"
                        "};\n"};
  EXPECT_TRUE(run_rule(std::move(file), "nondeterminism").empty());
}

TEST(NondeterminismRule, StatementKeywordBeforeNameIsACall) {
  lint::SourceFile file{"src/fixture/call.cpp",
                        "long f() { return time(nullptr); }\n"};
  EXPECT_EQ(run_rule(std::move(file), "nondeterminism").size(), 1u);
}

TEST(NondeterminismRule, SameLineSuppressionSilencesTheFinding) {
  lint::SourceFile file{
      "src/fixture/sup.cpp",
      "long f() { return rand(); }  // lint: nondet-ok(test)\n"};
  EXPECT_TRUE(run_rule(std::move(file), "nondeterminism").empty());
}

TEST(UnorderedIterationRule, FixtureHasExactlyTwoFindings) {
  const auto findings =
      run_rule(fixture("unordered.cpp", "src/exp/fixture_unordered.cpp"),
               "unordered-iteration");
  EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(UnorderedIterationRule, OnlyWatchesTraceHashedDirs) {
  // The same iteration is legal in, say, src/net/ — order there never
  // reaches a trace or a results table.
  EXPECT_TRUE(
      run_rule(fixture("unordered.cpp", "src/net/fixture_unordered.cpp"),
               "unordered-iteration")
          .empty());
}

TEST(RawUnitTypeRule, FixtureHasExactlyThreeFindings) {
  const auto findings =
      run_rule(fixture("units.h", "src/fixture/units.h"), "raw-unit-type");
  EXPECT_EQ(findings.size(), 3u) << describe(findings);
}

TEST(RawUnitTypeRule, OnlyWatchesHeaders) {
  EXPECT_TRUE(run_rule(fixture("units.h", "src/fixture/units.cpp"),
                       "raw-unit-type")
                  .empty());
}

TEST(RawUnitTypeRule, SuggestsTheMatchingStrongType) {
  const auto findings =
      run_rule(fixture("units.h", "src/fixture/units.h"), "raw-unit-type");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_NE(findings[0].message.find("sim::Time"), std::string::npos)
      << findings[0].message;  // rtt_ms
  EXPECT_NE(findings[1].message.find("sim::Bytes"), std::string::npos)
      << findings[1].message;  // buffer_bytes
  EXPECT_NE(findings[2].message.find("sim::DataRate"), std::string::npos)
      << findings[2].message;  // rate_mbps
}

TEST(NakedNewDeleteRule, FixtureHasExactlyTwoFindings) {
  const auto findings =
      run_rule(fixture("alloc.cpp", "src/fixture/alloc.cpp"),
               "naked-new-delete");
  EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(UninitializedPodMemberRule, FixtureHasExactlyFourFindings) {
  const auto findings =
      run_rule(fixture("pod.h", "src/fixture/pod.h"),
               "uninitialized-pod-member");
  EXPECT_EQ(findings.size(), 4u) << describe(findings);
  // The pointer member gets the sharper message.
  EXPECT_NE(findings[3].message.find("wild pointer"), std::string::npos)
      << findings[3].message;
}

TEST(PragmaOnceRule, FlagsGuardlessHeader) {
  const auto findings =
      run_rule(fixture("no_pragma.h", "src/fixture/no_pragma.h"),
               "pragma-once");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(PragmaOnceRule, IgnoresSourceFiles) {
  EXPECT_TRUE(run_rule(fixture("alloc.cpp", "src/fixture/alloc.cpp"),
                       "pragma-once")
                  .empty());
}

TEST(HotPathFunctionRule, FixtureHasExactlyOneFinding) {
  const auto findings =
      run_rule(fixture("hot.cpp", "src/fixture/hot.cpp"),
               "hot-path-std-function");
  EXPECT_EQ(findings.size(), 1u) << describe(findings);
}

TEST(HotPathFunctionRule, UnannotatedFilesAreExempt) {
  // Identical content minus the first line (the hot-path annotation).
  std::string text = slurp(fixture_dir() / "hot.cpp");
  text.erase(0, text.find('\n') + 1);
  lint::SourceFile file{"src/fixture/cold.cpp", std::move(text)};
  EXPECT_TRUE(run_rule(std::move(file), "hot-path-std-function").empty());
}

TEST(NoexceptFireRule, FixtureHasExactlyOneFinding) {
  const auto findings =
      run_rule(fixture("fire.h", "src/fixture/fire.h"), "noexcept-fire");
  EXPECT_EQ(findings.size(), 1u) << describe(findings);
}

TEST(StdoutAccountingRule, FixtureHasExactlyFiveFindings) {
  const auto findings =
      run_rule(fixture("stdout.cpp", "src/fixture/stdout.cpp"),
               "stdout-accounting");
  EXPECT_EQ(findings.size(), 5u) << describe(findings);
}

TEST(StdoutAccountingRule, ReportingLayersAndNonSrcAreExempt) {
  // The exporters (src/telemetry/) and renderers (src/stats/) are the
  // designated print layers; bench/tools code is out of scope entirely.
  EXPECT_TRUE(run_rule(fixture("stdout.cpp", "src/telemetry/fixture.cpp"),
                       "stdout-accounting")
                  .empty());
  EXPECT_TRUE(run_rule(fixture("stdout.cpp", "src/stats/fixture.cpp"),
                       "stdout-accounting")
                  .empty());
  EXPECT_TRUE(run_rule(fixture("stdout.cpp", "bench/fixture.cpp"),
                       "stdout-accounting")
                  .empty());
}

TEST(StdoutAccountingRule, StderrAndBufferFormattingAreFine) {
  lint::SourceFile file{"src/fixture/ok.cpp",
                        "void f(double v) {\n"
                        "  char buf[32];\n"
                        "  std::snprintf(buf, sizeof buf, \"%g\", v);\n"
                        "  std::fprintf(stderr, \"warn %g\\n\", v);\n"
                        "}\n"};
  EXPECT_TRUE(run_rule(std::move(file), "stdout-accounting").empty());
}

TEST(StdoutAccountingRule, SameLineSuppressionSilencesTheFinding) {
  lint::SourceFile file{
      "src/fixture/sup.cpp",
      "void f() { std::printf(\"x\"); }  // lint: stdout-ok(test)\n"};
  EXPECT_TRUE(run_rule(std::move(file), "stdout-accounting").empty());
}

TEST(CleanFixture, ProducesZeroFindingsAcrossAllRules) {
  // Banned names live only in comments, strings, and raw strings here — a
  // tokenizer that leaked them into code tokens would fail this test.
  const auto findings =
      run_rule(fixture("clean.h", "src/fixture/clean.h"), {});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(BrokenFixture, TripsExactlyTheThreeExpectedRules) {
  // CI's red proof runs the CLI over this fixture tree and asserts exit 1;
  // this test pins what it trips on so the proof cannot silently go stale.
  const auto findings = lint::lint_tree(fixture_dir() / "analyze" / "broken");
  std::set<std::string> rules;
  for (const lint::Finding& f : findings) rules.insert(f.rule);
  EXPECT_EQ(findings.size(), 3u) << describe(findings);
  EXPECT_EQ(rules, (std::set<std::string>{"naked-new-delete",
                                          "nondeterminism",
                                          "uninitialized-pod-member"}));
}

TEST(Registry, EveryRuleHasAStableIdAndDescription) {
  std::set<std::string_view> ids;
  for (const auto& rule : lint::all_rules()) {
    EXPECT_FALSE(rule->id().empty());
    EXPECT_FALSE(rule->description().empty());
    EXPECT_TRUE(ids.insert(rule->id()).second)
        << "duplicate rule id " << rule->id();
  }
  EXPECT_EQ(ids.size(), 14u);
}

TEST(Tree, DiscoveryIsSortedAndFindsTheCore) {
  const auto model = lint::ProjectModel::build(repo_root());
  const auto& files = model.files();
  ASSERT_FALSE(files.empty());
  EXPECT_TRUE(std::is_sorted(
      files.begin(), files.end(),
      [](const lint::SourceFile& a, const lint::SourceFile& b) {
        return std::filesystem::path{a.path()} <
               std::filesystem::path{b.path()};
      }));
  EXPECT_TRUE(model.file_index("src/sim/simulator.h").has_value());
  EXPECT_TRUE(model.file_index("src/net/link.cpp").has_value());
  // The fixtures are deliberately broken inputs: never part of the tree.
  for (const lint::SourceFile& f : files) {
    EXPECT_FALSE(f.path().starts_with("tests/lint/fixtures")) << f.path();
  }
}

TEST(Tree, SrcLintsCleanAgainstTheEmptyBaseline) {
  // The teeth of the per-file rules: a wall-clock read, a naked new, a
  // missing #pragma once anywhere under src/ fails here with the full
  // finding text, mirroring the `lint-halfback` build target. There is no
  // baseline file any more, so clean means zero findings. The whole-tree
  // rules' half of the sweep is
  // Tree.LiveTreeAnalyzesCleanAgainstEmptyBaselineAndAllowlist.
  const auto model = lint::ProjectModel::build(repo_root());
  std::vector<lint::Finding> findings;
  for (const auto& rule : lint::all_rules(lint::load_seams(repo_root()))) {
    if (dynamic_cast<const lint::FileRule*>(rule.get()) == nullptr) continue;
    rule->check(model, findings);
  }
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

}  // namespace
