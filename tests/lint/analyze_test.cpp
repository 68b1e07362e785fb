// Pins halfback-lint's whole-tree rules: each mini-tree under
// tests/lint/fixtures/analyze/ carries a known set of cross-TU violations
// (red), the clean and seam-sanctioned trees lint clean (green), and the
// live tree's model sees what the rules key on. The fixtures run through
// lint_tree(), the exact code path the CLI and CI exercise.
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "model.h"
#include "rules.h"

namespace lint = halfback::lint;

namespace {

std::filesystem::path analyze_fixture_dir() {
  return std::filesystem::path{HALFBACK_LINT_FIXTURES} / "analyze";
}
std::filesystem::path repo_root() { return HALFBACK_REPO_ROOT; }

std::string describe(const std::vector<lint::Finding>& findings) {
  std::ostringstream out;
  for (const lint::Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return std::move(out).str();
}

std::vector<lint::Finding> analyze_fixture(const std::string& name,
                                           std::string_view only_rule = {}) {
  return lint::lint_tree(analyze_fixture_dir() / name, only_rule);
}

/// In-memory model over hand-written files — for cases a disk fixture
/// cannot express (custom seam inventories, single-file probes).
lint::ProjectModel model_of(
    std::vector<std::pair<std::string, std::string>> files) {
  lint::ProjectModel model;
  for (auto& [path, text] : files) {
    model.add_file(lint::SourceFile{path, std::move(text)});
  }
  model.finalize();
  return model;
}

// ---- layering ---------------------------------------------------------------

TEST(LayeringRule, IncludeCycleFixtureTripsOnce) {
  const auto findings = analyze_fixture("cycle");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos)
      << findings[0].message;
  // The cycle is spelled out end to end.
  EXPECT_NE(findings[0].message.find("src/net/cycle_a.h -> "
                                     "src/net/cycle_b.h -> "
                                     "src/net/cycle_a.h"),
            std::string::npos)
      << findings[0].message;
}

TEST(LayeringRule, UpwardIncludeFixtureTripsOnce) {
  const auto findings = analyze_fixture("upward");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].path, "src/net/uses_exp.h");
  EXPECT_NE(findings[0].message.find("may not include"), std::string::npos);
}

TEST(LayeringRule, SuppressionCommentSilencesAnUpwardInclude) {
  const auto model = model_of({
      {"src/exp/top.h", "#pragma once\n"},
      {"src/net/low.h",
       "#pragma once\n"
       "// lint: layer-ok(fixture: sanctioned exception)\n"
       "#include \"exp/top.h\"\n"},
  });
  const auto findings = lint::lint_model(model, {}, "layering");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LayeringRule, ObservabilityInterfaceHeadersAreSanctioned) {
  // net/ may include the telemetry probe surface (hub.h) but not the rest
  // of the telemetry layer (exporters etc.).
  const auto model = model_of({
      {"src/telemetry/hub.h", "#pragma once\n"},
      {"src/telemetry/export.h", "#pragma once\n"},
      {"src/net/a.h", "#pragma once\n#include \"telemetry/hub.h\"\n"},
      {"src/net/b.h", "#pragma once\n#include \"telemetry/export.h\"\n"},
  });
  const auto findings = lint::lint_model(model, {}, "layering");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].path, "src/net/b.h");
}

TEST(LayeringRule, LayerGraphDotNamesLayersAndAggregatesEdges) {
  const auto model = model_of({
      {"src/sim/base.h", "#pragma once\n"},
      {"src/net/a.h", "#pragma once\n#include \"sim/base.h\"\n"},
      {"src/net/b.h", "#pragma once\n#include \"sim/base.h\"\n"},
  });
  const std::string dot = model.layer_graph_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"net\" -> \"sim\" [label=\"2\"]"), std::string::npos)
      << dot;
}

// ---- transitive hot-path proofs --------------------------------------------

TEST(HotPathReachRule, TransitiveAllocationFixtureTrips) {
  const auto findings = analyze_fixture("hotalloc", "hot_path_reach");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "hot_path_reach");
  EXPECT_EQ(findings[0].path, "src/sim/deep.h");
  // The proof names the call chain from the fire() root.
  EXPECT_NE(findings[0].message.find("HotTimer::fire -> "
                                     "halfback::sim::deep_stage"),
            std::string::npos)
      << findings[0].message;
}

TEST(HotPathReachRule, UnreachableAllocationIsNotCharged) {
  // Same allocating helper, but nothing on the hot path calls it.
  const auto model = model_of({
      {"src/sim/cold.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "inline int* setup_only() { return new int{4}; }\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(HotPathReachRule, SuppressionAtTheEvidenceSiteSilences) {
  const auto model = model_of({
      {"src/sim/ev.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "struct E {\n"
       "  void fire() noexcept override {\n"
       "    // lint: hot-ok(fixture: amortized)\n"
       "    buf_.push_back(1);\n"
       "  }\n"
       "  std::vector<int> buf_;\n"
       "};\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(HotPathReachRule, SenderPipelineEntriesAreRootsAndVirtualDispatchTrips) {
  const auto findings = analyze_fixture("virtualhot");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  // on_packet -> hook_->deliver(): a virtual call on the per-packet path.
  EXPECT_EQ(findings[0].rule, "hot_path_reach");
  EXPECT_EQ(findings[0].path, "src/transport/pipe.h");
  EXPECT_NE(findings[0].message.find("virtual call"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("'deliver'"), std::string::npos)
      << findings[0].message;
  // on_rto -> rearm_timer(): std::function construction one TU away.
  EXPECT_EQ(findings[1].path, "src/transport/slow_helper.h");
  EXPECT_NE(findings[1].message.find("std::function construction"),
            std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[1].message.find("StaticSender::on_rto -> "
                                     "halfback::transport::rearm_timer"),
            std::string::npos)
      << findings[1].message;
}

TEST(HotPathReachRule, NonVirtualMemberCallsAreNotFlagged) {
  // A member call whose name matches no virtual declaration is plain
  // devirtualized CRTP plumbing — no finding.
  const auto model = model_of({
      {"src/transport/crtp.h",
       "#pragma once\n"
       "namespace halfback::transport {\n"
       "struct Policy {\n"
       "  void on_ack_hook(int n) { count_ += n; }\n"
       "  int count_ = 0;\n"
       "};\n"
       "struct S {\n"
       "  void on_packet(int n) { policy_.on_ack_hook(n); }\n"
       "  Policy policy_;\n"
       "};\n"
       "}  // namespace halfback::transport\n"},
  });
  const auto findings = lint::lint_model(model, {}, "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(HotPathReachRule, SuppressionTagsTheSanctionedVirtualSeam) {
  const auto model = model_of({
      {"src/transport/seam.h",
       "#pragma once\n"
       "namespace halfback::transport {\n"
       "struct Base {\n"
       "  virtual void on_segment(int seq) = 0;\n"
       "};\n"
       "struct Agent {\n"
       "  void on_packet(int seq) {\n"
       "    // lint: hot-ok(fixture: the one type-erased seam)\n"
       "    sender_->on_segment(seq);\n"
       "  }\n"
       "  Base* sender_ = nullptr;\n"
       "};\n"
       "}  // namespace halfback::transport\n"},
  });
  const auto findings = lint::lint_model(model, {}, "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---- determinism taint ------------------------------------------------------

TEST(RngTaintRule, AmbientAndDefaultConstructionFixtureTrips) {
  const auto findings = analyze_fixture("rng", "rng_taint");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "rng_taint");
  EXPECT_NE(findings[0].message.find("default-constructed"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("ambient source"), std::string::npos);
}

TEST(RngTaintRule, SeedDerivedConstructionsAreClean) {
  const auto model = model_of({
      {"src/sim/ok.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "struct S {\n"
       "  explicit S(const Random& parent) : rng_{parent.fork(0x11bbULL)} {}\n"
       "  Random rng_{0};\n"
       "};\n"
       "inline Random stream(unsigned long long seed) {\n"
       "  Random r{seed};\n"
       "  return r;\n"
       "}\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "rng_taint");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(RngTaintRule, MemberInitFromAmbientSourceTrips) {
  // The ctor-init-list path: the member's RNG type is declared on one line,
  // the tainted construction happens in the initializer list.
  const auto model = model_of({
      {"src/sim/bad_member.h",
       "#pragma once\n"
       "#include <random>\n"
       "namespace halfback::sim {\n"
       "struct S {\n"
       "  S() : gen_{std::random_device{}()} {}\n"
       "  std::mt19937 gen_{1};\n"
       "};\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "rng_taint");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("ambient"), std::string::npos)
      << findings[0].message;
}

// ---- effect contracts -------------------------------------------------------

TEST(EffectsRule, UndeclaredDirectEffectFixtureTrips) {
  const auto findings = analyze_fixture("effects_undeclared", "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_EQ(findings[0].path, "src/sim/pure_claim.h");
  EXPECT_NE(findings[0].message.find("declares {pure} but 'alloc'"),
            std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, AllocatingTelemetryTapFixtureTrips) {
  // The span/series record-path discipline: a telemetry tap reached from
  // the dispatch path must be pure stores on preallocated storage. This
  // fixture's tap claims HB_EFFECTS() but grows a vector on overflow —
  // the analyzer must catch the false claim.
  const auto findings = analyze_fixture("tapalloc", "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_EQ(findings[0].path, "src/telemetry/tap.h");
  EXPECT_NE(findings[0].message.find("declares {pure} but 'alloc'"),
            std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, TransitiveContractTooNarrowCarriesTheWitnessChain) {
  const auto findings = analyze_fixture("effects_narrow", "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_EQ(findings[0].path, "src/net/sender.h");
  // The witness names the chain down to the leaf evidence in the other TU.
  EXPECT_NE(findings[0].message.find(
                "halfback::net::open_window -> "
                "halfback::sim::check_window: throw"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("src/sim/guard.h:7"), std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, IndirectDispatchPropagatesConservatively) {
  // With no sanctioned seam, the virtual call's possible target charges its
  // alloc to the caller's contract.
  const auto findings = analyze_fixture("effects_indirect", "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_NE(findings[0].message.find("RingHook::deliver: alloc"),
            std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, SanctionedSeamCutsPropagationForBothEngines) {
  // Green twin of effects_indirect: the hot_seams.txt entry silences the
  // hot_path_reach dispatch report AND stops the effect engine from
  // charging the implementor's alloc to the caller, with no stale-seam
  // finding. (The tree's naked `new` is a per-file naked-new-delete
  // finding, outside both engines.)
  for (const std::string_view rule : {"hot_path_reach", "effects"}) {
    const auto findings = analyze_fixture("effects_seam", rule);
    EXPECT_TRUE(findings.empty()) << rule << ":\n" << describe(findings);
  }
}

TEST(EffectsRule, ContractTooWideIsAFinding) {
  const auto model = model_of({
      {"src/sim/wide.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "inline int twice(int v) HB_EFFECTS(alloc) { return v * 2; }\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("too wide"), std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, ConflictingDuplicateContractsAreAFinding) {
  const auto model = model_of({
      {"src/sim/a.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "void poke() HB_EFFECTS(alloc);\n"
       "}  // namespace halfback::sim\n"},
      {"src/sim/b.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "void poke() HB_EFFECTS(throw);\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("conflicting"), std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, UnknownEffectTokenIsAFinding) {
  const auto model = model_of({
      {"src/sim/typo.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "inline void quiet() HB_EFFECTS(alloc, blocc) {}\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "effects");
  // One unknown-token finding, plus "too wide" for alloc (the body is
  // pure). Same site, so the (path, line, message) sort puts "too wide"
  // first.
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_NE(findings[0].message.find("too wide"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("unknown effect token 'blocc'"),
            std::string::npos)
      << findings[1].message;
}

TEST(EffectsRule, SuppressionTagSilencesAContractSite) {
  const auto model = model_of({
      {"src/sim/tagged.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "// lint: effects-ok(fixture: alloc is setup-only by construction)\n"
       "inline int* boot() HB_EFFECTS() { return new int{1}; }\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::lint_model(model, {}, "effects");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---- simulator escape -------------------------------------------------------

TEST(SimEscapeRule, HiddenGlobalsFixtureTripsBothKinds) {
  // The mutable-static route: a namespace-scope variable and a
  // function-local static, each shared by every shard in the process.
  const auto findings = analyze_fixture("global");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "sim_escape");
  EXPECT_NE(findings[0].message.find("halfback::net::g_total_packets"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("halfback::net::sequence::next"),
            std::string::npos);
}

TEST(SimEscapeRule, ConstAndConstexprStateIsNotInventoried) {
  const auto model = model_of({
      {"src/net/tables.h",
       "#pragma once\n"
       "namespace halfback::net {\n"
       "constexpr int kWindow = 64;\n"
       "const char* const kName = \"halfback\";\n"
       "inline int lookup(int i) {\n"
       "  static constexpr int kTable[2] = {1, 2};\n"
       "  return kTable[i & 1];\n"
       "}\n"
       "}  // namespace halfback::net\n"},
  });
  const auto findings = lint::lint_model(model, {}, "sim_escape");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(SimEscapeRule, StaticInstanceCachesFixtureTripsBothStorageKinds) {
  const auto findings = analyze_fixture("escape_static");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "sim_escape");
  EXPECT_NE(findings[0].message.find("halfback::net::g_primary_sim"),
            std::string::npos);
  // The function-local static is qualified by its owning function.
  EXPECT_NE(findings[1].message.find("last_simulator::cached"),
            std::string::npos);
}

TEST(SimEscapeRule, CrossInstanceCaptureFixtureTripsAllThreeRoutes) {
  const auto findings = analyze_fixture("escape_capture");
  ASSERT_EQ(findings.size(), 3u) << describe(findings);
  for (const lint::Finding& f : findings) EXPECT_EQ(f.rule, "sim_escape");
  EXPECT_NE(findings[0].message.find("takes 2 Simulator parameters"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("holds 2 Simulator references"),
            std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[2].message.find("unclear Simulator provenance"),
            std::string::npos)
      << findings[2].message;
}

TEST(SimEscapeRule, SingleIdentifierProvenanceIsClean) {
  const auto model = model_of({
      {"src/net/owner.h",
       "#pragma once\n"
       "namespace halfback::net {\n"
       "class Port {\n"
       " public:\n"
       "  explicit Port(sim::Simulator& simulator) : sim_{simulator} {}\n"
       " private:\n"
       "  sim::Simulator& sim_;\n"
       "};\n"
       "}  // namespace halfback::net\n"},
  });
  const auto findings = lint::lint_model(model, {}, "sim_escape");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(SimEscapeRule, ConstexprStaticsAreExempt) {
  const auto model = model_of({
      {"src/net/table.h",
       "#pragma once\n"
       "namespace halfback::net {\n"
       "inline int pick(int i) {\n"
       "  static constexpr int kPrimes[2] = {2, 3};\n"
       "  return kPrimes[i & 1];\n"
       "}\n"
       "}  // namespace halfback::net\n"},
  });
  const auto findings = lint::lint_model(model, {}, "sim_escape");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// The inline tag is the rule's only escape hatch: on the finding's line or
// the line above it silences that site, and an untagged twin still trips.

TEST(SimEscapeRule, EscapeOkTagSilencesTheMutableStaticRoute) {
  const auto model = model_of({
      {"src/net/counters.h",
       "#pragma once\n"
       "namespace halfback::net {\n"
       "// lint: escape-ok(fixture: process-wide by design)\n"
       "inline int g_tagged = 0;\n"
       "inline int g_untagged = 0;\n"
       "inline int next_id() {\n"
       "  static int untagged_id = 0;\n"
       "  static int tagged_id = 0;  // lint: escape-ok(fixture)\n"
       "  return ++tagged_id + ++untagged_id;\n"
       "}\n"
       "}  // namespace halfback::net\n"},
  });
  const auto findings = lint::lint_model(model, {}, "sim_escape");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("halfback::net::g_untagged"),
            std::string::npos)
      << findings[0].message;
  EXPECT_EQ(findings[1].line, 7);
  EXPECT_NE(findings[1].message.find("next_id::untagged_id"),
            std::string::npos)
      << findings[1].message;
}

TEST(SimEscapeRule, EscapeOkTagSilencesTheStaticInstanceCacheRoute) {
  const auto model = model_of({
      {"src/net/cache.h",
       "#pragma once\n"
       "namespace halfback::net {\n"
       "// lint: escape-ok(fixture: sanctioned cache)\n"
       "inline sim::Simulator* const g_tagged_sim = nullptr;\n"
       "inline sim::Simulator* const g_untagged_sim = nullptr;\n"
       "}  // namespace halfback::net\n"},
  });
  const auto findings = lint::lint_model(model, {}, "sim_escape");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("static-storage instance cache: "
                                     "'halfback::net::g_untagged_sim'"),
            std::string::npos)
      << findings[0].message;
}

TEST(SimEscapeRule, EscapeOkTagSilencesTheCrossInstanceRoute) {
  const auto model = model_of({
      {"src/exp/bridge.h",
       "#pragma once\n"
       "namespace halfback::exp {\n"
       "// lint: escape-ok(fixture: sanctioned bridge)\n"
       "inline void tagged(sim::Simulator& a, sim::Simulator& b) {}\n"
       "inline void untagged(sim::Simulator& a, sim::Simulator& b) {}\n"
       "struct TaggedPair {\n"
       "  sim::Simulator* left = nullptr;\n"
       "  sim::Simulator* right = nullptr;  // lint: escape-ok(fixture)\n"
       "};\n"
       "struct UntaggedPair {\n"
       "  sim::Simulator* left = nullptr;\n"
       "  sim::Simulator* right = nullptr;\n"
       "};\n"
       "}  // namespace halfback::exp\n"},
  });
  const auto findings = lint::lint_model(model, {}, "sim_escape");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("cross-instance bridge: "
                                     "'halfback::exp::untagged' takes 2"),
            std::string::npos)
      << findings[0].message;
  EXPECT_EQ(findings[1].line, 12);
  EXPECT_NE(findings[1].message.find("cross-instance bridge: class "
                                     "'UntaggedPair' holds 2"),
            std::string::npos)
      << findings[1].message;
}

// ---- seam inventory ---------------------------------------------------------

TEST(SeamInventory, ParsesEntriesAndFindsByCallerCalleePath) {
  lint::SeamInventory seams;
  std::string error;
  ASSERT_TRUE(lint::SeamInventory::parse(
      "# comment\n"
      "halfback::net::Link::send enqueue src/net/link.cpp the queue seam\n",
      seams, error))
      << error;
  ASSERT_EQ(seams.entries.size(), 1u);
  EXPECT_EQ(seams.entries[0].justification, "the queue seam");
  EXPECT_EQ(
      seams.find("halfback::net::Link::send", "enqueue", "src/net/link.cpp"),
      0u);
  EXPECT_EQ(seams.find("halfback::net::Link::send", "dequeue",
                       "src/net/link.cpp"),
            seams.entries.size());
}

TEST(SeamInventory, MalformedLineFailsTheParse) {
  lint::SeamInventory seams;
  std::string error;
  EXPECT_FALSE(lint::SeamInventory::parse("just_one_field\n", seams, error));
  EXPECT_FALSE(error.empty());
}

TEST(SeamInventory, StaleSeamEntryIsAHotPathFinding) {
  lint::SeamInventory seams;
  std::string error;
  ASSERT_TRUE(lint::SeamInventory::parse(
      "halfback::net::Link::send enqueue src/net/gone.cpp devirtualized\n",
      seams, error))
      << error;
  const auto model = model_of({
      {"src/net/quiet.h", "#pragma once\n"},
  });
  const auto findings =
      lint::lint_model(model, std::move(seams), "hot_path_reach");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].path, "tools/lint/hot_seams.txt");
  EXPECT_NE(findings[0].message.find("stale seam entry"), std::string::npos)
      << findings[0].message;
}

// ---- green fixtures and the live tree --------------------------------------

TEST(CleanFixture, AnalyzesCleanAcrossAllRules) {
  const auto findings = analyze_fixture("clean");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(Registry, EveryModelRuleHasAStableIdAndDescription) {
  // The whole-tree rules run after the per-file ones, in this order.
  std::vector<std::string_view> ids;
  for (const auto& rule : lint::all_rules()) {
    if (dynamic_cast<const lint::FileRule*>(rule.get()) != nullptr) {
      EXPECT_TRUE(ids.empty()) << rule->id() << " runs after a model rule";
      continue;
    }
    EXPECT_FALSE(rule->description().empty());
    ids.push_back(rule->id());
  }
  EXPECT_EQ(ids, (std::vector<std::string_view>{
                     "layering", "hot_path_reach", "rng_taint", "effects",
                     "sim_escape"}));
}

TEST(Model, LiveTreeBuildsAndSeesTheHotPathRoots) {
  const auto model = lint::ProjectModel::build(repo_root());
  ASSERT_FALSE(model.files().empty());
  bool saw_fire_override = false;
  bool saw_link_send = false;
  for (const lint::FunctionDef& fn : model.functions()) {
    if (fn.is_fire_override &&
        model.file(fn.file).path().starts_with("src/")) {
      saw_fire_override = true;
    }
    if (fn.name == "send" && fn.class_name == "Link") saw_link_send = true;
  }
  EXPECT_TRUE(saw_fire_override);
  EXPECT_TRUE(saw_link_send);
  // The factory seam's one virtual is inventoried for the dispatch check.
  bool saw_sender_virtual = false;
  for (const lint::VirtualMethod& vm : model.virtual_methods()) {
    if (vm.name == "on_packet" && vm.class_name == "SenderBase") {
      saw_sender_virtual = true;
    }
  }
  EXPECT_TRUE(saw_sender_virtual);
  // The sanctioned observability edges are present and dashed in the dot.
  const std::string dot = model.layer_graph_dot();
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Model, LayerGraphDotIsByteDeterministic) {
  // CI publishes the dot; two builds over the same tree must serialize to
  // the identical byte sequence (ordered containers end to end — no
  // pointer-keyed or hash-ordered iteration may leak into the output).
  const auto first = lint::ProjectModel::build(repo_root());
  const auto second = lint::ProjectModel::build(repo_root());
  EXPECT_EQ(first.layer_graph_dot(), second.layer_graph_dot());
}

TEST(Model, EveryLiveContractBindsToAModeledDefinition) {
  // A contract whose qualified name matches no definition checks nothing —
  // legal for pure-virtual interfaces, but the live annotation surface is
  // all concrete functions, so an unbound contract here means a rename or
  // a parser regression silently disabled verification.
  const auto model = lint::ProjectModel::build(repo_root());
  ASSERT_GE(model.contracts().size(), 40u)
      << "the HB_EFFECTS annotation surface shrank unexpectedly";
  std::set<std::string_view> defined;
  for (const lint::FunctionDef& fn : model.functions()) {
    defined.insert(fn.qualified);
  }
  for (const lint::EffectContract& contract : model.contracts()) {
    EXPECT_TRUE(defined.contains(contract.qualified))
        << "contract on '" << contract.qualified << "' ("
        << model.file(contract.file).path() << ":" << contract.line
        << ") matches no modeled definition";
  }
}

TEST(Tree, LiveTreeAnalyzesCleanAgainstEmptyBaselineAndAllowlist) {
  // The teeth of the whole-tree rules: a new upward include, hot-path
  // allocation, hidden global, or ambient-seeded RNG anywhere in the
  // repository fails here with the full finding text, mirroring the
  // `lint-halfback` build target. There is no baseline or allowlist any
  // more, so clean means zero findings; the only escape hatch is the inline
  // "// lint: <tag>(reason)" comment.
  const auto model = lint::ProjectModel::build(repo_root());
  std::vector<lint::Finding> findings;
  for (const auto& rule : lint::all_rules(lint::load_seams(repo_root()))) {
    if (dynamic_cast<const lint::FileRule*>(rule.get()) != nullptr) continue;
    rule->check(model, findings);
  }
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

}  // namespace
