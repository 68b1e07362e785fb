// The cross-translation-unit project model every halfback-lint rule runs
// over.
//
// The per-file rules (FileRule, rules.h) read one file at a time; the
// whole-program contracts — layering, transitive hot-path purity, simulator
// escape, seed-derived randomness — need a view of the tree. The
// ProjectModel is that view: every source file tokenized once, plus
//
//   * an include graph (file -> file edges, resolved against the tree),
//   * a symbol table of function definitions with per-body evidence
//     (allocations, throws, std::function construction, container growth),
//   * a best-effort call graph (callee names resolved to definitions, with
//     class-qualifier filtering),
//   * an inventory of namespace-scope variables and function-local statics,
//   * every RNG construction site with its argument tokens,
//   * every member function declared virtual (the hot-path rule's
//     virtual-dispatch check resolves member calls against this table).
//
// "Best effort" is a design point, not an apology: the model is built by
// the same zero-dependency tokenizer as the linter (no libclang), so calls
// through std::function / function pointers are invisible and overload sets
// collapse to name matches. The rules on top (rules.h) are written so
// that blindness makes them miss findings, never invent them.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "source_file.h"

namespace halfback::lint {

/// One resolved `#include "..."` edge between files in the model.
struct IncludeEdge {
  std::size_t from = 0;  ///< index into files()
  std::size_t to = 0;    ///< index into files()
  int line = 0;
};

/// What a function body does that the hot-path and effect contracts care
/// about. The first five kinds are the original hot-path evidence; the
/// rest are leaf witnesses for the effect-inference engine (effects.h).
enum class EvidenceKind {
  naked_new,           ///< `new` expression
  alloc_call,          ///< make_unique/make_shared/malloc/...
  container_growth,    ///< member .push_back/.insert/.resize/...
  throw_stmt,          ///< throw expression
  function_construct,  ///< std::function mentioned in a body
  clock_call,          ///< wall-clock read (steady_clock::now, gettimeofday)
  rng_call,            ///< RNG construction or draw (uniform/bernoulli/...)
  io_call,             ///< ambient I/O (fopen, printf, fstream, getenv)
  blocking_call,       ///< lock/join/wait/sleep or a scoped-lock guard
  global_write,        ///< mutable static declared or assigned in the body
};

std::string_view to_string(EvidenceKind kind);

/// True for the five kinds the hot-path wire contract polices (the effect
/// kinds added later must not widen that rule's findings).
bool is_hot_path_evidence(EvidenceKind kind);

struct Evidence {
  EvidenceKind kind;
  int line = 0;
  std::string detail;  ///< the offending token, e.g. "make_unique"
};

/// A member function declared `virtual` (or `override`, which implies a
/// virtual base) — declarations count, bodies are not required, so pure
/// virtuals are inventoried too. Input to the hot-path virtual-dispatch
/// check: a member call whose name appears here may dispatch virtually.
struct VirtualMethod {
  std::string name;        ///< unqualified, e.g. "on_packet"
  std::string class_name;  ///< declaring class, best effort
  std::size_t file = 0;    ///< index into files()
  int line = 0;
};

/// A call site inside a function body.
struct CallSite {
  std::string callee;     ///< unqualified name, e.g. "enqueue"
  std::string qualifier;  ///< "Link", "std", "<member>" (obj./ptr->), or ""
  int line = 0;
};

/// A bare identifier the body assigns to (`x = ...`, `x += ...`, `x++`).
/// Object- or scope-qualified writes are excluded; the effect engine
/// intersects these names with the namespace-scope global inventory to
/// derive the global_mut effect, so local shadows filter out there.
struct WriteSite {
  std::string name;
  int line = 0;
};

/// One function definition (a body was seen, not just a declaration).
struct FunctionDef {
  std::string name;        ///< unqualified, e.g. "fire"
  std::string qualified;   ///< best effort, e.g. "net::Link::send"
  std::string class_name;  ///< enclosing (or declarator-qualifying) class
  std::size_t file = 0;    ///< index into files()
  int line = 0;
  bool is_fire_override = false;
  /// How many parameters are `Simulator&` / `Simulator*`. Two or more on
  /// one signature is a cross-instance bridge (sim_escape rule).
  int simulator_params = 0;
  std::vector<CallSite> calls;
  std::vector<WriteSite> writes;
  std::vector<Evidence> evidence;
};

/// A declared HB_EFFECTS(...) contract. Contracts attach to declarations
/// as well as definitions (the macro sits between the parameter list and
/// the body/semicolon), keyed by the same qualified-name scheme as
/// FunctionDef::qualified so header contracts meet .cpp bodies.
struct EffectContract {
  std::string qualified;              ///< e.g. "halfback::net::Link::send"
  std::vector<std::string> declared;  ///< effect tokens, e.g. {"alloc","throw"}
  std::size_t file = 0;
  int line = 0;
};

/// A variable with static storage duration recorded with its declared type
/// tokens (sim_escape rule input). Unlike GlobalVar this includes `const`
/// variables — a `static const Simulator*` cache is exactly the bug the
/// escape analysis exists to catch — but still excludes `constexpr`.
struct StaticDecl {
  std::string name;
  std::string qualified;       ///< namespace-qualified, best effort
  std::string type_text;       ///< declared type tokens, space-joined
  std::size_t file = 0;
  int line = 0;
  bool is_local_static = false;
  bool is_const = false;
};

/// A data member declaration inside a class in src/ (sim_escape rule
/// input: counts Simulator-typed members, flags non-owning handles).
struct MemberDecl {
  std::string class_name;
  std::string name;
  std::string type_text;  ///< declared type tokens, space-joined
  bool is_ref_or_ptr = false;
  std::size_t file = 0;
  int line = 0;
};

/// A ctor-init-list entry `member{args...}` retained with its class
/// context (sim_escape provenance check on Simulator-typed members).
struct MemberInit {
  std::string class_name;
  std::string member;
  std::vector<Token> args;
  std::size_t file = 0;
  int line = 0;
};

/// Mutable state with static storage duration (sim_escape rule input).
struct GlobalVar {
  std::string name;
  std::string qualified;  ///< namespace-qualified, best effort
  std::size_t file = 0;
  int line = 0;
  /// true: `static` local inside a function (includes singleton accessors);
  /// false: namespace-scope variable or static data member.
  bool is_local_static = false;
};

/// A construction of an RNG object (sim::Random or a <random> engine).
struct RngConstruction {
  std::string type_name;  ///< "Random", "mt19937_64", ... ("" for members
                          ///< initialized in a ctor-init-list)
  std::string var_name;   ///< the variable/member being constructed, if any
  std::size_t file = 0;
  int line = 0;
  bool default_constructed = false;
  std::vector<Token> args;  ///< constructor argument tokens
};

class ProjectModel {
 public:
  /// Build the model for a tree: every *.h / *.cpp under root/{src,bench,
  /// examples,tests,tools}, except tests/lint/fixtures (deliberately broken
  /// inputs). Throws std::runtime_error when a file cannot be read.
  static ProjectModel build(const std::filesystem::path& root);

  /// In-memory construction for tests: add files, then finalize().
  void add_file(SourceFile file);

  /// Resolve include edges, the call graph, and the RNG member-init sites.
  /// Must be called once, after the last add_file().
  void finalize();

  const std::vector<SourceFile>& files() const { return files_; }
  const SourceFile& file(std::size_t i) const { return files_[i]; }
  std::optional<std::size_t> file_index(std::string_view path) const;

  const std::vector<IncludeEdge>& includes() const { return includes_; }
  const std::vector<FunctionDef>& functions() const { return functions_; }
  const std::vector<GlobalVar>& globals() const { return globals_; }
  const std::vector<RngConstruction>& rng_sites() const { return rng_sites_; }
  const std::vector<VirtualMethod>& virtual_methods() const {
    return virtual_methods_;
  }
  const std::vector<EffectContract>& contracts() const { return contracts_; }
  const std::vector<StaticDecl>& static_decls() const { return static_decls_; }
  const std::vector<MemberDecl>& member_decls() const { return member_decls_; }
  const std::vector<MemberInit>& member_inits() const { return member_inits_; }

  /// Names of classes/structs defined under src/ (sim_escape uses this to
  /// decide whether a static's type points into the simulation).
  const std::vector<std::string>& src_classes() const { return src_classes_; }

  /// Call graph: call_edges()[f] are indices into functions() that the
  /// body of functions()[f] may call (name-resolved, qualifier-filtered).
  const std::vector<std::vector<std::size_t>>& call_edges() const {
    return call_edges_;
  }

  /// Resolve one call site of functions()[caller] to candidate definitions
  /// (the same name-and-qualifier matching that builds call_edges, exposed
  /// per-callsite so the effect engine can cut propagation at sanctioned
  /// seams without losing the rest of the body's edges).
  std::vector<std::size_t> resolve_call(std::size_t caller,
                                        const CallSite& call) const;

  /// The layer a path belongs to: "sim", "net", ... for src/<dir>/...;
  /// "bench", "tests", "examples", "tools" for the top-level dirs; "" when
  /// the path fits no layer.
  static std::string layer_of(std::string_view path);

  /// Graphviz digraph of the layer-level include graph (edges aggregated
  /// from file-level edges, labeled with counts; the sanctioned
  /// observability-interface edges are drawn dashed).
  std::string layer_graph_dot() const;

  /// True when `to` (a repo-relative header path) is one of the sanctioned
  /// observability interface headers that any src/ layer may include (the
  /// audit hook and the telemetry probe surface; see docs/static-analysis.md).
  static bool is_interface_header(std::string_view to);

 private:
  void parse_file(std::size_t index);
  void resolve_includes();
  void resolve_calls();
  void build_name_index();

  std::vector<SourceFile> files_;
  std::map<std::string, std::size_t, std::less<>> path_index_;
  std::vector<IncludeEdge> includes_;
  std::vector<FunctionDef> functions_;
  std::vector<GlobalVar> globals_;
  std::vector<RngConstruction> rng_sites_;
  std::vector<VirtualMethod> virtual_methods_;
  std::vector<EffectContract> contracts_;
  std::vector<StaticDecl> static_decls_;
  std::vector<MemberDecl> member_decls_;
  std::vector<MemberInit> member_inits_;
  std::vector<std::string> src_classes_;
  std::vector<std::vector<std::size_t>> call_edges_;
  /// Definitions by unqualified name (built in finalize(), backs both
  /// resolve_calls() and the public per-callsite resolve_call()).
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name_;
  /// Ctor-init-list entries (member name -> construction), kept until
  /// finalize() knows which member names are RNG-typed.
  std::vector<std::pair<std::string, RngConstruction>> pending_member_inits_;
  std::vector<std::string> rng_member_names_;
};

}  // namespace halfback::lint
