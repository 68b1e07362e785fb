// Rule "unordered-iteration": iterating an unordered container visits
// elements in hash-table order, which varies with load factor, libstdc++
// version, and insertion history — anything emitted from such a loop into a
// trace, a hash, or a results vector silently breaks bit-identical
// reproducibility. In the trace-hashed directories (src/exp, src/stats,
// src/audit) every range-for or .begin() over a variable declared with an
// unordered type must either go away or carry a "// lint: ordered-ok"
// justification explaining why order cannot reach any output.
#include <array>
#include <set>
#include <string>
#include <string_view>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;
using scan::skip_angles;

constexpr std::array<std::string_view, 4> kUnorderedTypes{
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

bool is_unordered_type_name(std::string_view t) {
  for (std::string_view u : kUnorderedTypes) {
    if (t == u) return true;
  }
  return false;
}

class UnorderedIterationRule final : public FileRule {
 public:
  std::string_view id() const override { return "unordered-iteration"; }
  std::string_view description() const override {
    return "no iteration over unordered containers in trace-hashed paths "
           "(src/exp, src/stats, src/audit) without '// lint: ordered-ok'";
  }
  std::string_view suppression_tag() const override { return "ordered-ok"; }

  void check_file(const SourceFile& file, std::vector<Finding>& out) const override {
    if (!file.in_any_dir({"src/exp/", "src/stats/", "src/audit/"})) return;
    const auto& code = file.code();

    // Pass 1: names declared with an unordered type anywhere in this file
    // (members, locals, parameters). `std::unordered_map<K, V> name` — skip
    // the template arguments, then optional &/*, then the declared name.
    std::set<std::string> unordered_names;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i].kind != TokenKind::identifier ||
          !is_unordered_type_name(code[i].text)) {
        continue;
      }
      std::size_t j = i + 1;
      if (!punct_at(code, j, "<")) continue;
      const std::size_t past = skip_angles(code, j);
      if (past == j) continue;
      j = past;
      while (punct_at(code, j, "&") || punct_at(code, j, "*") ||
             ident_at(code, j, "const")) {
        ++j;
      }
      if (j < code.size() && code[j].kind == TokenKind::identifier) {
        unordered_names.insert(code[j].text);
      }
    }
    if (unordered_names.empty()) return;

    // Pass 2a: range-for whose range expression mentions one of the names.
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (!ident_at(code, i, "for") || !punct_at(code, i + 1, "(")) continue;
      const std::size_t past = scan::skip_group(code, i + 1, "(", ")");
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < past; ++j) {
        if (punct_at(code, j, "(")) ++depth;
        else if (punct_at(code, j, ")")) --depth;
        else if (depth == 1 && punct_at(code, j, ":")) { colon = j; break; }
      }
      if (colon == 0) continue;  // a classic for loop
      for (std::size_t j = colon + 1; j < past; ++j) {
        if (code[j].kind == TokenKind::identifier &&
            unordered_names.contains(code[j].text)) {
          report(file, code[i].line,
                 "range-for over unordered container '" + code[j].text +
                     "' — hash-table order is not deterministic across "
                     "builds; iterate a sorted view or justify with "
                     "'// lint: ordered-ok(reason)'",
                 out);
          break;
        }
      }
    }

    // Pass 2b: explicit iterator walks: name.begin() / cbegin / rbegin.
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
      if (code[i].kind != TokenKind::identifier ||
          !unordered_names.contains(code[i].text)) {
        continue;
      }
      if (!punct_at(code, i + 1, ".") && !punct_at(code, i + 1, "->")) continue;
      const std::string_view m = code[i + 2].text;
      if (m == "begin" || m == "cbegin" || m == "rbegin" || m == "crbegin") {
        report(file, code[i].line,
               "iterator walk over unordered container '" + code[i].text +
                   "' — hash-table order is not deterministic across builds",
               out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_unordered_iteration_rule() {
  return std::make_unique<UnorderedIterationRule>();
}

}  // namespace halfback::lint
