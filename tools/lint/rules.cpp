#include "rules.h"

#include <algorithm>
#include <tuple>

#include "rules_internal.h"

namespace halfback::lint {

void Rule::report(const SourceFile& file, int line, std::string message,
                  std::vector<Finding>& out) const {
  const std::string_view tag = suppression_tag();
  if (!tag.empty() && file.suppressed(line, tag)) return;
  out.push_back(Finding{std::string{id()}, file.path(), line, std::move(message)});
}

void FileRule::check(const ProjectModel& model,
                     std::vector<Finding>& out) const {
  for (const SourceFile& file : model.files()) {
    if (file.path().starts_with("src/")) check_file(file, out);
  }
}

std::vector<std::unique_ptr<Rule>> all_rules(SeamInventory seams) {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(make_nondeterminism_rule());
  rules.push_back(make_unordered_iteration_rule());
  rules.push_back(make_raw_unit_type_rule());
  rules.push_back(make_naked_new_delete_rule());
  rules.push_back(make_uninitialized_member_rule());
  rules.push_back(make_pragma_once_rule());
  rules.push_back(make_hot_path_function_rule());
  rules.push_back(make_noexcept_fire_rule());
  rules.push_back(make_stdout_accounting_rule());
  rules.push_back(make_layering_rule());
  rules.push_back(make_hot_path_reach_rule(seams));
  rules.push_back(make_rng_taint_rule());
  rules.push_back(make_effects_rule(std::move(seams)));
  rules.push_back(make_sim_escape_rule());
  return rules;
}

std::vector<Finding> lint_model(const ProjectModel& model, SeamInventory seams,
                                std::string_view only_rule) {
  std::vector<Finding> findings;
  for (const auto& rule : all_rules(std::move(seams))) {
    if (!only_rule.empty() && rule->id() != only_rule) continue;
    std::vector<Finding> rule_findings;
    rule->check(model, rule_findings);
    std::sort(rule_findings.begin(), rule_findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.path, a.line, a.message) <
                       std::tie(b.path, b.line, b.message);
              });
    findings.insert(findings.end(),
                    std::make_move_iterator(rule_findings.begin()),
                    std::make_move_iterator(rule_findings.end()));
  }
  return findings;
}

std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               std::string_view only_rule) {
  SeamInventory seams = load_seams(root);
  return lint_model(ProjectModel::build(root), std::move(seams), only_rule);
}

namespace scan {

bool ident_at(const std::vector<Token>& code, std::size_t i, std::string_view text) {
  return i < code.size() && code[i].kind == TokenKind::identifier &&
         code[i].text == text;
}

bool punct_at(const std::vector<Token>& code, std::size_t i, std::string_view text) {
  return i < code.size() && code[i].kind == TokenKind::punct && code[i].text == text;
}

std::size_t skip_angles(const std::vector<Token>& code, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (punct_at(code, j, "<")) ++depth;
    else if (punct_at(code, j, ">")) {
      if (--depth == 0) return j + 1;
    } else if (punct_at(code, j, ";")) {
      break;  // statement ended without closing: not a template argument list
    }
  }
  return i;
}

std::size_t skip_group(const std::vector<Token>& code, std::size_t i,
                       std::string_view open, std::string_view close) {
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (punct_at(code, j, open)) ++depth;
    else if (punct_at(code, j, close)) {
      if (--depth == 0) return j + 1;
    }
  }
  return code.size();
}

}  // namespace scan
}  // namespace halfback::lint
