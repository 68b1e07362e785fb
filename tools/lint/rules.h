// Rule framework: a Finding, the Rule interface, the registry of all
// project rules, and the sweep that runs them over a ProjectModel. Rule
// semantics are documented in docs/static-analysis.md; tests/lint/ pins each
// rule's behaviour on fixture files and fixture trees.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model.h"
#include "seams.h"

namespace halfback::lint {

struct Finding {
  std::string rule;     ///< rule id, e.g. "nondeterminism"
  std::string path;     ///< logical (repo-relative) path
  int line = 0;
  std::string message;

  bool operator==(const Finding&) const = default;
};

class Rule {
 public:
  virtual ~Rule() = default;

  /// Stable id used in output and `--rule` filters.
  virtual std::string_view id() const = 0;

  /// One-line description for `--list-rules`.
  virtual std::string_view description() const = 0;

  /// The suppression tag that silences this rule on a line ("" = none).
  virtual std::string_view suppression_tag() const = 0;

  /// Append findings for the tree. A rule may follow an include edge or a
  /// call chain across translation units.
  virtual void check(const ProjectModel& model,
                     std::vector<Finding>& out) const = 0;

 protected:
  /// Emit unless the site carries this rule's suppression tag: a
  /// "// lint: <tag>(reason)" comment on the line or the line above.
  void report(const SourceFile& file, int line, std::string message,
              std::vector<Finding>& out) const;
  void report(const ProjectModel& model, std::size_t file, int line,
              std::string message, std::vector<Finding>& out) const {
    report(model.file(file), line, std::move(message), out);
  }
};

/// A rule that reads one file at a time. check() hands it every src/ file
/// of the model; the rule may narrow its scope further from file.path()
/// (headers only, specific directories, annotated files).
class FileRule : public Rule {
 public:
  void check(const ProjectModel& model,
             std::vector<Finding>& out) const final;

  virtual void check_file(const SourceFile& file,
                          std::vector<Finding>& out) const = 0;
};

/// All rules in the order they run and print: the per-file rules, then the
/// whole-tree rules. hot_path_reach and effects share `seams`.
std::vector<std::unique_ptr<Rule>> all_rules(SeamInventory seams = {});

/// Run every rule (or just `only_rule`, when nonempty) over `model`.
/// Findings are ordered rule by rule, each rule's sorted by (path, line,
/// message).
std::vector<Finding> lint_model(const ProjectModel& model,
                                SeamInventory seams = {},
                                std::string_view only_rule = {});

/// Build the model of `root` and lint it against root's seam inventory.
/// Throws std::runtime_error on I/O or parse errors.
std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               std::string_view only_rule = {});

}  // namespace halfback::lint
