// halfback-lint: the project's static analysis — determinism, unit safety,
// layering, hot-path purity, effect contracts and simulator escape — over
// one model of the tree.
//
//   halfback-lint --root <repo>     lint the tree (every rule, one stream)
//   --rule <id>                     run a single rule
//   --list-rules                    print the rule table and exit
//   --dot <file>                    also write the layer include graph
//                                   (Graphviz)
//   --effects <prefix>              print the inferred effect set of every
//                                   function whose qualified name starts
//                                   with <prefix> and exit (annotation aid)
//
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "effects.h"
#include "rules.h"

namespace {

using namespace halfback::lint;

struct Options {
  std::filesystem::path root = ".";
  std::string only_rule;
  std::string dot_path;
  std::string effects_prefix;
  bool dump_effects = false;
  bool list_rules = false;
};

int usage(std::ostream& out, int code) {
  out << "usage: halfback-lint --root <repo> [--rule <id>] [--dot <file>]\n"
         "       halfback-lint --root <repo> --effects "
         "<qualified-name-prefix>\n"
         "       halfback-lint --list-rules\n";
  return code;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string& into) {
      if (i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    std::string root_value;
    if (arg == "--root") {
      if (!value(root_value)) return false;
      opts.root = root_value;
    } else if (arg == "--rule") {
      if (!value(opts.only_rule)) return false;
    } else if (arg == "--dot") {
      if (!value(opts.dot_path)) return false;
    } else if (arg == "--effects") {
      if (!value(opts.effects_prefix)) return false;
      opts.dump_effects = true;
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage(std::cerr, 2);

  const auto rules = all_rules();
  if (opts.list_rules) {
    for (const auto& rule : rules) {
      std::cout << rule->id() << "\n    " << rule->description();
      if (!rule->suppression_tag().empty()) {
        std::cout << "\n    suppression: // lint: " << rule->suppression_tag()
                  << "(reason)";
      }
      std::cout << "\n";
    }
    return 0;
  }
  if (!opts.only_rule.empty() &&
      std::none_of(rules.begin(), rules.end(), [&](const auto& rule) {
        return rule->id() == opts.only_rule;
      })) {
    std::cerr << "halfback-lint: unknown rule '" << opts.only_rule
              << "' (see --list-rules)\n";
    return 2;
  }
  // A mistyped --root would otherwise model an empty tree and pass.
  if (!std::filesystem::is_directory(opts.root / "src")) {
    std::cerr << "halfback-lint: no src/ directory under " << opts.root
              << "\n";
    return 2;
  }

  std::vector<Finding> findings;
  std::string dot;
  try {
    SeamInventory seams = load_seams(opts.root);
    const ProjectModel model = ProjectModel::build(opts.root);
    if (opts.dump_effects) {
      // Annotation aid: inferred effect set per matching function, in
      // symbol-table order (deterministic: directory scan is sorted).
      const EffectAnalysis analysis{model, seams};
      for (std::size_t i = 0; i < model.functions().size(); ++i) {
        const FunctionDef& fn = model.functions()[i];
        if (!fn.qualified.starts_with(opts.effects_prefix)) continue;
        std::cout << fn.qualified << " [" << analysis.of(i).to_string()
                  << "] " << model.file(fn.file).path() << ":" << fn.line
                  << "\n";
      }
      return 0;
    }
    findings = lint_model(model, std::move(seams), opts.only_rule);
    if (!opts.dot_path.empty()) dot = model.layer_graph_dot();
  } catch (const std::exception& e) {
    std::cerr << "halfback-lint: " << e.what() << "\n";
    return 2;
  }

  if (!opts.dot_path.empty()) {
    std::ofstream out{opts.dot_path};
    out << dot;
    out.close();
    if (!out) {
      std::cerr << "halfback-lint: cannot write " << opts.dot_path << "\n";
      return 2;
    }
  }

  for (const Finding& f : findings) {
    std::cout << f.path << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (findings.empty()) {
    std::cout << "halfback-lint: clean\n";
  } else {
    std::cout << "halfback-lint: " << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}
