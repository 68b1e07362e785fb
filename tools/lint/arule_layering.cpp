// layering: enforce the layer DAG over the include graph.
//
// The architecture is a strict layering (DESIGN.md):
//
//   sim <- net <- {transport, schemes} <- {netfault} <- exp <- {bench, tests}
//
// with three sideline layers: workload and stats sit directly on sim;
// telemetry sits on stats/netfault/net/sim; audit sits on transport/net/sim.
// Lower layers must not include upward. The one sanctioned exception is the
// observability interface surface (ProjectModel::is_interface_header): the
// audit hook and the telemetry probe headers are designed to be includable
// from any src/ layer and themselves depend only on sim/stats, so the
// file-level graph stays acyclic — which this rule also proves, by
// rejecting any include cycle regardless of layers.
#include <map>
#include <set>
#include <sstream>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

/// allowed_targets(L): the layers L's files may include. Top-of-stack
/// consumers (exp, bench, tests, examples, tools) may include anything —
/// they are the wiring layers the DAG exists to protect everything below
/// from.
const std::set<std::string>* allowed_targets(const std::string& layer) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"sim", {"sim"}},
      {"workload", {"workload", "sim"}},
      {"stats", {"stats", "sim"}},
      {"net", {"net", "sim"}},
      {"transport", {"transport", "net", "sim"}},
      {"schemes", {"schemes", "transport", "net", "sim"}},
      {"netfault", {"netfault", "net", "sim"}},
      {"audit", {"audit", "transport", "net", "sim"}},
      {"telemetry", {"telemetry", "stats", "netfault", "net", "sim"}},
  };
  const auto it = kAllowed.find(layer);
  return it == kAllowed.end() ? nullptr : &it->second;
}

class LayeringRule final : public Rule {
 public:
  std::string_view id() const override { return "layering"; }
  std::string_view description() const override {
    return "include edges must follow the layer DAG and contain no cycles";
  }
  std::string_view suppression_tag() const override { return "layer-ok"; }

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const override {
    check_edges(model, out);
    check_cycles(model, out);
  }

 private:
  void check_edges(const ProjectModel& model,
                   std::vector<Finding>& out) const {
    for (const IncludeEdge& e : model.includes()) {
      const std::string& from_path = model.file(e.from).path();
      const std::string& to_path = model.file(e.to).path();
      const std::string from = ProjectModel::layer_of(from_path);
      const std::string to = ProjectModel::layer_of(to_path);
      if (from.empty() || to.empty()) continue;
      const std::set<std::string>* allowed = allowed_targets(from);
      if (allowed == nullptr) continue;  // exp, bench, tests, examples, tools
      if (allowed->contains(to)) continue;
      if (ProjectModel::is_interface_header(to_path)) continue;
      report(model, e.from, e.line,
             "layer '" + from + "' may not include " + to_path + " (layer '" +
                 to + "' is not below it in the layer DAG)",
             out);
    }
  }

  /// DFS over the file-level include graph; a back edge to a file on the
  /// current stack is a cycle. Each cycle is reported once, at the include
  /// that closes it, with the full path spelled out.
  void check_cycles(const ProjectModel& model,
                    std::vector<Finding>& out) const {
    const std::size_t n = model.files().size();
    std::vector<std::vector<const IncludeEdge*>> adj(n);
    for (const IncludeEdge& e : model.includes()) {
      adj[e.from].push_back(&e);
    }
    enum class Color { white, gray, black };
    std::vector<Color> color(n, Color::white);
    std::vector<std::size_t> stack;
    // Iterative DFS: (node, next child index) frames keep the gray stack
    // explicit so the cycle path can be read straight off it.
    for (std::size_t root = 0; root < n; ++root) {
      if (color[root] != Color::white) continue;
      std::vector<std::pair<std::size_t, std::size_t>> frames{{root, 0}};
      color[root] = Color::gray;
      stack.push_back(root);
      while (!frames.empty()) {
        auto& [node, child] = frames.back();
        if (child >= adj[node].size()) {
          color[node] = Color::black;
          stack.pop_back();
          frames.pop_back();
          continue;
        }
        const IncludeEdge* edge = adj[node][child++];
        if (color[edge->to] == Color::gray) {
          report_cycle(model, *edge, stack, out);
          continue;
        }
        if (color[edge->to] == Color::white) {
          color[edge->to] = Color::gray;
          stack.push_back(edge->to);
          frames.emplace_back(edge->to, 0);
        }
      }
    }
  }

  void report_cycle(const ProjectModel& model, const IncludeEdge& closing,
                    const std::vector<std::size_t>& stack,
                    std::vector<Finding>& out) const {
    std::ostringstream msg;
    msg << "include cycle: ";
    bool in_cycle = false;
    for (std::size_t node : stack) {
      if (node == closing.to) in_cycle = true;
      if (in_cycle) msg << model.file(node).path() << " -> ";
    }
    msg << model.file(closing.to).path();
    report(model, closing.from, closing.line, std::move(msg).str(), out);
  }
};

}  // namespace

std::unique_ptr<Rule> make_layering_rule() {
  return std::make_unique<LayeringRule>();
}

}  // namespace halfback::lint
