// Rule "noexcept-fire": Event::fire overrides run inside the event loop's
// dispatch, where an escaping exception unwinds through the simulator and
// leaves queues, pools, and shadow state inconsistent. Overrides must be
// declared noexcept; the ones that intentionally forward user-supplied
// callbacks (which may throw in tests) say so with
// "// lint: fire-may-throw(reason)".
#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;

class NoexceptFireRule final : public FileRule {
 public:
  std::string_view id() const override { return "noexcept-fire"; }
  std::string_view description() const override {
    return "Event::fire overrides are noexcept or carry "
           "'// lint: fire-may-throw(reason)'";
  }
  std::string_view suppression_tag() const override { return "fire-may-throw"; }

  void check_file(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& code = file.code();
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
      if (!ident_at(code, i, "fire") || !punct_at(code, i + 1, "(") ||
          !punct_at(code, i + 2, ")")) {
        continue;
      }
      // Scan the declarator suffix up to the body / declaration end. Only
      // overrides are held to the contract: the pure-virtual base
      // declaration documents the interface, not an implementation.
      bool has_override = false;
      bool has_noexcept = false;
      for (std::size_t j = i + 3; j < code.size(); ++j) {
        if (punct_at(code, j, "{") || punct_at(code, j, ";") ||
            punct_at(code, j, "=")) {
          break;
        }
        has_override = has_override || ident_at(code, j, "override");
        has_noexcept = has_noexcept || ident_at(code, j, "noexcept");
      }
      if (has_override && !has_noexcept) {
        report(file, code[i].line,
               "fire() override is not noexcept — an exception escaping event "
               "dispatch corrupts simulator state; mark it noexcept or "
               "justify with '// lint: fire-may-throw(reason)'",
               out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_noexcept_fire_rule() {
  return std::make_unique<NoexceptFireRule>();
}

}  // namespace halfback::lint
