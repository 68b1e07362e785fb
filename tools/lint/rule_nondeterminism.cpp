// Rule "nondeterminism": bans wall-clock and ambient-randomness sources in
// src/. Every run must be a pure function of its seed, so the only
// randomness source is sim::Random (which is itself the one exempt file)
// and the only clock is sim::Simulator::now().
#include <array>
#include <string_view>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::punct_at;

// Functions whose *call* is banned: flagged as `name(`, unqualified or
// std-qualified, but not as a member call (`obj.time(...)` is somebody's
// accessor, not <ctime>).
constexpr std::array<std::string_view, 10> kBannedCalls{
    "rand",   "srand",         "rand_r", "drand48",      "lrand48",
    "random", "gettimeofday",  "time",   "clock_gettime", "clock",
};

// Types whose very mention is banned, however qualified.
constexpr std::array<std::string_view, 4> kBannedTypes{
    "random_device", "system_clock", "steady_clock", "high_resolution_clock"};

class NondeterminismRule final : public FileRule {
 public:
  std::string_view id() const override { return "nondeterminism"; }
  std::string_view description() const override {
    return "no wall clocks or ambient randomness in src/ (use sim::Random / "
           "Simulator::now)";
  }
  std::string_view suppression_tag() const override { return "nondet-ok"; }

  void check_file(const SourceFile& file, std::vector<Finding>& out) const override {
    if (file.path() == "src/sim/random.h" || file.path() == "src/sim/random.cpp")
      return;  // the one place std <random> engines may live

    const auto& code = file.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i].kind != TokenKind::identifier) continue;
      const std::string_view name = code[i].text;

      for (std::string_view banned : kBannedTypes) {
        if (name == banned) {
          report(file, code[i].line,
                 "nondeterministic source '" + code[i].text +
                     "' — derive randomness from sim::Random and time from "
                     "Simulator::now()",
                 out);
        }
      }

      for (std::string_view banned : kBannedCalls) {
        if (name != banned || !punct_at(code, i + 1, "(")) continue;
        if (member_access_before(code, i)) continue;     // obj.time(...)
        if (non_std_qualified_before(code, i)) continue; // other::time(...)
        if (declaration_before(code, i)) continue;       // Random& random()
        report(file, code[i].line,
               "call to nondeterministic '" + code[i].text +
                   "()' — a run must be a pure function of its seed",
               out);
      }
    }
  }

 private:
  static bool member_access_before(const std::vector<Token>& code, std::size_t i) {
    return i > 0 && (punct_at(code, i - 1, ".") || punct_at(code, i - 1, "->"));
  }

  // `Random& random() { ... }` is a declaration of somebody's accessor, not
  // a call to ::random(). A declaration is preceded by its return type — an
  // identifier, `&`, `*`, or a closing `>` — whereas a call site is preceded
  // by an operator, `(`, `,`, or a statement keyword like `return`.
  static bool declaration_before(const std::vector<Token>& code, std::size_t i) {
    if (i == 0) return true;  // file starts with `name(` — not a call
    const Token& prev = code[i - 1];
    if (prev.kind == TokenKind::punct)
      return prev.text == "&" || prev.text == "*" || prev.text == ">";
    if (prev.kind != TokenKind::identifier) return false;
    constexpr std::array<std::string_view, 8> kStatementKeywords{
        "return", "co_return", "co_await", "co_yield",
        "throw",  "case",      "else",     "do"};
    for (std::string_view kw : kStatementKeywords) {
      if (prev.text == kw) return false;
    }
    return true;  // `std::uint64_t time(...)`, `virtual double random()`, ...
  }

  static bool non_std_qualified_before(const std::vector<Token>& code,
                                       std::size_t i) {
    if (i == 0 || !punct_at(code, i - 1, "::")) return false;
    return !(i >= 2 && scan::ident_at(code, i - 2, "std"));
  }
};

}  // namespace

std::unique_ptr<Rule> make_nondeterminism_rule() {
  return std::make_unique<NondeterminismRule>();
}

}  // namespace halfback::lint
