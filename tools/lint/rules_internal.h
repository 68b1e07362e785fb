// Factories for the individual rules, consumed by the registry in
// rules.cpp. One translation unit per rule keeps each rule reviewable in
// isolation and its fixture test discoverable by name.
#pragma once

#include <memory>

#include "rules.h"

namespace halfback::lint {

// Per-file rules (rule_*.cpp).
std::unique_ptr<Rule> make_nondeterminism_rule();
std::unique_ptr<Rule> make_unordered_iteration_rule();
std::unique_ptr<Rule> make_raw_unit_type_rule();
std::unique_ptr<Rule> make_naked_new_delete_rule();
std::unique_ptr<Rule> make_uninitialized_member_rule();
std::unique_ptr<Rule> make_pragma_once_rule();
std::unique_ptr<Rule> make_hot_path_function_rule();
std::unique_ptr<Rule> make_noexcept_fire_rule();
std::unique_ptr<Rule> make_stdout_accounting_rule();

// Whole-tree rules (arule_*.cpp).
std::unique_ptr<Rule> make_layering_rule();
std::unique_ptr<Rule> make_hot_path_reach_rule(SeamInventory seams);
std::unique_ptr<Rule> make_rng_taint_rule();
std::unique_ptr<Rule> make_effects_rule(SeamInventory seams);
std::unique_ptr<Rule> make_sim_escape_rule();

/// Shared token-scan helpers.
namespace scan {

/// True when code()[i] exists and equals an identifier `text`.
bool ident_at(const std::vector<Token>& code, std::size_t i, std::string_view text);

/// True when code()[i] exists and is punctuation `text`.
bool punct_at(const std::vector<Token>& code, std::size_t i, std::string_view text);

/// Index just past a balanced <...> opening at `i` (code[i] must be "<");
/// returns i when the angle brackets never close (malformed input).
std::size_t skip_angles(const std::vector<Token>& code, std::size_t i);

/// Index just past a balanced (...) / {...} / [...] group opening at `i`.
std::size_t skip_group(const std::vector<Token>& code, std::size_t i,
                       std::string_view open, std::string_view close);

}  // namespace scan

}  // namespace halfback::lint
