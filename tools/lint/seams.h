// The sanctioned-seam inventory (tools/lint/hot_seams.txt): the one config
// file of the analyzer. Both cross-TU engines read it — hot_path_reach skips
// (and usage-tracks) the sanctioned virtual calls, and the effect engine
// stops effect propagation at the same call sites — so one file enumerates
// every tolerated indirection on the packet path.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace halfback::lint {

/// One sanctioned hot-path indirection: a virtual (or otherwise indirect)
/// call the static-dispatch contract tolerates, named by caller, callee
/// and file so the inventory enumerates the complete set of seams.
struct SeamEntry {
  std::string caller;  ///< qualified caller, e.g. "halfback::net::Link::send"
  std::string callee;  ///< unqualified callee name, e.g. "enqueue"
  std::string path;    ///< repo-relative file holding the call site
  std::string justification;  ///< required: why this indirection is allowed
  int source_line = 0;        ///< line in the inventory file (diagnostics)
};

/// An entry no seam matches is itself a hot_path_reach finding, so the file
/// cannot go stale silently.
struct SeamInventory {
  std::vector<SeamEntry> entries;

  /// Entry lines read `<caller-qualified> <callee> <path> <justification>`;
  /// '#' starts a comment. Malformed lines fail the parse.
  static bool parse(const std::string& text, SeamInventory& out,
                    std::string& error);

  /// Index of the entry sanctioning `caller` -> `callee` in `path`, or
  /// entries.size() when no entry matches.
  std::size_t find(std::string_view caller, std::string_view callee,
                   std::string_view path) const;
};

/// Load root/tools/lint/hot_seams.txt (a missing file yields an empty
/// inventory). Throws std::runtime_error on I/O or parse errors.
SeamInventory load_seams(const std::filesystem::path& root);

}  // namespace halfback::lint
