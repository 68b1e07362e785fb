#include "seams.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace halfback::lint {

bool SeamInventory::parse(const std::string& text, SeamInventory& out,
                          std::string& error) {
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields{line};
    SeamEntry entry;
    fields >> entry.caller >> entry.callee >> entry.path;
    if (entry.caller.empty() || entry.callee.empty() || entry.path.empty()) {
      error = "seam inventory line " + std::to_string(line_no) +
              ": expected '<caller-qualified> <callee> <path> "
              "<justification>', got: " +
              line;
      return false;
    }
    std::getline(fields, entry.justification);
    const std::size_t start = entry.justification.find_first_not_of(" \t");
    entry.justification = start == std::string::npos
                              ? std::string{}
                              : entry.justification.substr(start);
    entry.source_line = line_no;
    out.entries.push_back(std::move(entry));
  }
  return true;
}

std::size_t SeamInventory::find(std::string_view caller,
                                std::string_view callee,
                                std::string_view path) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].caller == caller && entries[i].callee == callee &&
        entries[i].path == path) {
      return i;
    }
  }
  return entries.size();
}

SeamInventory load_seams(const std::filesystem::path& root) {
  SeamInventory seams;
  const std::filesystem::path path = root / "tools" / "lint" / "hot_seams.txt";
  if (!std::filesystem::exists(path)) return seams;
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path.string()};
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  if (!SeamInventory::parse(std::move(text).str(), seams, error)) {
    throw std::runtime_error{error};
  }
  return seams;
}

}  // namespace halfback::lint
