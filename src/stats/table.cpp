#include "stats/table.h"

#include <algorithm>
#include <cstdio>

namespace halfback::stats {

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      out += cell;
      if (i + 1 < widths.size()) out.append(widths[i] - cell.size() + 2, ' ');
    }
    out += '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) emit(row);
  return out;
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += csv_escape(row[i]);
    }
    out += '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out;
}

bool Table::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string csv = to_csv();
  const bool written = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

void print_series(const std::string& title, const std::string& x_label,
                  const std::string& y_label,
                  const std::vector<std::pair<double, double>>& points) {
  std::printf("# %s\n# %s\t%s\n", title.c_str(), x_label.c_str(), y_label.c_str());
  for (const auto& [x, y] : points) std::printf("%g\t%g\n", x, y);
  std::printf("\n");
}

}  // namespace halfback::stats
