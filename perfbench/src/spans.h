// In-memory span log for the traced run: one span per call the benchmark
// makes into a layer (schedule/path generation, runner or environment
// construction, the run call, the output check). Spans of one simulation
// run share its id; the log is written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    std::uint64_t run_id = 0;  ///< simulation run the span belongs to
    const char* layer = "";    ///< src/ module the call enters
    const char* name = "";
    double start_s = 0.0;  ///< seconds since the log was created
    double end_s = 0.0;
  };

  SpanLog() : origin_{Clock::now()} { spans_.reserve(1 << 14); }

  std::size_t begin(std::uint64_t run_id, const char* layer, const char* name) {
    spans_.push_back(Span{run_id, layer, name, now_s(), 0.0});
    return spans_.size() - 1;
  }
  void end(std::size_t index) { spans_[index].end_s = now_s(); }

  /// Summed duration of the spans with this name whose run id is in
  /// [first_run, end_run).
  double total_s(const std::string& name, std::uint64_t first_run,
                 std::uint64_t end_run) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name && s.run_id >= first_run && s.run_id < end_run) {
        total += s.end_s - s.start_s;
      }
    }
    return total;
  }

  /// JSON lines, one span per line. Returns false if the file cannot be
  /// written completely.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    bool ok = true;
    for (const Span& s : spans_) {
      ok = std::fprintf(out,
                        "{\"run\":%llu,\"layer\":\"%s\",\"name\":\"%s\","
                        "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                        static_cast<unsigned long long>(s.run_id), s.layer,
                        s.name, s.start_s, s.end_s) > 0 &&
           ok;
    }
    return std::fclose(out) == 0 && ok;
  }

 private:
  double now_s() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Closes a span on scope exit; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint64_t run_id, const char* layer,
             const char* name)
      : log_{log}, index_{log != nullptr ? log->begin(run_id, layer, name) : 0} {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
