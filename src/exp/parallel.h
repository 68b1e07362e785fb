// Tiny parallel-for over independent simulations.
//
// Each task builds and runs its own Simulator, so tasks share nothing; the
// only coordination is the work index and the failure log below. The log is
// the mutation surface the sharded experiment engine contends on, so its
// locking contract is declared with the thread-safety annotations from
// sim/annotations.h and checked by clang's -Wthread-safety (an error in
// this build; see the top-level CMakeLists).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/annotations.h"

namespace halfback::exp {

/// One failed shard of a parallel_for: which index threw, and what it said.
struct ShardFailure {
  std::size_t index = 0;
  std::string message;
};

/// Failure capture shared by parallel_for workers. capture() races from
/// worker threads; rethrow_if_any() runs on the calling thread after every
/// worker has joined (it still takes the lock — join already ordered the
/// stores, but the annotated lock keeps the contract checkable rather than
/// argued).
class FailureLog {
 public:
  void capture(std::size_t index) HB_EXCLUDES(mu_) {
    MutexLock lock{mu_};
    entries_.push_back({index, std::current_exception()});
  }

  /// No failure: returns. Otherwise rethrows the exception of the lowest
  /// failing index, type intact, whichever worker logged first — so the
  /// outcome does not depend on scheduling. When `failures` is non-null it
  /// first receives every logged (index, message) pair, index order.
  void rethrow_if_any(std::vector<ShardFailure>* failures) HB_EXCLUDES(mu_) {
    std::vector<Entry> entries;
    {
      MutexLock lock{mu_};
      entries = entries_;
    }
    if (entries.empty()) return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.index < b.index; });
    if (failures != nullptr) {
      for (const Entry& entry : entries) {
        failures->push_back({entry.index, describe(entry.error)});
      }
    }
    std::rethrow_exception(entries.front().error);
  }

 private:
  struct Entry {
    std::size_t index = 0;
    std::exception_ptr error;
  };

  static std::string describe(const std::exception_ptr& error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      return e.what();
    } catch (...) {
      return "unknown exception";
    }
  }

  Mutex mu_;
  std::vector<Entry> entries_ HB_GUARDED_BY(mu_);
};

/// Run `fn(i)` for i in [0, count) on up to `threads` workers (defaults to
/// hardware concurrency). `fn` must only touch data owned by index i.
///
/// If a task throws, the failure is logged, the remaining queue is drained
/// without running further tasks, and the calling thread rethrows after
/// all workers join — instead of std::terminate tearing the process down
/// mid-campaign. Tasks already in flight when the stop flag goes up may
/// fail too. The rethrown exception is always the lowest failing index's,
/// type intact; pass `failures` to also receive every logged failure, in
/// index order (see FailureLog). The serial path (one worker) stops at the
/// first failure, which is then also the lowest.
inline void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                         unsigned threads = 0,
                         std::vector<ShardFailure>* failures = nullptr) {
  if (count == 0) return;
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 4;
  n = static_cast<unsigned>(std::min<std::size_t>(n, count));
  FailureLog log;
  if (n <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        log.capture(i);
        break;
      }
    }
    log.rethrow_if_any(failures);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&] {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          log.capture(i);
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  log.rethrow_if_any(failures);
}

}  // namespace halfback::exp
