#include "sim/simulator.h"

#include <typeinfo>

#include "sim/budget.h"
#include "sim/dispatch_profiler.h"
#include "telemetry/hub.h"

namespace halfback::sim {

void Simulator::run() { dispatch(Time::infinity()); }

void Simulator::run_until(Time deadline) { dispatch(deadline); }

void Simulator::dispatch(Time deadline) {
  const bool supervised = budget_ != nullptr || profiler_ != nullptr;
  if (telemetry_ != nullptr) {
    if (supervised) {
      dispatch_loop(deadline, std::true_type{}, std::true_type{});
    } else {
      dispatch_loop(deadline, std::true_type{}, std::false_type{});
    }
  } else if (supervised) {
    dispatch_loop(deadline, std::false_type{}, std::true_type{});
  } else {
    dispatch_loop(deadline, std::false_type{}, std::false_type{});
  }
}

template <bool kTelemetry, bool kSupervised>
void Simulator::dispatch_loop(Time deadline, std::bool_constant<kTelemetry>,
                              std::bool_constant<kSupervised>) {
  stopped_ = false;
  if constexpr (kSupervised) {
    // A tripped budget is sticky: once a run aborted, further driving (e.g.
    // the next poll slice of a deadline-censored loop) stays aborted.
    if (budget_ != nullptr && budget_->tripped()) {
      stopped_ = true;
      return;
    }
  }
  // Count and heap peak are tracked locally and flushed once at exit: an
  // integer compare per event instead of two instrument taps.
  [[maybe_unused]] std::size_t heap_peak = 0;
  [[maybe_unused]] const std::uint64_t executed_before = events_executed_;
  // next_time() is out-of-line (it carries an empty-queue check); read it
  // once per iteration, not once in the condition and again in the body.
  while (!stopped_ && !queue_.empty()) {
    const Time next = queue_.next_time();
    if (next > deadline) break;
    if constexpr (kSupervised) {
      if (budget_ != nullptr) {
        if (abort_requested_.load(std::memory_order_relaxed)) {
          budget_->record_trip(BudgetTrip::wall_clock, *this);
          stopped_ = true;
          break;
        }
        const BudgetTrip trip = budget_->before_dispatch(next, events_executed_);
        if (trip != BudgetTrip::none) {
          budget_->record_trip(trip, *this);
          stopped_ = true;
          break;
        }
      }
    }
    if constexpr (kTelemetry) {
      if (queue_.size() > heap_peak) heap_peak = queue_.size();
    }
    now_ = next;  // clock is correct inside the callback
    if constexpr (kSupervised) {
      if (profiler_ != nullptr) {
        // The dynamic type must be read before run_next(): fire() may
        // destroy or reschedule the event object. Cycle reads bracket
        // fire() only on sampling ticks; counting is every dispatch.
        const std::type_info& type = typeid(queue_.peek_next());
        if (profiler_->should_sample()) {
          const std::uint64_t entered = read_cycle_counter();
          queue_.run_next();
          profiler_->note_dispatch(type, read_cycle_counter() - entered);
        } else {
          queue_.run_next();
          profiler_->note_dispatch(type, 0);
        }
      } else {
        queue_.run_next();
      }
    } else {
      queue_.run_next();
    }
    ++events_executed_;
  }
  // Flushed on every exit, including budget trips mid-slice: the metrics
  // must account for the events that did run before the abort.
  if constexpr (kTelemetry) {
    telemetry_->on_run_slice_done(events_executed_ - executed_before, heap_peak);
  }
  // run() passes an infinite deadline, which must not drag the clock to
  // the sentinel.
  if (!stopped_ && !deadline.is_infinite() && now_ < deadline) now_ = deadline;
}

}  // namespace halfback::sim
