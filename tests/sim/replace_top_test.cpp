// Replace-top dispatch (sim/event_queue.h): run_next() leaves the popped
// root as a hole that the first schedule made inside fire() fills. A
// randomized differential test drives the queue against a reference that
// is nothing but a sorted set of (time, seq) keys: whatever fire() does —
// schedule, cancel, reschedule (itself or others), reserved-seq schedules,
// destroy an event's owner (its own included), throw — the queue must
// dispatch exactly the reference's minimum each time, and the hole must
// never show in size(), empty() or for_each_pending().
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/budget.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace halfback::sim {
namespace {

struct Boom : std::runtime_error {
  Boom() : std::runtime_error{"fire() threw"} {}
};

class Harness;

/// One test event; everything it does on firing is the harness's choice.
class Actor final : public Event {
 public:
  Actor(Harness& harness, std::size_t id) : harness_{harness}, id_{id} {}

 private:
  // lint: fire-may-throw(the test makes fire() throw on purpose)
  void fire() override;
  Harness& harness_;
  std::size_t id_;
};

class Harness {
 public:
  static constexpr std::size_t kActors = 24;

  explicit Harness(std::uint64_t seed) : rng_{seed} {
    for (std::size_t i = 0; i < kActors; ++i) {
      actors_.push_back(std::make_unique<Actor>(*this, i));
      keys_.emplace_back();
    }
  }

  /// Dispatch `budget` events, re-seeding whenever the queue drains.
  void run(std::size_t budget) {
    for (std::size_t n = 0; n < budget; ++n) {
      if (queue_.empty()) {
        for (std::size_t i = 0; i < kActors / 2; ++i) reschedule(pick(), now_ + delay());
      }
      expect_consistent();
      const Time at = queue_.next_time();
      ASSERT_EQ(at.ns(), std::get<0>(*model_.begin()));
      try {
        EXPECT_EQ(queue_.run_next(), at);
      } catch (const Boom&) {
        ++throws_;
      }
      ++dispatched_;
      expect_consistent();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void on_fire(std::size_t id) {
    // The queue must have picked the reference's minimum.
    ASSERT_FALSE(model_.empty());
    const Key first = *model_.begin();
    ASSERT_EQ(std::get<2>(first), id) << "dispatch " << dispatched_;
    model_.erase(model_.begin());
    keys_[id].reset();
    now_ = std::get<0>(first);
    expect_consistent();  // the hole is invisible from inside fire()

    const auto ops = rng_.uniform_int(0, 4);
    for (std::int64_t op = 0; op < ops; ++op) {
      const std::size_t other = pick();
      switch (rng_.uniform_int(0, 6)) {
        case 0:  // schedule an idle event
          if (!actors_[other]->queued()) schedule(other, now_ + delay());
          break;
        case 1:  // cancel
          queue_.cancel_event(*actors_[other]);
          forget(other);
          break;
        case 2:  // reschedule, queued or not
          reschedule(other, now_ + delay());
          break;
        case 3:  // self-reschedule (idle here unless an earlier op re-armed it)
          reschedule(id, now_ + delay());
          break;
        case 4:  // reserve a seq now, use it for some event
          reserved_schedule(other);
          break;
        case 5: {  // destroy an owner, possibly the firing event's own
          const std::size_t victim = rng_.bernoulli(0.3) ? id : other;
          actors_[victim].reset();  // a queued victim cancels itself
          // Actors are never null between operations: replace at once.
          forget(victim);
          actors_[victim] = std::make_unique<Actor>(*this, victim);
          break;
        }
        default:
          expect_consistent();
          break;
      }
      expect_consistent();
    }
    if (rng_.bernoulli(0.05)) throw Boom{};
  }

  std::size_t dispatched() const { return dispatched_; }
  std::size_t throws() const { return throws_; }

 private:
  using Key = std::tuple<std::int64_t, std::uint64_t, std::size_t>;

  std::size_t pick() {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kActors) - 1));
  }
  /// Small delays, so equal times (and the FIFO tie-break) are common.
  std::int64_t delay() { return rng_.uniform_int(0, 3); }

  void forget(std::size_t id) {
    if (keys_[id]) model_.erase(*keys_[id]);
    keys_[id].reset();
  }
  void remember(std::size_t id, std::int64_t at, std::uint64_t seq) {
    forget(id);
    keys_[id] = Key{at, seq, id};
    model_.insert(*keys_[id]);
  }

  void schedule(std::size_t id, std::int64_t at) {
    queue_.schedule_event(*actors_[id], Time::nanoseconds(at));
    remember(id, at, next_seq_++);
  }
  void reschedule(std::size_t id, std::int64_t at) {
    queue_.reschedule_event(*actors_[id], Time::nanoseconds(at));
    remember(id, at, next_seq_++);
  }
  void reserved_schedule(std::size_t id) {
    const std::uint64_t seq = queue_.reserve_seq();
    EXPECT_EQ(seq, next_seq_++);
    const std::int64_t at = now_ + delay();
    queue_.schedule_reserved(*actors_[id], Time::nanoseconds(at), seq);
    remember(id, at, seq);
  }

  void expect_consistent() {
    ASSERT_EQ(queue_.size(), model_.size());
    ASSERT_EQ(queue_.empty(), model_.empty());
    std::size_t visited = 0;
    auto visit = [&](const Event& event) {
      ++visited;
      EXPECT_TRUE(event.queued());
      bool known = false;
      for (const auto& actor : actors_) known = known || actor.get() == &event;
      EXPECT_TRUE(known) << "for_each_pending visited a destroyed or idle event";
    };
    queue_.for_each_pending(visit);
    ASSERT_EQ(visited, model_.size());
    if (!model_.empty()) {
      EXPECT_EQ(queue_.next_time().ns(), std::get<0>(*model_.begin()));
      EXPECT_EQ(&queue_.peek_next(), actors_[std::get<2>(*model_.begin())].get());
    }
  }

  Random rng_;
  EventQueue queue_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<std::optional<Key>> keys_;
  std::set<Key> model_;
  std::uint64_t next_seq_ = 0;
  std::int64_t now_ = 0;
  std::size_t dispatched_ = 0;
  std::size_t throws_ = 0;
};

void Actor::fire() { harness_.on_fire(id_); }

TEST(ReplaceTopTest, MatchesAnOrderedReferenceUnderRandomFireBodies) {
  std::size_t dispatched = 0;
  std::size_t throws = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Harness harness{seed};
    harness.run(2'000);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
    dispatched += harness.dispatched();
    throws += harness.throws();
  }
  // The test means something only if it ran long and threw often.
  EXPECT_GT(dispatched, 20'000u);
  EXPECT_GT(throws, 500u);
}

/// Reschedules itself every period, noting the pending count it sees from
/// inside fire().
class Ticker final : public Event {
 public:
  Ticker(Simulator& simulator, Time period) : simulator_{simulator}, period_{period} {}
  std::size_t size_seen = SIZE_MAX;

 private:
  void fire() noexcept override {
    size_seen = simulator_.queue().size();
    simulator_.schedule_event(period_, *this);
  }
  Simulator& simulator_;
  Time period_;
};

TEST(ReplaceTopTest, FireWithoutSchedulingClosesTheHole) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(Time::nanoseconds(1), [&] {
    order.push_back(1);
    EXPECT_EQ(queue.size(), 2u);
  });
  queue.schedule(Time::nanoseconds(2), [&] { order.push_back(2); });
  queue.schedule(Time::nanoseconds(3), [&] { order.push_back(3); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ReplaceTopTest, ClearFromInsideFireLeavesAnEmptyQueue) {
  EventQueue queue;
  bool later_ran = false;
  queue.schedule(Time::nanoseconds(1), [&] { queue.clear(); });
  queue.schedule(Time::nanoseconds(2), [&] { later_ran = true; });
  queue.run_next();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(later_ran);
}

TEST(ReplaceTopTest, PendingCountAfterABudgetTripExcludesTheHole) {
  Simulator simulator{1};
  Ticker a{simulator, Time::nanoseconds(3)};
  Ticker b{simulator, Time::nanoseconds(5)};
  simulator.schedule_event(Time::zero(), a);
  simulator.schedule_event(Time::zero(), b);

  RunBudget budget;
  budget.max_events = 101;
  BudgetEnforcer enforcer{budget};
  simulator.set_budget(&enforcer);
  simulator.run();

  ASSERT_TRUE(enforcer.tripped());
  // Inside fire() the other ticker was the only pending event.
  EXPECT_EQ(a.size_seen, 1u);
  EXPECT_EQ(b.size_seen, 1u);
  EXPECT_EQ(enforcer.report().pending_events, 2u);
  EXPECT_EQ(simulator.queue().size(), 2u);
  std::size_t visited = 0;
  auto visit = [&](const Event& event) {
    EXPECT_TRUE(&event == &a || &event == &b);
    ++visited;
  };
  simulator.queue().for_each_pending(visit);
  EXPECT_EQ(visited, 2u);
}

}  // namespace
}  // namespace halfback::sim
