// parallel_for semantics, in particular worker-exception propagation: a
// throwing task used to escape its worker thread and std::terminate the
// whole process.
#include "exp/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace halfback::exp {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 64;
  std::atomic<int> counts[kCount] = {};
  parallel_for(kCount, [&](std::size_t i) { ++counts[i]; }, /*threads=*/4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, PropagatesWorkerExceptionToCaller) {
  EXPECT_THROW(
      parallel_for(
          16,
          [](std::size_t i) {
            if (i == 5) throw std::runtime_error{"task 5 failed"};
          },
          /*threads=*/4),
      std::runtime_error);
}

TEST(ParallelFor, PropagatedExceptionCarriesTheOriginalMessage) {
  try {
    parallel_for(
        8, [](std::size_t) { throw std::runtime_error{"boom"}; },
        /*threads=*/2);
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ParallelFor, FailureStopsHandingOutNewWork) {
  // After a task throws, workers must drain without starting fresh tasks;
  // with a failure on the very first index most of the queue stays unrun.
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(parallel_for(
                   1'000'000,
                   [&](std::size_t i) {
                     ++executed;
                     if (i == 0) throw std::runtime_error{"early"};
                   },
                   /*threads=*/2),
               std::runtime_error);
  EXPECT_LT(executed.load(), 1'000'000u);
}

TEST(ParallelFor, MultipleFailuresAggregateIntoOneIndexedError) {
  // Hold every worker at a barrier until all four have claimed a task, then
  // fail them all: the early stop cannot drain the queue first, so all four
  // failures are logged. Whichever the scheduler logged first, the caller
  // gets shard 0's exception, type intact, and the failure list holds every
  // shard's (index, message), ordered by index.
  std::atomic<int> started{0};
  std::vector<ShardFailure> failures;
  try {
    parallel_for(
        4,
        [&](std::size_t i) {
          ++started;
          while (started.load() < 4) std::this_thread::yield();
          throw std::range_error{"shard " + std::to_string(i)};
        },
        /*threads=*/4, &failures);
    FAIL() << "parallel_for should have thrown";
  } catch (const std::range_error& e) {
    EXPECT_STREQ(e.what(), "shard 0");
  }
  ASSERT_EQ(failures.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(failures[k].index, k);
    EXPECT_EQ(failures[k].message, "shard " + std::to_string(k));
  }
}

TEST(ParallelFor, LowestFailingIndexWinsWhateverTheSchedule) {
  // Shard 1 fails at once; shard 0 fails only after shard 1 has been
  // logged. The lowest index still decides what the caller sees.
  std::atomic<bool> one_failed{false};
  try {
    parallel_for(
        2,
        [&](std::size_t i) {
          if (i == 1) {
            one_failed = true;
            throw std::runtime_error{"late index, early failure"};
          }
          while (!one_failed.load()) std::this_thread::yield();
          throw std::logic_error{"index 0"};
        },
        /*threads=*/2);
    FAIL() << "parallel_for should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "index 0");
  }
}

TEST(ParallelFor, SingleThreadedPathAlsoPropagates) {
  EXPECT_THROW(parallel_for(
                   4, [](std::size_t) { throw std::logic_error{"serial"}; },
                   /*threads=*/1),
               std::logic_error);
}

TEST(ParallelFor, SingleThreadedPathStopsAtTheFirstFailure) {
  std::vector<ShardFailure> failures;
  int ran = 0;
  EXPECT_THROW(parallel_for(
                   4,
                   [&](std::size_t i) {
                     ++ran;
                     if (i >= 1) throw std::logic_error{"serial " + std::to_string(i)};
                   },
                   /*threads=*/1, &failures),
               std::logic_error);
  EXPECT_EQ(ran, 2);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 1u);
  EXPECT_EQ(failures[0].message, "serial 1");
}

}  // namespace
}  // namespace halfback::exp
