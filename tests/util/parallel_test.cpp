#include "expert/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace expert::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallback) {
  // One worker drains the cursor alone, so the indices run in order.
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  constexpr std::size_t kN = 1000;
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RethrowsTheFirstException) {
  // With one worker the indices run in order, so the first throw is index 0.
  ThreadPool pool(1);
  try {
    pool.parallel_for(3, [](std::size_t i) {
      throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 0");
  }
}

TEST(ThreadPool, ThrowingTaskDoesNotAbortOthers) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                   count.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(count.load(), 49);
}

TEST(ThreadPool, ErrorClearedAfterRethrowSoPoolStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(1,
                                 [](std::size_t) {
                                   throw std::runtime_error("first batch");
                                 }),
               std::runtime_error);

  std::atomic<int> count{0};
  // Must not rethrow the already-reported error.
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ConcurrentCallersSeeOnlyTheirOwnBatch) {
  // Two threads issue batches on one 2-worker pool. Each call returns only
  // after its own indices ran, and rethrows only its own exception.
  ThreadPool pool(2);
  constexpr std::size_t kN = 2000;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> visits_a(kN);
  std::vector<std::atomic<int>> visits_b(kN);
  std::atomic<int> wrong_a{0};
  std::atomic<int> wrong_b{0};
  const auto caller = [&](std::vector<std::atomic<int>>& visits,
                          std::atomic<int>& wrong, const std::string& tag) {
    for (int round = 1; round <= kRounds; ++round) {
      try {
        pool.parallel_for(kN, [&](std::size_t i) {
          visits[i].fetch_add(1);
          if (i == kN / 2) throw std::runtime_error(tag);
        });
        wrong.fetch_add(1);  // the batch's own throw must surface
      } catch (const std::runtime_error& e) {
        if (e.what() != tag) wrong.fetch_add(1);
      }
      for (std::size_t i = 0; i < kN; ++i) {
        if (visits[i].load() != round) wrong.fetch_add(1);
      }
    }
  };
  std::thread a([&] { caller(visits_a, wrong_a, "a"); });
  std::thread b([&] { caller(visits_b, wrong_b, "b"); });
  a.join();
  b.join();
  EXPECT_EQ(wrong_a.load(), 0);
  EXPECT_EQ(wrong_b.load(), 0);
}

}  // namespace
}  // namespace expert::util
