#include "expert/sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "expert/util/assert.hpp"

namespace expert::sim {
namespace {

TEST(Engine, FiresEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SimultaneousEventsFireInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(5.0, [&] { order.push_back(1); });
  engine.schedule_at(5.0, [&] { order.push_back(2); });
  engine.schedule_at(5.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(7.5, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  std::vector<double> times;
  engine.schedule_at(10.0, [&] {
    engine.schedule_in(5.0, [&] { times.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Engine, RejectsPastEvents) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5.0, [] {}), util::ContractViolation);
  EXPECT_THROW(engine.schedule_in(-1.0, [] {}), util::ContractViolation);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  int fired = 0;
  auto handle = engine.schedule_at(1.0, [&] { ++fired; });
  handle.cancel();
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine engine;
  int count = 0;
  auto handle = engine.schedule_at(1.0, [&] { ++count; });
  engine.run();
  handle.cancel();  // must not crash or double-run
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine engine;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    engine.schedule_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  engine.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Engine, RunUntilHonoursTheHorizonBehindACancelledEvent) {
  Engine engine;
  std::vector<double> fired;
  auto cancelled = engine.schedule_at(10.0, [&] { fired.push_back(10.0); });
  engine.schedule_at(20.0, [&] { fired.push_back(engine.now()); });
  cancelled.cancel();
  engine.run_until(15.0);
  EXPECT_TRUE(fired.empty());
  EXPECT_DOUBLE_EQ(engine.now(), 15.0);
  engine.run_until(25.0);
  EXPECT_EQ(fired, (std::vector<double>{20.0}));
}

TEST(Engine, StopEndsRunEarly) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule_at(1.0, [&] {
    fired.push_back(1.0);
    engine.stop();
  });
  engine.schedule_at(2.0, [&] { fired.push_back(2.0); });
  engine.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  // A fresh run resumes processing what's left.
  engine.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(Engine, EventsCanScheduleChains) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_in(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 99.0);
}

TEST(Engine, CancelledEventsAreSkippedNotCounted) {
  Engine engine;
  int fired = 0;
  auto h = engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  h.cancel();
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelOfAFiredEventSparesItsSlotsNextEvent) {
  // B is scheduled after A fired, so it may take the storage A used; A's
  // handle must still name only A.
  Engine engine;
  int fired_a = 0;
  int fired_b = 0;
  auto a = engine.schedule_at(1.0, [&] { ++fired_a; });
  engine.run();
  engine.schedule_at(2.0, [&] { ++fired_b; });
  a.cancel();
  engine.run();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
}

// ---------------------------------------------------------------------------
// schedule_ahead_at: events that fire before every ordinary event of their
// time, in key order.

TEST(EngineAhead, FiresBeforeAnEarlierScheduledOrdinaryEvent) {
  Engine engine;
  std::vector<std::string> order;
  engine.schedule_at(4.0, [&] { order.push_back("ordinary@4"); });
  engine.schedule_at(5.0, [&] { order.push_back("ordinary@5"); });
  engine.schedule_ahead_at(5.0, 7, [&] { order.push_back("ahead@5"); });
  engine.schedule_ahead_at(6.0, 0, [&] { order.push_back("ahead@6"); });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"ordinary@4", "ahead@5",
                                             "ordinary@5", "ahead@6"}));
}

TEST(EngineAhead, FireInKeyOrderWhateverTheSchedulingOrder) {
  Engine engine;
  std::vector<std::uint64_t> order;
  for (const std::uint64_t key : {5ULL, 0ULL, 3ULL, 9ULL, 1ULL}) {
    engine.schedule_ahead_at(2.0, key, [&order, key] { order.push_back(key); });
  }
  // One more, scheduled by an earlier event: it still takes its key's
  // place among the pending ones.
  engine.schedule_at(1.0, [&] {
    engine.schedule_ahead_at(2.0, 4, [&order] { order.push_back(4); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 3, 4, 5, 9}));
}

TEST(EngineAhead, ScheduledAtTheCurrentTimeFiresBeforePendingOrdinaryEvents) {
  // An ahead event arming another at its own time (a zero-length forced
  // window) runs the second before the ordinary events of that time.
  Engine engine;
  std::vector<std::string> order;
  engine.schedule_at(3.0, [&] { order.push_back("ordinary"); });
  engine.schedule_ahead_at(3.0, 2, [&] {
    order.push_back("down");
    engine.schedule_ahead_at(3.0, 2, [&] { order.push_back("up"); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"down", "up", "ordinary"}));
}

TEST(EngineAhead, OrdinaryEventsKeepInsertionOrder) {
  Engine engine;
  std::vector<std::string> order;
  engine.schedule_at(1.0, [&] { order.push_back("a"); });
  engine.schedule_ahead_at(1.0, 3, [&] { order.push_back("k3"); });
  engine.schedule_at(1.0, [&] { order.push_back("b"); });
  engine.schedule_ahead_at(1.0, 1, [&] { order.push_back("k1"); });
  engine.schedule_at(1.0, [&] { order.push_back("c"); });
  engine.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"k1", "k3", "a", "b", "c"}));
}

TEST(EngineAhead, CancelPreventsExecution) {
  Engine engine;
  std::vector<std::uint64_t> fired;
  auto handle =
      engine.schedule_ahead_at(1.0, 0, [&] { fired.push_back(0); });
  engine.schedule_ahead_at(1.0, 1, [&] { fired.push_back(1); });
  handle.cancel();
  engine.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
  handle.cancel();  // after the run: still a no-op
}

TEST(EngineAhead, RunUntilHonoursTheHorizon) {
  Engine engine;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0}) {
    engine.schedule_ahead_at(t, 0, [&fired, &engine] {
      fired.push_back(engine.now());
    });
  }
  engine.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  engine.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EngineAhead, RejectsOutOfRangeKeysAndPastTimes) {
  Engine engine;
  EXPECT_THROW(engine.schedule_ahead_at(1.0, Engine::kAheadKeys, [] {}),
               util::ContractViolation);
  engine.schedule_at(10.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_ahead_at(5.0, 0, [] {}),
               util::ContractViolation);
}

}  // namespace
}  // namespace expert::sim
