// Semantics of the seven §V static strategies inside the ExPERT Estimator.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "expert/core/estimator.hpp"
#include "expert/trace/csv_io.hpp"

namespace expert::core {
namespace {

using strategies::make_static_strategy;
using strategies::StaticStrategyKind;
using trace::InstanceOutcome;
using trace::PoolKind;

constexpr double kMean = 1000.0;

EstimatorConfig config(std::size_t pool = 25) {
  EstimatorConfig cfg;
  cfg.unreliable_size = pool;
  cfg.tr = kMean;
  cfg.throughput_deadline = 4.0 * kMean;
  cfg.repetitions = 1;
  cfg.seed = 0x57A71C;
  return cfg;
}

TurnaroundModel model(double gamma) {
  return make_synthetic_model(kMean, 300.0, 3200.0, gamma);
}

TEST(StaticStrategySemantics, AREverythingOnReliable) {
  Estimator est(config(), model(0.8));
  const auto [m, tr] = est.simulate(
      40, make_static_strategy(StaticStrategyKind::AR, kMean, 0.2));
  for (const auto& r : tr.records()) {
    EXPECT_EQ(r.pool, PoolKind::Reliable);
  }
  EXPECT_DOUBLE_EQ(m.unreliable_instances_sent, 0.0);
}

TEST(StaticStrategySemantics, TRRRepicatesEveryTailTaskImmediately) {
  Estimator est(config(), model(0.8));
  const auto [m, tr] = est.simulate(
      60, make_static_strategy(StaticStrategyKind::TRR, kMean, 0.5));
  // Every tail task gets a reliable instance enqueued at T_tail itself.
  std::map<workload::TaskId, double> first_reliable;
  for (const auto& r : tr.records()) {
    if (r.pool != PoolKind::Reliable) continue;
    const auto it = first_reliable.find(r.task);
    if (it == first_reliable.end() || r.send_time < it->second)
      first_reliable[r.task] = r.send_time;
  }
  EXPECT_EQ(first_reliable.size(), static_cast<std::size_t>(m.tail_tasks));
  // With Mr = 0.5 of 25 machines = 13 slots, the first reliable sends
  // happen exactly at T_tail.
  double earliest = 1e300;
  for (const auto& [task, t] : first_reliable)
    earliest = std::min(earliest, t);
  EXPECT_NEAR(earliest, m.t_tail, 1e-9);
}

TEST(StaticStrategySemantics, TRWaitsForTheTimeoutBeforeReliable) {
  Estimator est(config(), model(0.8));
  const auto [m, tr] = est.simulate(
      60, make_static_strategy(StaticStrategyKind::TR, kMean, 0.5));
  // TR = NTDMr(0, T=D): a reliable instance goes out only T seconds after
  // the task's last (throughput) send.
  std::map<workload::TaskId, double> last_ur_send;
  for (const auto& r : tr.records()) {
    if (r.pool == PoolKind::Unreliable &&
        r.outcome != InstanceOutcome::Cancelled) {
      last_ur_send[r.task] = std::max(last_ur_send[r.task], r.send_time);
    }
  }
  for (const auto& r : tr.records()) {
    if (r.pool != PoolKind::Reliable ||
        r.outcome == InstanceOutcome::Cancelled)
      continue;
    EXPECT_GE(r.send_time - last_ur_send[r.task], 4.0 * kMean - 1e-6)
        << "task " << r.task;
  }
}

TEST(StaticStrategySemantics, TRSlowerButCheaperThanTRR) {
  Estimator est(config(), model(0.7));
  const auto trr =
      est.estimate(80, make_static_strategy(StaticStrategyKind::TRR, kMean,
                                            0.5))
          .mean;
  const auto tr_metrics =
      est.estimate(80, make_static_strategy(StaticStrategyKind::TR, kMean,
                                            0.5))
          .mean;
  EXPECT_LE(trr.tail_makespan, tr_metrics.tail_makespan);
  EXPECT_GE(trr.reliable_instances_sent, tr_metrics.reliable_instances_sent);
}

TEST(StaticStrategySemantics, BudgetNeverFiresWhenTooSmall) {
  Estimator est(config(), model(0.8));
  const auto [m, tr] = est.simulate(
      60, make_static_strategy(StaticStrategyKind::Budget, kMean, 0.5,
                               /*budget=*/0.01));
  EXPECT_DOUBLE_EQ(m.reliable_instances_sent, 0.0);
  EXPECT_TRUE(m.finished);  // the default strategy still completes the BoT
}

TEST(StaticStrategySemantics, BudgetFiresOnceAffordable) {
  Estimator est(config(), model(0.8));
  // Huge budget: replication triggers as soon as remaining * T_r * C_r
  // fits, i.e. essentially at the start.
  const auto [m, tr] = est.simulate(
      60, make_static_strategy(StaticStrategyKind::Budget, kMean, 0.5,
                               /*budget=*/1.0e6));
  EXPECT_GT(m.reliable_instances_sent, 0.0);
}

TEST(StaticStrategySemantics, BudgetWithoutReliableCapacityRunsAsAUR) {
  // Mr = 0 leaves nothing to replicate onto, so the trigger never fires,
  // whatever the budget: the run is AUR's, byte for byte.
  Estimator est(config(40), model(0.7));
  const auto csv = [&](const strategies::StrategyConfig& s,
                       std::uint64_t stream) {
    const auto [m, tr] = est.simulate(100, s, stream);
    EXPECT_TRUE(m.finished) << s.name << ", stream " << stream;
    std::ostringstream out;
    trace::write_csv(tr, out);
    return out.str();
  };
  const auto aur = make_static_strategy(StaticStrategyKind::AUR, kMean, 0.0);
  for (const double budget : {1.0, 60.0, 1.0e9}) {
    const auto budget_strategy = make_static_strategy(
        StaticStrategyKind::Budget, kMean, /*mr_max=*/0.0, budget);
    for (std::uint64_t stream = 1; stream <= 3; ++stream) {
      EXPECT_EQ(csv(budget_strategy, stream), csv(aur, stream))
          << "budget " << budget << ", stream " << stream;
    }
  }
}

TEST(StaticStrategySemantics, LargerBudgetNeverSlower) {
  Estimator est(config(), model(0.7));
  const auto small =
      est.estimate(60, make_static_strategy(StaticStrategyKind::Budget,
                                            kMean, 0.5, 100.0))
          .mean;
  const auto large =
      est.estimate(60, make_static_strategy(StaticStrategyKind::Budget,
                                            kMean, 0.5, 5000.0))
          .mean;
  EXPECT_LE(large.makespan, small.makespan * 1.05);
}

TEST(StaticStrategySemantics, CNInfOverflowOnlyWhenUnreliableSaturated) {
  // A small unreliable pool with a big BoT: the combined strategy spills
  // onto the reliable pool only while the unreliable pool is fully busy.
  Estimator est(config(5), model(0.95));
  const auto [m, tr] = est.simulate(
      40, make_static_strategy(StaticStrategyKind::CNInf, kMean, 1.0));
  EXPECT_GT(m.reliable_instances_sent, 0.0);
  // Reconstruct unreliable busy intervals; every reliable send must fall
  // in a moment when all 5 unreliable slots are occupied.
  struct Interval {
    double start, end;
  };
  std::vector<Interval> busy;
  for (const auto& r : tr.records()) {
    if (r.pool != PoolKind::Unreliable ||
        r.outcome == InstanceOutcome::Cancelled)
      continue;
    const double end = r.successful() ? r.send_time + r.turnaround
                                      : r.send_time + 4.0 * kMean;
    busy.push_back({r.send_time, end});
  }
  for (const auto& r : tr.records()) {
    if (r.pool != PoolKind::Reliable ||
        r.outcome == InstanceOutcome::Cancelled)
      continue;
    int concurrent = 0;
    for (const auto& b : busy) {
      if (b.start <= r.send_time && r.send_time < b.end) ++concurrent;
    }
    EXPECT_GE(concurrent, 5) << "reliable send at " << r.send_time
                             << " while the unreliable pool had idle slots";
  }
}

TEST(StaticStrategySemantics, CN1T0CombinedThroughputThenTailReplication) {
  Estimator est(config(10), model(0.8));
  const auto [m, tr] = est.simulate(
      50, make_static_strategy(StaticStrategyKind::CN1T0, kMean, 0.5));
  // Combined throughput: reliable instances may appear before T_tail.
  // Tail: every remaining task gets a reliable replica.
  EXPECT_GT(m.reliable_instances_sent, 0.0);
  EXPECT_TRUE(m.finished);
}

TEST(StaticStrategySemantics, RelativeOrderingMatchesFig8) {
  // The coarse Fig. 8 ordering on a cheap unreliable pool: AUR cheapest,
  // AR most expensive, AR slowest at small Mr.
  Estimator est(config(50), model(0.83));
  std::map<StaticStrategyKind, RunMetrics> results;
  for (auto kind :
       {StaticStrategyKind::AR, StaticStrategyKind::AUR,
        StaticStrategyKind::TRR, StaticStrategyKind::CNInf}) {
    results[kind] =
        est.estimate(150, make_static_strategy(kind, kMean, 0.1, 750.0))
            .mean;
  }
  EXPECT_LT(results[StaticStrategyKind::AUR].cost_per_task_cents,
            results[StaticStrategyKind::TRR].cost_per_task_cents);
  EXPECT_LT(results[StaticStrategyKind::TRR].cost_per_task_cents,
            results[StaticStrategyKind::AR].cost_per_task_cents);
  EXPECT_GT(results[StaticStrategyKind::AR].makespan,
            results[StaticStrategyKind::TRR].makespan);
}

}  // namespace
}  // namespace expert::core
