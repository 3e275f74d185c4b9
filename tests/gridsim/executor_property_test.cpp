// Property sweeps over the machine-level executor: invariants that must
// hold for every (gamma, strategy, pool mix) combination.

#include <gtest/gtest.h>

#include <map>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/workload/presets.hpp"

namespace expert::gridsim {
namespace {

using strategies::make_ntdmr_strategy;
using strategies::NTDMr;
using trace::InstanceOutcome;
using trace::PoolKind;

struct SweepCase {
  double gamma;
  unsigned n;
  double mr;
  bool osg;  // OSG instead of WM
};

class ExecutorInvariants : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExecutorInvariants, HoldForEveryConfiguration) {
  const auto [gamma, n, mr, osg] = GetParam();
  constexpr double kMean = 1000.0;
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(
      osg ? make_osg(30, gamma, kMean) : make_wm(30, gamma, kMean),
      make_tech(8));
  cfg.seed = 0x9147 + static_cast<std::uint64_t>(n);
  Executor ex(cfg);
  const auto bot =
      workload::make_synthetic_bot("p", 90, kMean, 400.0, 2500.0, 61);
  NTDMr p;
  p.n = n;
  p.timeout_t = 800.0;
  p.deadline_d = 2400.0;
  p.mr = mr;
  const auto tr = ex.run(bot, make_ntdmr_strategy(p));

  // Every task completed exactly once per the first-result rule.
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    ASSERT_TRUE(tr.task_completion_time(t).has_value()) << "task " << t;
    EXPECT_LE(*tr.task_completion_time(t), tr.makespan() + 1e-9);
  }
  EXPECT_GE(tr.t_tail(), 0.0);
  EXPECT_LE(tr.t_tail(), tr.makespan());

  std::map<workload::TaskId, unsigned> tail_ur;
  std::map<workload::TaskId, unsigned> reliable_live;
  double cost = 0.0;
  for (const auto& r : tr.records()) {
    // Cost accounting: only successes pay.
    if (r.successful()) {
      EXPECT_GT(r.cost_cents, 0.0);
      cost += r.cost_cents;
    } else {
      EXPECT_DOUBLE_EQ(r.cost_cents, 0.0);
    }
    // Tail-phase flag consistent with T_tail.
    EXPECT_EQ(r.tail_phase, r.send_time >= tr.t_tail());
    if (r.outcome == InstanceOutcome::Cancelled) continue;
    if (r.tail_phase && r.pool == PoolKind::Unreliable) ++tail_ur[r.task];
    if (r.pool == PoolKind::Reliable) ++reliable_live[r.task];
  }
  EXPECT_NEAR(cost, tr.total_cost_cents(), 1e-9);
  // N bounds tail unreliable instances per task. One extra send can occur
  // when an instance enqueued just before T_tail (while hosts were down)
  // is dispatched just after it.
  for (const auto& [task, count] : tail_ur) {
    EXPECT_LE(count, n + 1) << "task " << task;
  }
  // Reliable instances: at most one per task plus re-sends after reported
  // reliable-host failures (Tech never fails, so exactly at most one).
  for (const auto& [task, count] : reliable_live) {
    EXPECT_LE(count, 1u) << "task " << task;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GammaStrategyPoolGrid, ExecutorInvariants,
    ::testing::Values(SweepCase{0.95, 1, 0.1, false},
                      SweepCase{0.95, 3, 0.3, true},
                      SweepCase{0.85, 0, 0.2, false},
                      SweepCase{0.85, 2, 0.05, true},
                      SweepCase{0.75, 1, 0.3, false},
                      SweepCase{0.75, 3, 0.1, true},
                      SweepCase{0.65, 2, 0.2, false},
                      SweepCase{0.65, 0, 0.3, true}));

TEST(ExecutorTrends, LowerGammaMeansMoreInstances) {
  constexpr double kMean = 1000.0;
  const auto bot =
      workload::make_synthetic_bot("t", 120, kMean, 400.0, 2500.0, 62);
  NTDMr p;
  p.n = 2;
  p.timeout_t = 1000.0;
  p.deadline_d = 2500.0;
  p.mr = 0.2;
  double prev_instances = 0.0;
  for (double gamma : {0.95, 0.8, 0.65}) {
    ExecutorConfig cfg;
    cfg.environment =
        env::Environment::classic(make_wm(40, gamma, kMean), make_tech(10));
    cfg.seed = 0x1F0;
    const auto tr = Executor(cfg).run(bot, make_ntdmr_strategy(p));
    std::size_t sent = 0;
    for (const auto& r : tr.records()) {
      if (r.outcome != InstanceOutcome::Cancelled) ++sent;
    }
    EXPECT_GT(static_cast<double>(sent), prev_instances * 0.98);
    prev_instances = static_cast<double>(sent);
  }
}

TEST(ExecutorTrends, MorePoolsMoreThroughput) {
  constexpr double kMean = 1000.0;
  const auto bot =
      workload::make_synthetic_bot("t", 150, kMean, 400.0, 2500.0, 63);
  const auto strategy = strategies::make_static_strategy(
      strategies::StaticStrategyKind::AUR, kMean, 0.0);
  double prev = 1e300;
  for (std::size_t machines : {20u, 40u, 80u}) {
    ExecutorConfig cfg;
    cfg.environment = env::Environment::classic(make_wm(machines, 0.9, kMean));
    cfg.seed = 0x2F0;
    const auto tr = Executor(cfg).run(bot, strategy);
    EXPECT_LT(tr.makespan(), prev * 1.02) << machines;
    prev = tr.makespan();
  }
}

}  // namespace
}  // namespace expert::gridsim
