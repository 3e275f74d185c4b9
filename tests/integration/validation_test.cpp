// Simulator-validation integration tests in the spirit of paper Table V:
// the ExPERT Estimator's statistical prediction must track the machine-level
// gridsim "reality" to within coarse bounds.

#include <gtest/gtest.h>

#include "expert/core/characterization.hpp"
#include "expert/core/estimator.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/workload/presets.hpp"

namespace expert {
namespace {

constexpr double kMeanCpu = 1000.0;

strategies::StrategyConfig ntdmr(unsigned n, double t, double d, double mr) {
  strategies::NTDMr p;
  p.n = n;
  p.timeout_t = t;
  p.deadline_d = d;
  p.mr = mr;
  return strategies::make_ntdmr_strategy(p);
}

struct Validation {
  trace::ExecutionTrace real;
  core::EstimateResult predicted;
};

Validation run_validation(double gamma, const strategies::StrategyConfig& s,
                          core::ReliabilityMode mode) {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, gamma, kMeanCpu), gridsim::make_tech(20));
  cfg.seed = 8181;
  gridsim::Executor ex(cfg);
  const auto bot = workload::make_synthetic_bot("val-bot", 250, kMeanCpu,
                                                400.0, 2500.0, 17);
  auto real = ex.run(bot, s);

  const auto model =
      core::characterize(real, {mode, 4.0 * kMeanCpu, 6});
  core::EstimatorConfig est_cfg;
  est_cfg.unreliable_size =
      core::estimate_effective_size_iterative(real, model, 4.0 * kMeanCpu);
  est_cfg.tr = kMeanCpu;
  est_cfg.cr_cents_per_s = 34.0 / 3600.0;
  est_cfg.throughput_deadline = 4.0 * kMeanCpu;
  est_cfg.repetitions = 6;
  est_cfg.seed = 9;
  core::Estimator estimator(est_cfg, model);
  auto predicted = estimator.estimate(bot.size(), s);
  return {std::move(real), std::move(predicted)};
}

TEST(Validation, OfflineTailMakespanWithinFactorOfTwo) {
  const auto v = run_validation(0.85, ntdmr(1, 1000.0, 2000.0, 0.1),
                                core::ReliabilityMode::Offline);
  ASSERT_TRUE(v.predicted.mean.finished);
  const double real_tms = v.real.tail_makespan();
  const double sim_tms = v.predicted.mean.tail_makespan;
  EXPECT_GT(sim_tms, 0.25 * real_tms);
  EXPECT_LT(sim_tms, 4.0 * real_tms);
}

TEST(Validation, OfflineCostWithinFiftyPercent) {
  const auto v = run_validation(0.85, ntdmr(1, 1000.0, 2000.0, 0.1),
                                core::ReliabilityMode::Offline);
  const double real_cost = v.real.cost_per_task_cents();
  const double sim_cost = v.predicted.mean.cost_per_task_cents;
  EXPECT_NEAR(sim_cost, real_cost, 0.5 * real_cost);
}

TEST(Validation, OnlineModeStillTracksReality) {
  const auto v = run_validation(0.8, ntdmr(2, 500.0, 2000.0, 0.1),
                                core::ReliabilityMode::Online);
  ASSERT_TRUE(v.predicted.mean.finished);
  const double real_cost = v.real.cost_per_task_cents();
  EXPECT_NEAR(v.predicted.mean.cost_per_task_cents, real_cost,
              0.6 * real_cost);
}

TEST(Validation, BotMakespanComparable) {
  const auto v = run_validation(0.9, ntdmr(1, 1000.0, 2000.0, 0.1),
                                core::ReliabilityMode::Offline);
  EXPECT_NEAR(v.predicted.mean.makespan, v.real.makespan(),
              0.5 * v.real.makespan());
}

TEST(Validation, ReliableInstanceCountsSameOrderOfMagnitude) {
  const auto v = run_validation(0.75, ntdmr(0, 1000.0, 4000.0, 0.5),
                                core::ReliabilityMode::Offline);
  const auto real_ri = static_cast<double>(v.real.reliable_instances_sent());
  const double sim_ri = v.predicted.mean.reliable_instances_sent;
  EXPECT_GT(real_ri, 0.0);
  EXPECT_GT(sim_ri, 0.0);
  EXPECT_LT(std::abs(sim_ri - real_ri), std::max(10.0, real_ri));
}

}  // namespace
}  // namespace expert
