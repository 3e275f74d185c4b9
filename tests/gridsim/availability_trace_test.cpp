#include "expert/gridsim/availability_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/presets.hpp"

namespace expert::gridsim {
namespace {

TEST(AvailabilityTrace, ValidatesIntervals) {
  EXPECT_NO_THROW(AvailabilityTrace({{{0.0, 10.0}, {20.0, 30.0}}}));
  EXPECT_THROW(AvailabilityTrace({}), util::ContractViolation);
  EXPECT_THROW(AvailabilityTrace({{{10.0, 5.0}}}), util::ContractViolation);
  EXPECT_THROW(AvailabilityTrace({{{0.0, 10.0}, {5.0, 15.0}}}),
               util::ContractViolation);
}

TEST(AvailabilityTrace, AvailabilityFractions) {
  AvailabilityTrace trace({{{0.0, 50.0}},          // 50% of [0,100)
                           {{0.0, 100.0}},         // 100%
                           {{200.0, 300.0}}});     // 0% within horizon
  EXPECT_DOUBLE_EQ(trace.availability(0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.availability(1, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.availability(2, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.mean_availability(100.0), 0.5);
}

TEST(AvailabilityTrace, SynthesisMatchesModel) {
  const auto model = stats::AvailabilityModel::from_availability(0.8, 5000.0);
  const auto trace =
      AvailabilityTrace::synthesize(100, 200000.0, model, 0xFACE);
  EXPECT_EQ(trace.machine_count(), 100u);
  EXPECT_NEAR(trace.mean_availability(200000.0), 0.8, 0.05);
}

TEST(AvailabilityTrace, SynthesisIsDeterministic) {
  const auto model = stats::AvailabilityModel::from_availability(0.7, 3000.0);
  const auto a = AvailabilityTrace::synthesize(5, 50000.0, model, 9);
  const auto b = AvailabilityTrace::synthesize(5, 50000.0, model, 9);
  for (std::size_t m = 0; m < 5; ++m) {
    ASSERT_EQ(a.machine(m).size(), b.machine(m).size());
    for (std::size_t i = 0; i < a.machine(m).size(); ++i) {
      EXPECT_DOUBLE_EQ(a.machine(m)[i].start, b.machine(m)[i].start);
      EXPECT_DOUBLE_EQ(a.machine(m)[i].end, b.machine(m)[i].end);
    }
  }
}

TEST(AvailabilityTrace, CsvRoundTrip) {
  AvailabilityTrace original({{{0.0, 10.5}, {20.25, 30.0}}, {{5.0, 7.0}}});
  std::ostringstream out;
  original.write_csv(out);
  std::istringstream in(out.str());
  const auto parsed = AvailabilityTrace::read_csv(in);
  ASSERT_EQ(parsed.machine_count(), 2u);
  EXPECT_DOUBLE_EQ(parsed.machine(0)[1].start, 20.25);
  EXPECT_DOUBLE_EQ(parsed.machine(1)[0].end, 7.0);
}

TEST(AvailabilityTrace, CsvRejectsMissingHeader) {
  std::istringstream in("0,1,2\n");
  EXPECT_THROW(AvailabilityTrace::read_csv(in), std::runtime_error);
}

TEST(TraceDrivenExecutor, AlwaysUpTraceBehavesLikePerfectPool) {
  auto trace = std::make_shared<AvailabilityTrace>(
      std::vector<std::vector<UpInterval>>(10, {{0.0, 1.0e9}}));
  auto grid = make_wm(10, 0.9, 1000.0);
  grid.groups[0].trace = trace;
  grid.groups[0].speed_cv = 0.0;
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(grid);
  cfg.seed = 3;
  Executor ex(cfg);
  const auto bot =
      workload::make_synthetic_bot("t", 30, 1000.0, 400.0, 2500.0, 1);
  const auto result = ex.run(
      bot, strategies::make_static_strategy(
               strategies::StaticStrategyKind::AUR, 1000.0, 0.0));
  EXPECT_NEAR(result.average_reliability(), 1.0, 1e-12);
  EXPECT_EQ(result.records().size(), bot.size());
}

TEST(TraceDrivenExecutor, ChurningTraceCausesFailures) {
  // Machines flap: up 1500 s, down 500 s, repeating — tasks of ~1000 s
  // frequently die with their host.
  std::vector<UpInterval> flapping;
  for (double t = 0.0; t < 1.0e6; t += 2000.0) {
    flapping.push_back({t, t + 1500.0});
  }
  auto trace = std::make_shared<AvailabilityTrace>(
      std::vector<std::vector<UpInterval>>(20, flapping));
  auto grid = make_wm(20, 0.9, 1000.0);
  grid.groups[0].trace = trace;
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(grid, make_tech(5));
  cfg.seed = 4;
  Executor ex(cfg);
  const auto bot =
      workload::make_synthetic_bot("t", 60, 1000.0, 400.0, 2500.0, 2);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 1000.0;
  p.deadline_d = 2000.0;
  p.mr = 0.2;
  const auto result = ex.run(bot, strategies::make_ntdmr_strategy(p));
  EXPECT_LT(result.average_reliability(), 0.9);
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(result.task_completion_time(t).has_value());
  }
}

TEST(TraceDrivenExecutor, DeadPoolFallsBackToReliableInTail) {
  // Machines die for good at t = 3000 while every task needs >= 3500 s of
  // CPU: all unreliable instances are lost, and the BoT (small enough that
  // the tail starts immediately) completes via the reliable (N+1)-th
  // instances only.
  auto trace = std::make_shared<AvailabilityTrace>(
      std::vector<std::vector<UpInterval>>(5, {{0.0, 3000.0}}));
  auto grid = make_wm(5, 0.9, 4000.0);
  grid.groups[0].trace = trace;
  grid.groups[0].speed_cv = 0.0;
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(grid, make_tech(5));
  cfg.seed = 5;
  Executor ex(cfg);
  const auto bot =
      workload::make_synthetic_bot("t", 4, 4200.0, 3500.0, 6000.0, 3);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 4000.0;
  p.deadline_d = 8000.0;
  p.mr = 1.0;
  const auto result = ex.run(bot, strategies::make_ntdmr_strategy(p));
  EXPECT_DOUBLE_EQ(result.average_reliability(), 0.0);
  EXPECT_EQ(result.reliable_instances_sent(), bot.size());
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(result.task_completion_time(t).has_value());
  }
}

}  // namespace
}  // namespace expert::gridsim
