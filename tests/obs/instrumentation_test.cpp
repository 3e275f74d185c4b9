// End-to-end instrumentation coverage: with the global registry enabled,
// one estimator sweep plus one machine-level gridsim execution must
// populate metrics across the engine, estimator and gridsim layers — the
// same guarantee the CLI's --metrics-out relies on.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "expert/core/estimator.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/workload/presets.hpp"

namespace expert {
namespace {

std::size_t count_with_prefix(const obs::Snapshot& snap,
                              std::string_view prefix) {
  std::size_t n = 0;
  const auto matches = [&](const std::string& name) {
    return name.rfind(prefix, 0) == 0;
  };
  for (const auto& c : snap.counters) {
    if (matches(c.name)) ++n;
  }
  for (const auto& g : snap.gauges) {
    if (matches(g.name)) ++n;
  }
  for (const auto& h : snap.histograms) {
    if (matches(h.name)) ++n;
  }
  return n;
}

TEST(Instrumentation, OneRunPopulatesAllLayers) {
  obs::Registry& reg = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  reg.set_enabled(true);
  tracer.set_enabled(true);
  reg.reset();
  tracer.reset();

  // Estimator layer (which drives the sim engine underneath).
  core::UserParams params;
  auto cfg = core::EstimatorConfig::from_user_params(params, /*pool=*/20);
  cfg.repetitions = 2;
  core::Estimator estimator(
      cfg, core::make_synthetic_model(2066.0, 300.0, 6000.0, 0.85));
  strategies::NTDMr p;
  p.n = 2;
  p.timeout_t = 2066.0;
  p.deadline_d = 4132.0;
  p.mr = 0.02;
  const auto est =
      estimator.estimate(20, strategies::make_ntdmr_strategy(p));
  EXPECT_GT(est.mean.makespan, 0.0);

  // Gridsim layer: machine-level execution of a Table V experiment.
  const auto& exp = gridsim::table_v_experiments().front();
  const auto bot = workload::make_bot(exp.workload, 0xB07);
  gridsim::Executor executor(gridsim::make_experiment_environment(exp, 42));
  const auto real =
      executor.run(bot, gridsim::make_experiment_strategy(exp));
  EXPECT_GT(real.makespan(), 0.0);

  const auto snap = reg.snapshot();
  EXPECT_GE(snap.size(), 10u);
  EXPECT_GE(count_with_prefix(snap, "sim.engine."), 3u);
  EXPECT_GE(count_with_prefix(snap, "core.estimator."), 3u);
  EXPECT_GE(count_with_prefix(snap, "gridsim."), 3u);

  ASSERT_NE(snap.counter("sim.engine.events_fired"), nullptr);
  EXPECT_GT(snap.counter("sim.engine.events_fired")->value, 0u);
  ASSERT_NE(snap.counter("core.estimator.runs"), nullptr);
  EXPECT_EQ(snap.counter("core.estimator.runs")->value, 2u);
  // Pool labels carry the environment's pool *names* (experiment 1 runs on
  // the WM grid), not the legacy unreliable/reliable roles.
  const obs::Labels wm_pool{{"pool", "WM"}};
  ASSERT_NE(snap.counter("gridsim.instances.sent", wm_pool), nullptr);
  EXPECT_GT(snap.counter("gridsim.instances.sent", wm_pool)->value, 0u);
  EXPECT_GT(snap.counter_total("gridsim.instances.sent"), 0u);

  // The spans around estimate() and run() landed in the tracer.
  EXPECT_GT(tracer.event_count(), 0u);

  reg.set_enabled(false);
  tracer.set_enabled(false);
}

// The Estimator runs on its own event queue; its events still count in
// sim.engine.*. The pinned counts are those of one finished run of this
// strategy on sim::Engine, before the Estimator had its own queue, so they
// also pin the event stream.
TEST(Instrumentation, EstimatorEventsCountInTheEngineMetrics) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();

  core::UserParams params;
  auto cfg = core::EstimatorConfig::from_user_params(params, /*pool=*/20);
  cfg.repetitions = 1;
  core::Estimator estimator(
      cfg, core::make_synthetic_model(2066.0, 300.0, 6000.0, 0.85));
  strategies::NTDMr p;
  p.n = 2;
  p.timeout_t = 1000.0;
  p.deadline_d = 4132.0;
  p.mr = 0.1;
  const auto strategy = strategies::make_ntdmr_strategy(p);
  const auto expect_counts = [&](std::uint64_t runs) {
    const auto snap = reg.snapshot();
    ASSERT_NE(snap.counter("sim.engine.events_scheduled"), nullptr);
    EXPECT_EQ(snap.counter("sim.engine.runs")->value, runs);
    EXPECT_EQ(snap.counter("sim.engine.events_scheduled")->value, runs * 167u);
    EXPECT_EQ(snap.counter("sim.engine.events_fired")->value, runs * 89u);
    EXPECT_EQ(snap.counter("sim.engine.events_cancelled")->value, runs * 47u);
    // Every pending event counts once in the depth, wherever it waits.
    const auto* depth = snap.histogram("sim.engine.max_queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->count, runs);
    EXPECT_EQ(depth->max, 88.0);
  };
  EXPECT_TRUE(estimator.estimate(60, strategy, 3).mean.finished);
  expect_counts(1);
  // The traced run schedules the same events.
  EXPECT_TRUE(estimator.simulate(60, strategy, 3).first.finished);
  expect_counts(2);

  reg.set_enabled(false);
}

TEST(Instrumentation, DisabledRegistryStaysEmpty) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(false);
  reg.reset();

  core::UserParams params;
  auto cfg = core::EstimatorConfig::from_user_params(params, /*pool=*/10);
  cfg.repetitions = 1;
  core::Estimator estimator(
      cfg, core::make_synthetic_model(2066.0, 300.0, 6000.0, 0.85));
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4132.0;
  p.mr = 0.1;
  estimator.estimate(10, strategies::make_ntdmr_strategy(p));

  for (const auto& c : reg.snapshot().counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
}

}  // namespace
}  // namespace expert
