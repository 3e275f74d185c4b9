// DriftDetector tests: Page-Hinkley on windowed gamma, CUSUM on makespan
// residuals, replay determinism, the monitor's eval-cache invalidation,
// and a gridsim campaign whose pool degrades mid-campaign.

#include "expert/resilience/drift.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/presets.hpp"

namespace expert::resilience {
namespace {

using core::Campaign;
using trace::ExecutionTrace;
using trace::InstanceRecord;

/// A trace whose unreliable instances are sent every 10 s over 400 s, with
/// `successes_per_ten` of every 10 consecutive sends succeeding — so with a
/// 100 s window each window observes gamma = successes_per_ten / 10.
ExecutionTrace gamma_trace(unsigned successes_per_ten) {
  std::vector<InstanceRecord> records;
  for (std::size_t i = 0; i < 40; ++i) {
    InstanceRecord r;
    r.task = static_cast<workload::TaskId>(i);
    r.pool = trace::PoolKind::Unreliable;
    r.send_time = static_cast<double>(i) * 10.0;
    if (i % 10 < successes_per_ten) {
      r.outcome = trace::InstanceOutcome::Success;
      r.turnaround = 50.0;
      r.cost_cents = 0.1;
    } else {
      r.outcome = trace::InstanceOutcome::Timeout;
      r.turnaround = trace::kNeverReturns;
    }
    records.push_back(r);
  }
  return ExecutionTrace(40, std::move(records), 400.0, 450.0);
}

/// A trace too sparse for any gamma window (below min_window_sends), so
/// only the residual series observes anything.
ExecutionTrace sparse_trace() {
  std::vector<InstanceRecord> records(2);
  records[0].task = 0;
  records[0].send_time = 0.0;
  records[0].outcome = trace::InstanceOutcome::Success;
  records[0].turnaround = 10.0;
  records[1].task = 1;
  records[1].send_time = 500.0;
  records[1].outcome = trace::InstanceOutcome::Success;
  records[1].turnaround = 10.0;
  return ExecutionTrace(2, std::move(records), 800.0, 1000.0);
}

DriftOptions pinned_options() {
  DriftOptions opts;
  opts.gamma_window_s = 100.0;
  return opts;
}

Campaign::BotReport plain_report() { return Campaign::BotReport{}; }

Campaign::BotReport recommended_report(double predicted_makespan,
                                       double realized_makespan) {
  Campaign::BotReport r;
  r.used_recommendation = true;
  r.makespan = realized_makespan;
  core::StrategyPoint p;
  p.makespan = predicted_makespan;
  r.predicted = p;
  return r;
}

TEST(WindowedReliability, BucketsBySendTime) {
  const auto windows =
      gridsim::windowed_reliability(gamma_trace(9), 100.0);
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& w : windows) {
    EXPECT_EQ(w.sent, 10u);
    EXPECT_DOUBLE_EQ(w.gamma, 0.9);
    EXPECT_DOUBLE_EQ(w.hi - w.lo, 100.0);
  }
  EXPECT_DOUBLE_EQ(windows[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(windows[3].lo, 300.0);
}

TEST(DriftDetector, StationaryGammaNeverTrips) {
  DriftDetector detector(pinned_options());
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(detector.observe_bot(plain_report(), gamma_trace(9)));
  }
  EXPECT_EQ(detector.trips(), 0u);
}

TEST(DriftDetector, SustainedGammaDropTrips) {
  DriftDetector detector(pinned_options());
  EXPECT_FALSE(detector.observe_bot(plain_report(), gamma_trace(9)));
  EXPECT_FALSE(detector.observe_bot(plain_report(), gamma_trace(9)));
  // The pool collapses: 0.9 -> 0.3. Well past min_observations, the
  // Page-Hinkley statistic falls away from its maximum within one trace.
  EXPECT_TRUE(detector.observe_bot(plain_report(), gamma_trace(3)));
  EXPECT_EQ(detector.trips(), 1u);
}

TEST(DriftDetector, TripResetsBaseline) {
  DriftDetector detector(pinned_options());
  detector.observe_bot(plain_report(), gamma_trace(9));
  detector.observe_bot(plain_report(), gamma_trace(9));
  ASSERT_TRUE(detector.observe_bot(plain_report(), gamma_trace(3)));
  // Post-trip, the degraded level is the new baseline: stationary 0.3 must
  // not re-trip.
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(detector.observe_bot(plain_report(), gamma_trace(3)));
  }
  EXPECT_EQ(detector.trips(), 1u);
}

TEST(DriftDetector, ResidualBiasTripsBothDirections) {
  for (const double realized : {1400.0, 600.0}) {
    DriftDetector detector(pinned_options());
    std::size_t trips_at = 0;
    for (std::size_t i = 1; i <= 10 && trips_at == 0; ++i) {
      if (detector.observe_bot(recommended_report(1000.0, realized),
                               sparse_trace())) {
        trips_at = i;
      }
    }
    // +/-40% persistent bias against residual_delta 0.15, lambda 1.0:
    // the CUSUM crosses right at the min_observations floor.
    EXPECT_EQ(trips_at, 6u) << "realized=" << realized;
  }
}

TEST(DriftDetector, AccurateResidualsNeverTrip) {
  DriftDetector detector(pinned_options());
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.observe_bot(recommended_report(1000.0, 1050.0),
                                      sparse_trace()));
  }
}

TEST(DriftDetector, ReplayReproducesState) {
  // The detector is a pure fold: replaying the same observation sequence
  // (as resume does from the journal) lands in the same state.
  const auto feed = [](DriftDetector& d) {
    std::vector<bool> verdicts;
    verdicts.push_back(d.observe_bot(plain_report(), gamma_trace(9)));
    verdicts.push_back(d.observe_bot(plain_report(), gamma_trace(8)));
    verdicts.push_back(d.observe_bot(
        recommended_report(1000.0, 1350.0), sparse_trace()));
    verdicts.push_back(d.observe_bot(plain_report(), gamma_trace(3)));
    verdicts.push_back(d.observe_bot(plain_report(), gamma_trace(3)));
    return verdicts;
  };
  DriftDetector a(pinned_options());
  DriftDetector b(pinned_options());
  EXPECT_EQ(feed(a), feed(b));
  EXPECT_EQ(a.trips(), b.trips());
}

TEST(DriftOptions, ValidatesThresholds) {
  DriftOptions opts;
  opts.ph_lambda = 0.0;
  EXPECT_THROW(DriftDetector{opts}, util::ContractViolation);
  opts = DriftOptions{};
  opts.min_observations = 0;
  EXPECT_THROW(DriftDetector{opts}, util::ContractViolation);
  EXPECT_THROW(make_drift_monitor(nullptr), util::ContractViolation);
}

TEST(DriftMonitor, TripInvalidatesModelKeyedEvals) {
  auto detector = std::make_shared<DriftDetector>(pinned_options());
  eval::EvalCache cache(64);
  const std::uint64_t stale_model = 0xDEAD0001;
  const std::uint64_t other_model = 0xBEEF0002;
  eval::EvalKey stale;
  stale.hi = 1;
  stale.lo = 2;
  stale.model = stale_model;
  eval::EvalKey fresh;
  fresh.hi = 3;
  fresh.lo = 4;
  fresh.model = other_model;
  cache.insert(stale, eval::CachedEval{});
  cache.insert(fresh, eval::CachedEval{});

  auto monitor = make_drift_monitor(detector, &cache);
  EXPECT_FALSE(monitor(plain_report(), gamma_trace(9)));
  EXPECT_FALSE(monitor(plain_report(), gamma_trace(9)));
  auto tripping = plain_report();
  tripping.model_digest = stale_model;
  EXPECT_TRUE(monitor(tripping, gamma_trace(3)));

  // Evaluations under the drifted model are gone; others survive.
  EXPECT_FALSE(cache.lookup(stale).has_value());
  EXPECT_TRUE(cache.lookup(fresh).has_value());
  EXPECT_EQ(cache.stats().invalidated, 1u);
}

TEST(DriftCampaign, PoolDegradationTripsAndRecharacterizes) {
  // A gridsim campaign whose unreliable pool collapses from 0.85 to 0.2
  // after the third BoT: the detector must trip, surface ModelDrift, and
  // leave only the post-drift trace as characterization history.
  constexpr double kMeanCpu = 1000.0;
  gridsim::ExecutorConfig good;
  good.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, 0.85, kMeanCpu), gridsim::make_tech(10));
  good.seed = 0xD41F7;
  gridsim::ExecutorConfig bad = good;
  bad.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, 0.2, kMeanCpu), gridsim::make_tech(10));

  auto calls = std::make_shared<std::size_t>(0);
  Campaign::Backend backend =
      [good, bad, calls](const workload::Bot& bot,
                         const strategies::StrategyConfig& strategy,
                         std::uint64_t stream) {
        const auto& env = *calls < 3 ? good : bad;
        ++*calls;
        return gridsim::Executor(env).run(bot, strategy, stream);
      };

  Campaign::Options opts;
  opts.params.tur = kMeanCpu;
  opts.params.tr = kMeanCpu;
  opts.expert.repetitions = 3;
  opts.expert.sampling.n_values = {1u, 2u};
  opts.expert.sampling.d_samples = 2;
  opts.expert.sampling.t_samples = 2;
  opts.expert.sampling.mr_values = {0.05, 0.2};
  auto detector = std::make_shared<DriftDetector>();
  opts.drift_monitor = make_drift_monitor(detector);

  Campaign campaign(backend, opts);
  bool drift_seen = false;
  for (std::uint64_t i = 0; i < 6 && !drift_seen; ++i) {
    const auto bot = workload::make_synthetic_bot("bot", 150, kMeanCpu, 400.0,
                                                  2500.0, 40 + i);
    const auto report =
        campaign.run_bot(bot, core::Utility::min_cost_makespan_product());
    if (report.degradation == core::DegradationReason::ModelDrift) {
      drift_seen = true;
      // Re-characterization restarts from the post-drift trace alone.
      EXPECT_EQ(campaign.history_depth(), 1u);
    }
  }
  EXPECT_TRUE(drift_seen);
  EXPECT_GE(detector->trips(), 1u);
}

}  // namespace
}  // namespace expert::resilience
