// Chaos soak: long multi-BoT campaigns under randomized fault plans. These
// are the robustness acceptance tests — every BoT must either complete or
// be quarantined, no report may carry NaN or negative figures, and an
// identical (seed, stream, plan) triple must replay byte-for-byte. The
// suite carries the `chaos-soak` ctest label so CI can run it standalone
// (including under sanitizers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "expert/chaos/chaos.hpp"
#include "expert/core/campaign.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/workload/presets.hpp"

namespace expert::core {
namespace {

constexpr double kMeanCpu = 1000.0;

gridsim::ExecutorConfig chaotic_config(std::uint64_t seed,
                                       const chaos::ChaosConfig& plan) {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, 0.82, kMeanCpu), gridsim::make_tech(10));
  cfg.seed = seed;
  cfg.chaos = plan;
  return cfg;
}

Campaign::Backend chaotic_backend(std::uint64_t seed,
                                  const chaos::ChaosConfig& plan) {
  const auto cfg = chaotic_config(seed, plan);
  return [cfg](const workload::Bot& bot,
               const strategies::StrategyConfig& strategy,
               std::uint64_t stream) {
    return gridsim::Executor(cfg).run(bot, strategy, stream);
  };
}

Campaign::Options options() {
  Campaign::Options opts;
  opts.params.tur = kMeanCpu;
  opts.params.tr = kMeanCpu;
  opts.expert.repetitions = 3;
  opts.expert.sampling.n_values = {1u, 2u};
  opts.expert.sampling.d_samples = 2;
  opts.expert.sampling.t_samples = 2;
  opts.expert.sampling.mr_values = {0.05, 0.2};
  return opts;
}

workload::Bot bot(std::uint64_t seed, std::size_t tasks = 120) {
  return workload::make_synthetic_bot("bot", tasks, kMeanCpu, 400.0, 2500.0,
                                      seed);
}

/// CI's seed matrix: EXPERT_CHAOS_SEED shifts every plan's chaos seed so
/// each matrix entry soaks a different fault schedule, and a failing entry
/// is reproducible locally by exporting the same value.
std::uint64_t env_seed_offset() {
  const char* v = std::getenv("EXPERT_CHAOS_SEED");
  return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
}

/// A deterministic plan varying with `seed`: group blackouts plus at least
/// 10% dispatch failures, some result loss, and a mid-campaign pool shrink.
chaos::ChaosConfig soak_plan(std::uint64_t seed) {
  chaos::ChaosConfig plan;
  plan.seed = 0x50AC + seed + 1000 * env_seed_offset();
  plan.blackouts_per_group = 1 + seed % 2;
  plan.blackout_window_s = 30000.0;
  plan.blackout_mean_duration_s = 4000.0 + 1000.0 * static_cast<double>(
                                               seed % 3);
  plan.dispatch_failure_prob = 0.10 + 0.05 * static_cast<double>(seed % 3);
  plan.dispatch_backoff_base_s = 20.0;
  plan.dispatch_backoff_max_s = 320.0;
  plan.result_loss_prob = 0.02 * static_cast<double>(seed % 4);
  plan.shrink_fraction = seed % 2 == 0 ? 0.3 : 0.0;
  plan.shrink_start_s = 5000.0;
  plan.shrink_duration_s = 8000.0;
  return plan;
}

void check_report_sane(const Campaign::BotReport& r, std::uint64_t seed,
                       std::size_t i) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " bot=" + std::to_string(i));
  const bool terminal = r.outcome == Campaign::BotOutcome::Completed ||
                        r.outcome == Campaign::BotOutcome::CompletedAfterRetry ||
                        r.outcome == Campaign::BotOutcome::Quarantined;
  EXPECT_TRUE(terminal);
  if (r.outcome == Campaign::BotOutcome::Quarantined) {
    ASSERT_TRUE(r.degradation.has_value());
    EXPECT_EQ(*r.degradation, DegradationReason::BackendFailure);
    return;
  }
  EXPECT_FALSE(std::isnan(r.makespan));
  EXPECT_FALSE(std::isnan(r.tail_makespan));
  EXPECT_FALSE(std::isnan(r.cost_per_task_cents));
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GE(r.tail_makespan, 0.0);
  EXPECT_GE(r.cost_per_task_cents, 0.0);
  if (r.predicted.has_value()) {
    EXPECT_FALSE(std::isnan(r.predicted->makespan));
    EXPECT_FALSE(std::isnan(r.predicted->cost));
  }
}

TEST(ChaosSoak, CampaignSurvivesRandomizedFaultPlans) {
  // Acceptance criterion: >= 8 BoTs under group blackouts and >= 10%
  // dispatch failures complete (or quarantine) without an uncaught
  // exception, across several seeds.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto plan = soak_plan(seed);
    ASSERT_GE(plan.dispatch_failure_prob, 0.10);
    ASSERT_GE(plan.blackouts_per_group, 1u);
    Campaign campaign(chaotic_backend(0xCA4416 + seed, plan), options());
    for (std::size_t i = 0; i < 8; ++i) {
      const auto report = campaign.run_bot(
          bot(100 * seed + i), Utility::min_cost_makespan_product());
      check_report_sane(report, seed, i);
    }
    EXPECT_EQ(campaign.completed_bots(), 8u);
    // Quarantine exists for real backend failures; the simulated backend
    // always returns a trace (possibly truncated), so nothing quarantines.
    EXPECT_EQ(campaign.quarantined_bots(), 0u);
  }
}

TEST(ChaosSoak, IdenticalSeedStreamPlanReplaysByteForByte) {
  const auto plan = soak_plan(2);
  const auto cfg = chaotic_config(0xCA4416, plan);
  const auto strategy = strategies::make_static_strategy(
      strategies::StaticStrategyKind::AUR, kMeanCpu, 0.25);
  for (std::uint64_t stream : {1ULL, 7ULL, 23ULL}) {
    const auto a = gridsim::Executor(cfg).run(bot(9), strategy, stream);
    const auto b = gridsim::Executor(cfg).run(bot(9), strategy, stream);
    std::ostringstream csv_a, csv_b;
    trace::write_csv(a, csv_a);
    trace::write_csv(b, csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str()) << "stream " << stream;
  }
}

TEST(ChaosSoak, DifferentStreamsDiverge) {
  const auto plan = soak_plan(1);
  const auto cfg = chaotic_config(0xCA4416, plan);
  const auto strategy = strategies::make_static_strategy(
      strategies::StaticStrategyKind::AUR, kMeanCpu, 0.25);
  const auto a = gridsim::Executor(cfg).run(bot(9), strategy, 1);
  const auto b = gridsim::Executor(cfg).run(bot(9), strategy, 2);
  std::ostringstream csv_a, csv_b;
  trace::write_csv(a, csv_a);
  trace::write_csv(b, csv_b);
  EXPECT_NE(csv_a.str(), csv_b.str());
}

TEST(ChaosSoak, CampaignReportsAreReproducible) {
  // The whole campaign — recommendations included — replays exactly.
  const auto plan = soak_plan(3);
  auto run_once = [&plan]() {
    Campaign campaign(chaotic_backend(0xCA4416, plan), options());
    std::ostringstream out;
    for (std::size_t i = 0; i < 4; ++i) {
      const auto r = campaign.run_bot(bot(40 + i),
                                      Utility::min_cost_makespan_product());
      out << r.strategy.name << ',' << r.makespan << ','
          << r.cost_per_task_cents << ',' << to_string(r.outcome) << '\n';
    }
    return out.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ChaosSoak, DegradedCharacterizationStillDrivesCampaign) {
  // Heavy result loss starves the characterization of successes; the
  // campaign must degrade to the fallback model, not crash, and keep
  // issuing strategies for every BoT.
  chaos::ChaosConfig plan = soak_plan(1);
  plan.result_loss_prob = 0.6;
  Campaign campaign(chaotic_backend(0xCA4416, plan), options());
  for (std::size_t i = 0; i < 8; ++i) {
    const auto report =
        campaign.run_bot(bot(60 + i), Utility::min_cost_makespan_product());
    check_report_sane(report, 99, i);
    EXPECT_FALSE(report.strategy.name.empty());
  }
  EXPECT_EQ(campaign.completed_bots(), 8u);
}

}  // namespace
}  // namespace expert::core
