// Ablation: does the recommendation deliver? ExPERT picks a strategy from
// statistical estimates; here we replay each recommended strategy on the
// machine-level simulator (the "real" environment) and compare predicted
// vs delivered makespan and cost — the end-to-end fidelity that Table V
// measures per strategy, now measured at the recommendation level.

#include <cstdio>
#include <iostream>

#include "expert/core/expert.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/stats/summary.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  constexpr double kTur = 1600.0;
  gridsim::ExecutorConfig env;
  env.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(120, /*gamma=*/0.82, kTur), gridsim::make_tech(12));
  env.seed = 0xF1DE;
  gridsim::Executor executor(env);

  const auto bot = workload::make_synthetic_bot("fidelity", 400, kTur, 600.0,
                                                4000.0, 41);

  // History: one naive run.
  const auto history = executor.run(
      bot, strategies::make_static_strategy(
               strategies::StaticStrategyKind::AUR, kTur, 0.1),
      /*stream=*/0);

  core::UserParams params;
  params.tur = kTur;
  params.tr = kTur;
  core::ExpertOptions options;
  options.repetitions = 10;
  options.sampling.n_values = {1u, 2u, 3u};
  options.sampling.mr_values = {0.02, 0.05, 0.1};
  const auto expert = core::Expert::from_history(history, params, options);
  const auto frontier = expert.build_frontier(bot.size());

  std::cout << "Ablation: predicted vs delivered performance of "
               "recommendations\n\n";
  util::Table table({"utility", "strategy", "pred tail[s]", "real tail[s]",
                     "dev", "pred c/t", "real c/t", "dev"});

  stats::Accumulator abs_tail_dev, abs_cost_dev;
  const std::vector<core::Utility> utilities = {
      core::Utility::fastest(),
      core::Utility::min_cost_makespan_product(),
      core::Utility::cheapest(),
  };
  for (const auto& u : utilities) {
    const auto rec = core::Expert::recommend(frontier, u);
    if (!rec) continue;
    // Replay on the machine-level environment (mean of 3 streams).
    double tail = 0.0, cost = 0.0;
    constexpr int kStreams = 3;
    for (int s = 1; s <= kStreams; ++s) {
      const auto replay = executor.run(
          bot, strategies::make_ntdmr_strategy(rec->strategy),
          static_cast<std::uint64_t>(s));
      tail += replay.tail_makespan();
      cost += replay.cost_per_task_cents();
    }
    tail /= kStreams;
    cost /= kStreams;
    const double tail_dev =
        stats::relative_deviation(rec->predicted.metrics.tail_makespan, tail);
    const double cost_dev = stats::relative_deviation(
        rec->predicted.metrics.cost_per_task_cents, cost);
    abs_tail_dev.add(std::abs(tail_dev));
    abs_cost_dev.add(std::abs(cost_dev));
    table.add_row({u.name(), rec->strategy.to_string(),
                   util::fmt(rec->predicted.metrics.tail_makespan, 0),
                   util::fmt(tail, 0), util::fmt_signed_pct(tail_dev),
                   util::fmt(rec->predicted.metrics.cost_per_task_cents, 2),
                   util::fmt(cost, 2), util::fmt_signed_pct(cost_dev)});
  }
  table.print(std::cout);
  std::printf("\nmean |deviation|: tail makespan %.0f%%, cost %.0f%% "
              "(Table V scale: 10-25%%)\n",
              100.0 * abs_tail_dev.mean(), 100.0 * abs_cost_dev.mean());
  return 0;
}
