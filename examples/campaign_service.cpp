// Campaign service: a superlink-online-style portal that executes a stream
// of submitted BoTs on grid+cloud resources. The first BoT runs naively;
// every later BoT is scheduled with an ExPERT recommendation derived from
// the accumulated execution history (a rolling window, so the model tracks
// the environment).

#include <cstdio>
#include <iostream>

#include "expert/core/campaign.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  constexpr double kTur = 1600.0;

  gridsim::ExecutorConfig env;
  env.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(150, /*gamma=*/0.84, kTur), gridsim::make_tech(15));
  env.seed = 0x5E41CE;

  core::Campaign::Options options;
  options.params.tur = kTur;
  options.params.tr = kTur;
  options.expert.repetitions = 5;
  options.expert.sampling.n_values = {1u, 2u, 3u};
  options.expert.sampling.d_samples = 3;
  options.expert.sampling.t_samples = 3;
  options.expert.sampling.mr_values = {0.02, 0.05, 0.1};
  options.history_window = 3;

  core::Campaign campaign(
      [&env](const workload::Bot& bot,
             const strategies::StrategyConfig& strategy,
             std::uint64_t stream) {
        return gridsim::Executor(env).run(bot, strategy, stream);
      },
      options);

  const auto utility = core::Utility::min_cost_makespan_product();

  // A week of submissions: different sizes, same environment.
  const std::size_t sizes[] = {400, 350, 500, 450, 380, 520};
  util::Table table({"BoT", "tasks", "strategy", "informed?", "makespan[s]",
                     "tail[s]", "cost[c/task]", "tail*cost"});
  std::size_t day = 0;
  for (std::size_t tasks : sizes) {
    const auto bot = workload::make_synthetic_bot(
        "day" + std::to_string(day), tasks, kTur, 600.0, 4000.0, 100 + day);
    const auto report = campaign.run_bot(bot, utility);
    table.add_row({std::to_string(day), std::to_string(tasks),
                   report.strategy.name,
                   report.used_recommendation ? "yes" : "no",
                   util::fmt(report.makespan, 0),
                   util::fmt(report.tail_makespan, 0),
                   util::fmt(report.cost_per_task_cents, 2),
                   util::fmt(report.tail_makespan *
                                 report.cost_per_task_cents, 0)});
    ++day;
  }
  std::cout << "Campaign of " << campaign.completed_bots()
            << " BoTs (utility: tail-makespan x cost):\n\n";
  table.print(std::cout);

  const auto& reports = campaign.reports();
  double naive_u = reports.front().tail_makespan *
                   reports.front().cost_per_task_cents;
  double informed_u = 0.0;
  int informed = 0;
  for (std::size_t i = 1; i < reports.size(); ++i) {
    informed_u +=
        reports[i].tail_makespan * reports[i].cost_per_task_cents;
    ++informed;
  }
  informed_u /= informed;
  std::printf("\nmean informed utility vs naive day-0: %.0f vs %.0f "
              "(%.0f%% better)\n",
              informed_u, naive_u, 100.0 * (1.0 - informed_u / naive_u));
  return 0;
}
