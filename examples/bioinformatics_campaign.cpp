// Bioinformatics campaign: the paper's motivating scenario end to end.
//
// A genetic-linkage-analysis BoT (workload WL1) runs on a mixed
// grid+cloud environment: the UW-Madison Condor pool (unreliable, free-ish)
// plus a small reliable pool. A scientist first runs one BoT with the naive
// CN-inf strategy, then lets ExPERT learn the environment from that
// history and pick a Pareto-efficient NTDMr strategy for the next BoT of
// the campaign. We replay both strategies on the machine-level simulator
// and report the savings (paper: 30-70% on both makespan and cost).

#include <cstdio>
#include <iostream>

#include "expert/core/expert.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  const auto spec = workload::workload_spec(workload::WorkloadId::WL1);

  gridsim::ExecutorConfig env;
  env.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(200, /*gamma=*/0.86, spec.mean_cpu),
      gridsim::make_tech(20));
  env.seed = 0xB10;
  gridsim::Executor executor(env);

  std::puts("=== Campaign day 1: naive CN-inf run (history gathering) ===");
  const auto first_bot = workload::make_bot(spec, 0xDA41);
  const auto naive = strategies::make_static_strategy(
      strategies::StaticStrategyKind::CNInf, spec.mean_cpu, 0.1);
  const auto history = executor.run(first_bot, naive, /*stream=*/1);
  std::printf("  makespan %0.0f s, cost %.2f cent/task, reliability %.3f\n",
              history.makespan(), history.cost_per_task_cents(),
              history.average_reliability());

  std::puts("\n=== ExPERT: characterize history, build frontier, decide ===");
  core::UserParams params;
  params.tur = spec.mean_cpu;
  params.tr = spec.mean_cpu;
  core::ExpertOptions options;
  options.repetitions = 10;
  options.frontier.time_objective = core::TimeObjective::BotMakespan;
  const auto expert = core::Expert::from_history(history, params, options);
  std::printf("  estimated effective pool size: %zu machines\n",
              expert.unreliable_size());

  const auto frontier = expert.build_frontier(spec.task_count);
  const auto rec = core::Expert::recommend(
      frontier, core::Utility::min_cost_makespan_product());
  if (!rec) {
    std::puts("  no feasible recommendation — aborting");
    return 1;
  }
  std::printf("  recommended strategy: %s\n", rec->strategy.to_string().c_str());
  std::printf("  predicted: makespan %0.0f s, cost %.2f cent/task\n",
              rec->predicted.makespan, rec->predicted.cost);

  std::puts("\n=== Campaign day 2: replay both strategies on a fresh BoT ===");
  const auto second_bot = workload::make_bot(spec, 0xDA42);
  const auto tuned = strategies::make_ntdmr_strategy(rec->strategy);
  const auto run_naive = executor.run(second_bot, naive, /*stream=*/2);
  const auto run_tuned = executor.run(second_bot, tuned, /*stream=*/2);

  std::printf("  CN-inf : makespan %7.0f s, cost %5.2f cent/task\n",
              run_naive.makespan(), run_naive.cost_per_task_cents());
  std::printf("  ExPERT : makespan %7.0f s, cost %5.2f cent/task\n",
              run_tuned.makespan(), run_tuned.cost_per_task_cents());
  std::printf("\n  savings: %0.0f%% makespan, %0.0f%% cost "
              "(paper: 30-70%% on both)\n",
              100.0 * (1.0 - run_tuned.makespan() / run_naive.makespan()),
              100.0 * (1.0 - run_tuned.cost_per_task_cents() /
                                 run_naive.cost_per_task_cents()));
  return 0;
}
