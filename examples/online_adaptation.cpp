// Online adaptation: the full ExPERT deployment loop on a single BoT.
//
// The BoT starts under the default no-replication strategy. The moment the
// tail phase begins, ExPERT characterizes the throughput phase of THIS run
// (online reliability model — no prior history needed), samples the NTDMr
// space, builds the Pareto frontier, and installs the chosen tail strategy
// mid-flight. We compare against letting the naive strategy run to the end.

#include <cstdio>
#include <iostream>

#include "expert/core/expert.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/strategies/parser.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  const auto spec = workload::workload_spec(workload::WorkloadId::WL1);
  const auto bot = workload::make_bot(spec, 0x0ADA);

  gridsim::ExecutorConfig env;
  env.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(200, /*gamma=*/0.82, spec.mean_cpu),
      gridsim::make_tech(20));
  env.seed = 0x0ADA7;
  gridsim::Executor executor(env);

  const auto naive = strategies::make_static_strategy(
      strategies::StaticStrategyKind::AUR, spec.mean_cpu, 0.1);

  std::puts("=== baseline: naive AUR for the whole BoT ===");
  const auto baseline = executor.run(bot, naive, /*stream=*/1);
  std::printf("  makespan %0.0f s (tail %0.0f s), cost %.2f cent/task\n",
              baseline.makespan(), baseline.tail_makespan(),
              baseline.cost_per_task_cents());

  std::puts("\n=== adaptive: ExPERT decides the tail strategy at T_tail ===");
  core::UserParams params;
  params.tur = spec.mean_cpu;
  params.tr = spec.mean_cpu;

  const auto adaptive = executor.run_adaptive(
      bot, naive,
      [&](const trace::ExecutionTrace& history) {
        std::printf("  [T_tail = %0.0f s] characterizing %zu records...\n",
                    history.t_tail(), history.records().size());
        core::ExpertOptions options;
        options.repetitions = 5;
        options.characterization.mode = core::ReliabilityMode::Online;
        options.sampling.n_values = {1u, 2u, 3u};
        options.sampling.d_samples = 4;
        options.sampling.t_samples = 4;
        options.sampling.mr_values = {0.02, 0.05, 0.1};
        const auto expert =
            core::Expert::from_history(history, params, options);
        std::printf("  estimated effective pool size: %zu\n",
                    expert.unreliable_size());
        const auto rec = expert.recommend(
            bot.size(), core::Utility::min_cost_makespan_product());
        if (!rec) return naive;
        std::printf("  installing tail strategy: %s\n",
                    strategies::format_strategy(
                        strategies::make_ntdmr_strategy(rec->strategy),
                        spec.mean_cpu)
                        .c_str());
        return strategies::make_ntdmr_strategy(rec->strategy);
      },
      /*stream=*/1);

  std::printf("  makespan %0.0f s (tail %0.0f s), cost %.2f cent/task\n",
              adaptive.makespan(), adaptive.tail_makespan(),
              adaptive.cost_per_task_cents());

  std::printf("\ntail makespan: %0.0f s -> %0.0f s (%0.0f%% shorter)\n",
              baseline.tail_makespan(), adaptive.tail_makespan(),
              100.0 * (1.0 - adaptive.tail_makespan() /
                                 baseline.tail_makespan()));
  std::printf("cost/task    : %.2f c -> %.2f c\n",
              baseline.cost_per_task_cents(), adaptive.cost_per_task_cents());
  return 0;
}
