// Figure 1: remaining tasks over time during the throughput and tail
// phases. Paper input: Experiment 6 (workload WL5 on the WM pool,
// N = inf, ~201 effective machines, average reliability 0.942).
//
// Prints the remaining-task series, the detected tail-phase start time
// T_tail, and an ASCII rendering of the curve.

#include <cstdio>
#include <iostream>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  const auto spec = workload::workload_spec(workload::WorkloadId::WL5);
  const auto bot = workload::make_bot(spec, 0x516);

  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(201, /*gamma=*/0.942, spec.mean_cpu));
  cfg.seed = 0xF16001;
  gridsim::Executor executor(cfg);

  const auto strategy = strategies::make_static_strategy(
      strategies::StaticStrategyKind::AUR, spec.mean_cpu, 0.0);
  const auto trace = executor.run(bot, strategy);

  std::cout << "Figure 1: remaining tasks over time (Experiment 6 analog)\n";
  std::cout << "Workload " << spec.name << ": " << bot.size()
            << " tasks on WM (l_ur = 201, gamma ~ 0.942), strategy AUR\n\n";

  const double makespan = trace.makespan();
  const double t_tail = trace.t_tail();

  // Sample the series on a uniform grid for a compact plot.
  constexpr int kRows = 30;
  constexpr int kWidth = 60;
  std::cout << "time[s]    remaining\n";
  for (int row = 0; row <= kRows; ++row) {
    const double t = makespan * row / kRows;
    const std::size_t remaining = trace.remaining_at(t);
    const int bar = static_cast<int>(
        static_cast<double>(remaining) * kWidth / static_cast<double>(bot.size()));
    std::printf("%8.0f   %5zu |%s%s\n", t, remaining,
                std::string(static_cast<std::size_t>(bar), '#').c_str(),
                t < t_tail && makespan * (row + 1) / kRows >= t_tail
                    ? "   <-- T_tail"
                    : "");
  }

  std::printf("\nT_tail            : %8.0f s\n", t_tail);
  std::printf("BoT makespan      : %8.0f s\n", makespan);
  std::printf("Tail makespan     : %8.0f s\n", trace.tail_makespan());
  std::printf("Observed gamma    : %8.3f\n", trace.average_reliability());

  // Paper shape: the tail phase is a long, flat stretch — a small number of
  // remaining tasks occupying a small fraction of the pool for a large
  // fraction of the makespan.
  const std::size_t tail_tasks = trace.remaining_at(t_tail);
  std::printf("Tail tasks        : %8zu (%.1f%% of BoT)\n", tail_tasks,
              100.0 * static_cast<double>(tail_tasks) /
                  static_cast<double>(bot.size()));
  std::printf("Tail fraction of makespan: %.1f%%\n",
              100.0 * trace.tail_makespan() / makespan);
  return 0;
}
