// Ablation: the value of the online reliability model's knowledge epochs.
// In an environment whose reliability drifts (resource exclusion replaces
// flaky hosts, so gamma(t') rises during the run — paper experiments 1-6),
// compare three gamma models for predicting the tail:
//   * constant  — a single average over the whole history (no epochs),
//   * online    — the paper's three-epoch construction at T_tail,
//   * offline   — full knowledge (upper bound, unavailable in practice).

#include <cstdio>
#include <iostream>

#include "expert/core/characterization.hpp"
#include "expert/core/estimator.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/stats/summary.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  constexpr double kTur = 1200.0;
  auto grid = gridsim::make_wm(60, /*gamma=*/0.65, kTur);
  grid.groups[0].availability_cv = 1.6;
  gridsim::ExecutorConfig env;
  env.environment =
      gridsim::env::Environment::classic(grid, gridsim::make_tech(10));
  env.exclusion_threshold = 1;  // aggressive culling drives a strong drift
  env.seed = 0xD81F7;
  gridsim::Executor executor(env);

  const auto bot = workload::make_synthetic_bot("drift", 800, kTur, 500.0,
                                                3000.0, 51);
  strategies::NTDMr p;
  p.n = 2;
  p.timeout_t = kTur;
  p.deadline_d = 2.0 * kTur;
  p.mr = 0.1;
  const auto strategy = strategies::make_ntdmr_strategy(p);
  const auto real = executor.run(bot, strategy);

  // Show the drift itself.
  std::cout << "Ablation: reliability models under gamma(t') drift\n\n";
  std::cout << "observed gamma per sending-time window:\n";
  const double t_tail = real.t_tail();
  for (int w = 0; w < 4; ++w) {
    const double lo = t_tail * w / 4.0;
    const double hi = t_tail * (w + 1) / 4.0;
    std::printf("  [%6.0f, %6.0f) s : %.3f\n", lo, hi,
                real.reliability_in_window(lo, hi).value_or(0.0));
  }

  auto estimate_with = [&](const core::TurnaroundModel& model) {
    core::EstimatorConfig cfg;
    cfg.unreliable_size = core::estimate_effective_size_iterative(
        real, model, 2.0 * kTur);
    cfg.tr = kTur;
    cfg.throughput_deadline = 2.0 * kTur;
    cfg.repetitions = 10;
    cfg.seed = 3;
    cfg.tail_tasks_override =
        std::max<std::size_t>(1, real.remaining_at(real.t_tail()));
    core::Estimator est(cfg, model);
    return est.estimate(real.task_count(), strategy).mean;
  };

  core::CharacterizationOptions copts;
  copts.instance_deadline = 2.0 * kTur;
  copts.mode = core::ReliabilityMode::Online;
  const auto online_model = core::characterize(real, copts);
  copts.mode = core::ReliabilityMode::Offline;
  const auto offline_model = core::characterize(real, copts);
  // Constant model: same Fs, single average gamma, no epochs.
  const core::TurnaroundModel constant_model(
      online_model.fs(), std::make_shared<core::ConstantReliability>(
                             real.average_reliability()));

  // Direct accuracy metric: realized reliability of instances sent during
  // the tail vs each model's gamma prediction for those sending times.
  std::size_t tail_sent = 0, tail_ok = 0;
  for (const auto& r : real.records()) {
    if (!r.tail_phase || r.pool != trace::PoolKind::Unreliable) continue;
    if (r.outcome == trace::InstanceOutcome::Cancelled) continue;
    ++tail_sent;
    if (r.successful()) ++tail_ok;
  }
  const double realized_tail_gamma =
      tail_sent ? static_cast<double>(tail_ok) /
                      static_cast<double>(tail_sent)
                : 0.0;
  std::printf("\nrealized gamma of tail-phase sends: %.3f (%zu instances)\n\n",
              realized_tail_gamma, tail_sent);

  util::Table table({"gamma model", "gamma @ tail sends", "gamma error",
                     "pred tail[s]", "dev vs real", "pred c/t",
                     "dev vs real"});
  const double real_tail = real.tail_makespan();
  const double real_cost = real.cost_per_task_cents();
  struct Row {
    const char* name;
    const core::TurnaroundModel* model;
  };
  for (const Row& row : {Row{"constant average", &constant_model},
                         Row{"online (3 epochs)", &online_model},
                         Row{"offline (oracle)", &offline_model}}) {
    const auto m = estimate_with(*row.model);
    const double gamma_at_tail = row.model->gamma(real.t_tail() * 1.01);
    table.add_row(
        {row.name, util::fmt(gamma_at_tail, 3),
         util::fmt_signed_pct(gamma_at_tail - realized_tail_gamma),
         util::fmt(m.tail_makespan, 0),
         util::fmt_signed_pct(
             stats::relative_deviation(m.tail_makespan, real_tail)),
         util::fmt(m.cost_per_task_cents, 2),
         util::fmt_signed_pct(stats::relative_deviation(
             m.cost_per_task_cents, real_cost))});
  }
  table.print(std::cout);
  std::printf("\nreal: tail makespan %0.0f s, cost %.2f c/task\n", real_tail,
              real_cost);
  std::cout
      << "\nReading: the observed gamma windows show the exclusion-driven\n"
         "drift; the online epochs predict a *higher* gamma for tail sends\n"
         "than the whole-history constant (they weight the improved recent\n"
         "windows), moving in the drift's direction. All models remain\n"
         "above the realized tail-send gamma because tail tasks are the\n"
         "long ones — the Fs-separability assumption (F = Fs(t)*gamma(t'))\n"
         "that the paper itself lists as its main deviation source.\n";
  return 0;
}
