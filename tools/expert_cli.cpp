// expert_cli — command-line front end to the ExPERT framework.
//
//   expert_cli characterize --trace FILE [--mode online|offline]
//       [--deadline SECONDS]
//     Print the statistical characterization of an execution trace.
//
//   expert_cli frontier --trace FILE --tasks N [--reps R] [--csv]
//     Build the Pareto frontier for the next BoT from a history trace.
//
//   expert_cli recommend --trace FILE --tasks N --utility U [--reps R]
//     U: fastest | cheapest | product | budget:<cent/task> | deadline:<s>
//     Print the chosen N, T, D, Mr strategy string.
//
//   expert_cli simulate --strategy "N=3 T=2066 D=4132 Mr=0.02" --tasks N
//       [--pool L] [--gamma G] [--tur S] [--reps R]
//     Estimate makespan/cost of a strategy on a synthetic pool model.
//
//   expert_cli profile [--tasks N] [--pool L] [--gamma G] [--tur S]
//       [--reps R]
//     Run a synthetic frontier sweep with the phase profiler armed and
//     print the per-phase wall-time table (task-time draws, replication
//     loop, aggregation, cache lookups).
//
//   expert_cli execute [--experiment K] [--reps R] [--mode online|offline]
//       [--chaos PLAN] [--bots K] [--utility U] [--journal FILE] [--resume]
//       [--drift] [--backend-timeout S]
//     Run one Table V validation experiment machine-level (gridsim) and
//     compare against the Estimator's prediction. With --chaos, inject the
//     deterministic fault plan (see docs/robustness.md for the plan
//     grammar); with --bots K > 1, run a K-BoT campaign through the full
//     characterize -> recommend -> execute loop and report per-BoT
//     outcomes (completed / retried / quarantined) plus any degradation.
//     --journal FILE journals every finished BoT; --resume continues a
//     killed campaign from that journal, reproducing the uninterrupted
//     run's remaining BoTs exactly. --drift enables the online drift
//     detector. --backend process runs each BoT evaluation in a
//     supervised worker subprocess (--workers N slots; see
//     docs/process-backend.md); deterministic output is unchanged.
//     --backend-timeout S (process backend only) is the supervisor's
//     per-BoT deadline: a worker still running after S seconds is killed
//     and the attempt fails into the campaign's retry path.
//
//   expert_cli serve --feed FILE|- [--state-dir DIR] [--resume] ...
//     Run the multi-tenant campaign service against a line-oriented feed
//     of submit/step/run/status/shutdown verbs: admission control with
//     bounded queueing and deterministic load shedding, deficit-round-
//     robin fair-share scheduling over the shared eval service, per-
//     tenant budgets, tenant-targeted chaos, and crash-safe resume from
//     --state-dir (see docs/service.md).
//
//   expert_cli worker [--experiment K] [--seed S] [--chaos PLAN]
//     Internal: the process the supervisor self-execs for --backend
//     process. Speaks the procexec wire protocol on fd 3; not for
//     interactive use. With --synthetic, rebuilds a serve tenant's
//     environment instead of a Table V experiment's.
//
// Every command accepts --metrics-out=FILE and --trace-out=FILE to dump
// the run's metrics snapshot (JSON) and Chrome-trace spans, and --profile
// to print the phase-profiler table after the command finishes.

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "expert/chaos/chaos.hpp"
#include "expert/core/campaign.hpp"
#include "expert/core/expert.hpp"
#include "expert/core/frontier.hpp"
#include "expert/core/frontier_io.hpp"
#include "expert/core/report.hpp"
#include "expert/core/sensitivity.hpp"
#include "expert/procexec/supervisor.hpp"
#include "expert/procexec/worker.hpp"
#include "expert/resilience/drift.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/resilience/serial.hpp"
#include "expert/service/service.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/eval/service.hpp"
#include "expert/obs/profile.hpp"
#include "expert/obs/report.hpp"
#include "expert/strategies/parser.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/args.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

namespace {

using namespace expert;

int usage() {
  std::cerr <<
      "usage: expert_cli "
      "<characterize|frontier|recommend|simulate|execute|sensitivity|report"
      "|profile|serve> [options]\n"
      "  characterize --trace FILE [--mode online|offline] [--deadline S]\n"
      "  frontier     --trace FILE --tasks N [--reps R] [--csv]\n"
      "               [--out FILE] (persist frontier points as CSV)\n"
      "               [--arch A] (no --trace needed: synthesize the history\n"
      "               from one gridsim run of the reference environment)\n"
      "  recommend    --trace FILE --tasks N --utility U [--reps R]\n"
      "               U: fastest|cheapest|product|budget:<c/task>|"
      "deadline:<s>\n"
      "  simulate     --strategy STR --tasks N [--pool L] [--gamma G]\n"
      "               [--tur S] [--reps R]\n"
      "  execute      [--experiment 1..13] [--reps R] [--mode online|offline]\n"
      "               [--seed S] [--chaos PLAN] [--bots K] [--utility U]\n"
      "               PLAN e.g. 'blackouts=2,blackout_window=40000,\n"
      "               blackout_duration=5000,dispatch_fail=0.2,loss=0.05'\n"
      "               [--journal FILE] (journal each finished BoT)\n"
      "               [--resume] (continue a killed campaign from --journal)\n"
      "               [--drift] (online gamma/turnaround drift detection)\n"
      "               [--backend-timeout S] (wall-clock watchdog per BoT)\n"
      "               [--backend gridsim|process] [--workers N]\n"
      "               (process: evaluate each BoT in a supervised worker\n"
      "               subprocess; same bytes out as gridsim)\n"
      "               [--arch classic|spot|serverless|multiregion|volunteer]\n"
      "               (swap the experiment onto a reference environment\n"
      "               architecture; classic is the unchanged default)\n"
      "  serve        --feed FILE|- [--state-dir DIR] [--resume]\n"
      "               [--max-tenants N] [--queue N] [--quantum UNITS]\n"
      "               [--backend gridsim|process] [--workers N] [--seed S]\n"
      "               [--chaos 'id:plan;id2:plan'] [--kill-after-bots K]\n"
      "               (multi-tenant campaign service; feed verbs: submit,\n"
      "               step, run, status, shutdown — see docs/service.md)\n"
      "  worker       internal target of --backend process (wire protocol\n"
      "               on fd 3); never invoke by hand\n"
      "  profile      [--tasks N] [--pool L] [--gamma G] [--tur S] [--reps R]\n"
      "               (frontier sweep with the phase profiler armed; prints\n"
      "               per-phase wall time)\n"
      "global: --metrics-out FILE (metrics JSON), --trace-out FILE\n"
      "        (Chrome trace JSON for chrome://tracing / Perfetto)\n"
      "        --eval-cache N (strategy-evaluation cache capacity in\n"
      "        entries; 0 disables caching)\n"
      "        --profile (print the phase-profiler table after the command)\n";
  return 2;
}

trace::ExecutionTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  EXPERT_REQUIRE(in.good(), "cannot open trace file: " + path);
  return trace::read_csv(in);
}

core::ReliabilityMode parse_mode(const util::Args& args) {
  const std::string mode = args.option_or("mode", "online");
  EXPERT_REQUIRE(mode == "online" || mode == "offline",
                 "--mode must be online or offline");
  return mode == "online" ? core::ReliabilityMode::Online
                          : core::ReliabilityMode::Offline;
}

core::ExpertOptions expert_options(const util::Args& args) {
  core::ExpertOptions options;
  options.repetitions =
      static_cast<std::size_t>(args.number_or("reps", 10.0));
  options.characterization.mode = parse_mode(args);
  return options;
}

/// The Estimator over a synthetic pool model that `simulate`, `profile`
/// and `sensitivity` share: --pool machines of reliability --gamma with
/// mean turnaround --tur, averaged over --reps repetitions.
core::Estimator synthetic_estimator(const util::Args& args,
                                    double default_reps) {
  const double tur = args.number_or("tur", 2066.0);
  const auto pool = static_cast<std::size_t>(args.number_or("pool", 50.0));
  const double gamma = args.number_or("gamma", 0.85);
  core::UserParams params;
  params.tur = tur;
  params.tr = tur;
  auto cfg = core::EstimatorConfig::from_user_params(params, pool);
  cfg.repetitions =
      static_cast<std::size_t>(args.number_or("reps", default_reps));
  return core::Estimator(
      cfg, core::make_synthetic_model(tur, 0.15 * tur, 3.0 * tur, gamma));
}

int cmd_characterize(const util::Args& args) {
  EXPERT_SPAN("cli.characterize");
  core::CharacterizationOptions opts;
  opts.mode = parse_mode(args);
  const auto history = load_trace(args.required("trace"));
  opts.instance_deadline = args.number_or("deadline", 0.0);
  const auto checked = core::characterize_checked(history, opts);
  const auto& quality = checked.quality;

  util::Table table({"quantity", "value"});
  table.add_row({"records", std::to_string(history.records().size())});
  table.add_row({"tasks", std::to_string(history.task_count())});
  table.add_row({"T_tail [s]", util::fmt(history.t_tail(), 0)});
  table.add_row({"makespan [s]", util::fmt(history.makespan(), 0)});
  table.add_row({"truncated", history.truncated() ? "yes" : "no"});
  table.add_row({"cost [cent/task]",
                 util::fmt(history.cost_per_task_cents(), 3)});
  table.add_row({"pre-tail unreliable instances",
                 std::to_string(quality.unreliable_instances)});
  table.add_row({"observed successes",
                 std::to_string(quality.observed_successes)});
  table.add_row({"censored fraction",
                 util::fmt(quality.censored_fraction, 3)});
  table.add_row({"epoch-1 / epoch-2 samples",
                 std::to_string(quality.epoch1_instances) + " / " +
                     std::to_string(quality.epoch2_instances)});
  if (checked.model) {
    const auto& model = *checked.model;
    table.add_row({"Fs samples", std::to_string(model.fs().size())});
    table.add_row({"mean turnaround [s]",
                   util::fmt(model.mean_successful_turnaround(), 0)});
    table.add_row(
        {"mean gamma", util::fmt(model.gamma_model().mean_gamma(), 3)});
    table.add_row({"gamma (future sends)", util::fmt(model.gamma(1e15), 3)});
    table.add_row({"effective pool size (occupancy)",
                   std::to_string(core::estimate_effective_size(history))});
  } else {
    table.add_row({"degraded", core::to_string(*checked.degradation)});
  }
  table.print(std::cout);
  if (!checked.model) {
    std::cout << "history cannot support a model ("
              << core::to_string(*checked.degradation)
              << "); callers fall back to the bootstrap model\n";
    return 1;
  }
  return 0;
}

/// A Table V experiment's executor config as --experiment, --seed,
/// --chaos and --arch select it. `frontier`, `execute` and `worker` all
/// build it here, so a self-exec'd worker reproduces its parent's
/// environment byte for byte.
struct ExperimentEnvironment {
  const gridsim::TableVExperiment& exp;
  std::uint64_t seed = 0;  ///< --seed
  gridsim::ExecutorConfig config;
  /// Eval-key environment digest: 0 for classic, so classic eval keys and
  /// RNG streams stay those of the pre-architecture CLI.
  std::uint64_t digest = 0;
};

ExperimentEnvironment experiment_environment(const util::Args& args) {
  const int number = static_cast<int>(args.number_or("experiment", 11.0));
  const gridsim::TableVExperiment* exp = nullptr;
  for (const auto& e : gridsim::table_v_experiments()) {
    if (e.number == number) exp = &e;
  }
  EXPERT_REQUIRE(exp != nullptr,
                 "--experiment must name a Table V row (1..13)");
  const auto seed = static_cast<std::uint64_t>(args.number_or("seed", 0.0));
  const std::uint64_t env_seed =
      0x7AB1E + seed + static_cast<std::uint64_t>(number);
  ExperimentEnvironment out{
      *exp, seed, gridsim::make_experiment_environment(*exp, env_seed)};
  if (const auto plan = args.option("chaos")) {
    out.config.chaos = chaos::parse_chaos_plan(*plan);
  }
  // Any architecture but classic swaps in its reference environment, at
  // the row's grid size and gamma calibration.
  const auto arch =
      gridsim::env::parse_architecture(args.option_or("arch", "classic"));
  if (arch != gridsim::env::Architecture::Classic) {
    out.config.environment = gridsim::env::make_reference_environment(
        arch, exp->unreliable_size, exp->gamma,
        workload::workload_spec(exp->workload).mean_cpu);
    out.digest = out.config.environment.digest();
  }
  return out;
}

int cmd_frontier(const util::Args& args) {
  EXPERT_SPAN("cli.frontier");
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  auto options = expert_options(args);
  trace::ExecutionTrace history;
  if (const auto path = args.option("trace")) {
    history = load_trace(*path);
  } else {
    // --arch without --trace: synthesize the history by executing one BoT
    // of the selected Table V experiment on the architecture's reference
    // environment, then characterize that trace exactly as a loaded one.
    EXPERT_REQUIRE(args.option("arch").has_value(),
                   "--trace is required (or pass --arch to synthesize one)");
    const auto env = experiment_environment(args);
    options.environment_digest = env.digest;
    const gridsim::Executor executor(env.config);
    const auto bot = workload::make_bot(
        env.exp.workload,
        0xB07 + env.seed + static_cast<std::uint64_t>(env.exp.number));
    history = executor.run(bot, gridsim::make_experiment_strategy(env.exp));
    std::cerr << "synthesized history: " << executor.environment().name()
              << ", " << history.records().size() << " records\n";
  }
  const auto expert =
      core::Expert::from_history(history, core::UserParams{}, options);
  const auto result = expert.build_frontier(tasks);

  if (const auto out = args.option("out")) {
    core::write_points_csv_file(result.frontier(), *out);
    std::cerr << "wrote " << result.frontier().size()
              << " frontier points to " << *out << "\n";
  }
  if (args.has_flag("csv")) {
    std::cout << "tail_makespan_s,cost_cents_per_task,n,t_s,d_s,mr\n";
    for (const auto& p : result.frontier()) {
      std::cout << p.makespan << ',' << p.cost << ','
                << (p.params.n ? std::to_string(*p.params.n) : "inf") << ','
                << p.params.timeout_t << ',' << p.params.deadline_d << ','
                << p.params.mr << '\n';
    }
    return 0;
  }
  util::Table table({"tail makespan [s]", "cost [cent/task]", "strategy"});
  for (const auto& p : result.frontier()) {
    table.add_row({util::fmt(p.makespan, 0), util::fmt(p.cost, 2),
                   p.params.to_string()});
  }
  table.print(std::cout);
  std::cout << "(" << result.sampled.size() << " strategies sampled; pool "
            << expert.unreliable_size() << " machines estimated)\n";
  return 0;
}

int cmd_recommend(const util::Args& args) {
  EXPERT_SPAN("cli.recommend");
  const auto history = load_trace(args.required("trace"));
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto utility = core::parse_utility(args.required("utility"));
  const auto expert = core::Expert::from_history(
      history, core::UserParams{}, expert_options(args));
  const auto rec = expert.recommend(tasks, utility);
  if (!rec) {
    std::cout << "no feasible strategy for utility '" << utility.name()
              << "'\n";
    return 1;
  }
  std::cout << rec->strategy.to_string() << "\n";
  std::cout << "predicted: tail makespan " << util::fmt(rec->predicted.makespan, 0)
            << " s, cost " << util::fmt(rec->predicted.cost, 2)
            << " cent/task\n";
  return 0;
}

int cmd_simulate(const util::Args& args) {
  EXPERT_SPAN("cli.simulate");
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto estimator = synthetic_estimator(args, 10.0);
  const auto strategy = strategies::parse_strategy(
      args.required("strategy"), estimator.config().tr, /*mr_max=*/1.0, tasks);
  const auto est = estimator.estimate(tasks, strategy);

  util::Table table({"metric", "mean", "stddev"});
  table.add_row({"BoT makespan [s]", util::fmt(est.mean.makespan, 0),
                 util::fmt(est.stddev.makespan, 0)});
  table.add_row({"tail makespan [s]", util::fmt(est.mean.tail_makespan, 0),
                 util::fmt(est.stddev.tail_makespan, 0)});
  table.add_row({"cost [cent/task]",
                 util::fmt(est.mean.cost_per_task_cents, 3),
                 util::fmt(est.stddev.cost_per_task_cents, 3)});
  table.add_row({"reliable instances",
                 util::fmt(est.mean.reliable_instances_sent, 1),
                 util::fmt(est.stddev.reliable_instances_sent, 1)});
  table.add_row({"used Mr", util::fmt(est.mean.used_mr, 3),
                 util::fmt(est.stddev.used_mr, 3)});
  table.print(std::cout);
  return 0;
}

/// Canned workload for the phase profiler: a full paper-style frontier
/// sweep over a synthetic pool model, routed through the shared eval
/// service so every estimator hot phase — cache lookups, task-time draws,
/// the replication loop and aggregation — shows up in the table.
int cmd_profile(const util::Args& args) {
  EXPERT_SPAN("cli.profile");
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 150.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks must be positive");
  const auto estimator = synthetic_estimator(args, 5.0);
  const core::EstimatorConfig& cfg = estimator.config();

  obs::PhaseProfiler& profiler = obs::PhaseProfiler::global();
  profiler.set_enabled(true);
  profiler.reset();

  core::SamplingSpec spec;
  spec.max_deadline = cfg.throughput_deadline;
  core::FrontierOptions fopts;
  fopts.consumer = "profile";
  const auto result = core::generate_frontier(estimator, tasks, spec, fopts);

  std::cout << "profiled " << result.sampled.size()
            << " strategy evaluations (" << cfg.repetitions
            << " repetitions each, " << tasks << " tasks, pool "
            << cfg.unreliable_size << ")\n";
  profiler.write_table(std::cout);
  return 0;
}

int cmd_sensitivity(const util::Args& args) {
  EXPERT_SPAN("cli.sensitivity");
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto estimator = synthetic_estimator(args, 10.0);
  const auto strategy = strategies::parse_strategy(
      args.required("strategy"), estimator.config().tr, /*mr_max=*/1.0, tasks);
  EXPERT_REQUIRE(strategy.tail_mode == strategies::TailMode::NTDMrTail,
                 "sensitivity analysis needs an NTDMr strategy");
  const auto report =
      core::analyze_sensitivity(estimator, tasks, strategy.ntdmr);

  std::cout << "base: tail makespan "
            << util::fmt(report.base.tail_makespan, 0) << " s, cost "
            << util::fmt(report.base.cost_per_task_cents, 2)
            << " cent/task\n\n";
  util::Table table({"parameter", "low", "high", "makespan elasticity",
                     "cost elasticity"});
  for (const auto& s : report.parameters) {
    table.add_row({s.parameter, util::fmt(s.low_value, 2),
                   util::fmt(s.high_value, 2),
                   util::fmt(s.makespan_elasticity, 2),
                   util::fmt(s.cost_elasticity, 2)});
  }
  table.print(std::cout);
  std::cout << "(elasticity: relative metric change per relative parameter "
               "change)\n";
  return 0;
}

int cmd_report(const util::Args& args) {
  EXPERT_SPAN("cli.report");
  const auto history = load_trace(args.required("trace"));
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto options = expert_options(args);
  const core::UserParams params;
  const auto expert = core::Expert::from_history(history, params, options);
  const auto frontier = expert.build_frontier(tasks);

  core::ReportData data;
  data.title = "ExPERT report — " + args.required("trace");
  data.params = params;
  data.model = &expert.estimator().model();
  data.unreliable_size = expert.unreliable_size();
  data.frontier = &frontier;
  data.task_count = tasks;
  for (const auto& u :
       {core::Utility::fastest(), core::Utility::cheapest(),
        core::Utility::min_cost_makespan_product()}) {
    if (const auto rec = core::Expert::recommend(frontier, u)) {
      data.decisions.emplace_back(u.name(), *rec);
    }
  }
  std::cout << core::render_markdown_report(data);
  return 0;
}

/// --backend, --workers and --kill-after-bots, shared by `serve` and
/// campaign `execute`.
struct BackendOptions {
  /// This binary, set for --backend process: workers self-exec it as
  /// `expert_cli worker ...`.
  std::string worker_program;
  int workers = 1;
  /// Crash-harness hook: SIGKILL after the K-th finished BoT (0 = never).
  std::size_t kill_after_bots = 0;

  bool process() const { return !worker_program.empty(); }

  /// A supervised pool of `workers` worker processes run with `worker_args`,
  /// killing a request that runs past `bot_deadline_s` (0 = never).
  std::shared_ptr<procexec::ProcessPool> worker_pool(
      std::vector<std::string> worker_args, double bot_deadline_s = 0.0) const {
    procexec::SupervisorOptions popts;
    popts.workers = workers;
    popts.worker_program = worker_program;
    popts.worker_args = std::move(worker_args);
    popts.bot_deadline_s = bot_deadline_s;
    return std::make_shared<procexec::ProcessPool>(std::move(popts));
  }
};

BackendOptions parse_backend_options(const util::Args& args) {
  const std::string kind = args.option_or("backend", "gridsim");
  EXPERT_REQUIRE(kind == "gridsim" || kind == "process",
                 "--backend must be gridsim or process");
  BackendOptions out;
  if (kind == "process") {
    char buf[4096];
    const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    EXPERT_REQUIRE(n > 0,
                   "cannot resolve /proc/self/exe for worker self-exec");
    out.worker_program.assign(buf, static_cast<std::size_t>(n));
  }
  out.workers = static_cast<int>(args.number_or("workers", 1.0));
  out.kill_after_bots =
      static_cast<std::size_t>(args.number_or("kill-after-bots", 0.0));
  return out;
}

/// The in-process backend: every BoT runs on `executor`.
core::Campaign::Backend run_on(const gridsim::Executor& executor) {
  return [&executor](const workload::Bot& bot,
                     const strategies::StrategyConfig& strategy,
                     std::uint64_t stream) {
    return executor.run(bot, strategy, stream);
  };
}

/// A `serve` tenant's executor config, rebuilt from the worker argv the
/// process backend's factory writes, via service::gridsim_executor_config
/// — the function the in-process gridsim factory uses.
gridsim::ExecutorConfig tenant_executor_config(const util::Args& args) {
  service::GridsimBackendOptions gopts;
  gopts.unreliable_machines =
      static_cast<std::size_t>(args.number_or("machines", 40.0));
  gopts.gamma = args.number_or("gamma", 0.82);
  gopts.reliable_machines =
      static_cast<std::size_t>(args.number_or("reliable", 10.0));
  gopts.seed = static_cast<std::uint64_t>(
      args.number_or("factory-seed", static_cast<double>(gopts.seed)));
  service::TenantSpec spec;
  spec.id = args.required("tenant");
  spec.mean_cpu = args.number_or("mean-cpu", 1000.0);
  spec.seed = static_cast<std::uint64_t>(args.number_or("tenant-seed", 0.0));
  if (const auto plan = args.option("chaos")) {
    gopts.chaos.push_back({spec.id, chaos::parse_chaos_plan(*plan)});
  }
  return service::gridsim_executor_config(gopts, spec);
}

/// Internal subcommand the supervisor self-execs for --backend process.
/// Rebuilds the exact executor the in-process backend uses — a Table V
/// experiment's, or with --synthetic a `serve` tenant's — and serves
/// (bot, strategy, stream) requests over the wire protocol on fd 3, which
/// is what makes the process backend byte-identical to gridsim.
int cmd_worker(const util::Args& args) {
  const gridsim::Executor executor(args.has_flag("synthetic")
                                       ? tenant_executor_config(args)
                                       : experiment_environment(args).config);
  return procexec::worker_main(run_on(executor));
}

/// Parse the field list of one `submit` feed line (after the id) into a
/// TenantSpec. Grammar: `submit <id> [bots=K] [tasks=N] [seed=S]
/// [utility=U] [density=D] [window=W] [reps=R] [mean-cpu=X]
/// [quota-units=U] [quota-wall=S] [quota-journal=B] [drift]`.
service::TenantSpec parse_tenant_line(std::istringstream& in) {
  service::TenantSpec spec;
  in >> spec.id;
  std::size_t bots = 1;
  std::size_t tasks = 120;
  std::string token;
  while (in >> token) {
    if (token == "drift") {
      spec.drift = true;
      continue;
    }
    const std::size_t eq = token.find('=');
    EXPERT_REQUIRE(eq != std::string::npos && eq > 0,
                   "feed: expected key=value or drift, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "bots") bots = std::stoul(value);
    else if (key == "tasks") tasks = std::stoul(value);
    else if (key == "seed") spec.seed = std::stoull(value);
    else if (key == "utility") spec.utility = value;
    else if (key == "density") spec.sampling_density = std::stoul(value);
    else if (key == "window") spec.history_window = std::stoul(value);
    else if (key == "reps") spec.repetitions = std::stoul(value);
    else if (key == "mean-cpu") spec.mean_cpu = std::stod(value);
    else if (key == "quota-units") spec.quotas.max_eval_units = std::stoull(value);
    else if (key == "quota-wall") spec.quotas.max_wall_seconds = std::stod(value);
    else if (key == "quota-journal") spec.quotas.max_journal_bytes = std::stoull(value);
    else EXPERT_REQUIRE(false, "feed: unknown submit field '" + key + "'");
  }
  spec.bots.clear();
  for (std::size_t i = 0; i < bots; ++i) {
    spec.bots.push_back({tasks, i + 1});
  }
  return spec;
}

/// Extract the raw plan body for `target` from a targeted chaos option
/// ("a:plan;b:plan"), so a worker argv carries the tenant's plan text
/// verbatim (re-parsed in the worker into the identical ChaosConfig).
std::optional<std::string> chaos_body_for(const std::string& text,
                                          const std::string& target) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) continue;
    if (entry.substr(0, colon) == target) return entry.substr(colon + 1);
  }
  return std::nullopt;
}

void print_service_status(const service::CampaignService& svc) {
  util::Table table({"tenant", "phase", "bots", "quarantined", "eval units",
                     "journal [B]", "cause"});
  for (const auto& s : svc.status()) {
    table.add_row({s.id, service::to_string(s.phase),
                   std::to_string(s.bots_done) + "/" +
                       std::to_string(s.bots_total),
                   std::to_string(s.quarantined),
                   std::to_string(s.eval_units),
                   std::to_string(s.journal_bytes),
                   s.termination ? service::to_string(*s.termination) : "-"});
  }
  table.print(std::cout);
}

/// Long-lived multi-tenant campaign service driven by a line-oriented
/// feed (see docs/service.md). Verbs: `submit <id> [fields...]`, `step`,
/// `run`, `status`, `shutdown`; blank lines and `#` comments are skipped.
int cmd_serve(const util::Args& args) {
  EXPERT_SPAN("cli.serve");
  const std::string feed = args.required("feed");
  std::ifstream file;
  std::istream* in = &std::cin;
  if (feed != "-") {
    file.open(feed);
    EXPERT_REQUIRE(file.good(), "cannot open feed file: " + feed);
    in = &file;
  }

  service::CampaignService::Options sopts;
  sopts.max_active_tenants =
      static_cast<std::size_t>(args.number_or("max-tenants", 4.0));
  sopts.queue_capacity =
      static_cast<std::size_t>(args.number_or("queue", 8.0));
  sopts.quantum_units =
      static_cast<std::uint64_t>(args.number_or("quantum", 2000.0));
  sopts.state_dir = args.option_or("state-dir", "");

  service::GridsimBackendOptions gopts;
  gopts.seed = static_cast<std::uint64_t>(
      args.number_or("seed", static_cast<double>(gopts.seed)));
  const std::string raw_chaos = args.option_or("chaos", "");
  if (!raw_chaos.empty()) {
    gopts.chaos = chaos::parse_targeted_plans(raw_chaos);
  }

  const BackendOptions backend = parse_backend_options(args);
  if (!backend.process()) {
    sopts.backend_factory = service::make_gridsim_backend_factory(gopts);
  } else {
    // Each tenant gets its own supervised worker pool; the factory closure
    // owns the pool via shared_ptr so the backend is self-contained.
    sopts.backend_factory =
        [gopts, backend, raw_chaos](const service::TenantSpec& spec)
        -> core::Campaign::Backend {
      std::vector<std::string> worker_args = {
          "worker", "--synthetic", "--tenant", spec.id,
          "--machines", std::to_string(gopts.unreliable_machines),
          "--gamma", resilience::serial::fmt_double(gopts.gamma),
          "--reliable", std::to_string(gopts.reliable_machines),
          "--factory-seed", std::to_string(gopts.seed),
          "--mean-cpu", resilience::serial::fmt_double(spec.mean_cpu),
          "--tenant-seed", std::to_string(spec.seed)};
      if (const auto body = chaos_body_for(raw_chaos, spec.id)) {
        worker_args.push_back("--chaos");
        worker_args.push_back(*body);
      }
      auto pool = backend.worker_pool(std::move(worker_args));
      return [pool](const workload::Bot& bot,
                    const strategies::StrategyConfig& strategy,
                    std::uint64_t stream) {
        return pool->run(bot, strategy, stream);
      };
    };
  }

  // Crash harness hook, counted service-wide. Per-BoT progress goes to
  // stderr so stdout stays comparable across interrupted-and-resumed and
  // uninterrupted runs.
  const std::size_t kill_after = backend.kill_after_bots;
  auto finished = std::make_shared<std::size_t>(0);
  sopts.on_bot_finished =
      [kill_after, finished](const std::string& id,
                             const core::Campaign::BotReport& report) {
        std::cerr << "tenant " << id << ": bot "
                  << core::to_string(report.outcome) << "\n";
        if (kill_after > 0 && ++*finished == kill_after) {
          std::raise(SIGKILL);
        }
      };

  auto build = [&]() -> service::CampaignService {
    if (args.has_flag("resume")) {
      return service::CampaignService::resume(sopts);
    }
    return service::CampaignService(sopts);
  };
  service::CampaignService svc = build();
  if (args.has_flag("resume")) {
    std::cerr << "resumed " << svc.status().size() << " tenant(s) from "
              << sopts.state_dir << "\n";
  }

  std::string line;
  while (std::getline(*in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;
    if (verb.empty()) continue;
    if (verb == "submit") {
      const service::TenantSpec spec = parse_tenant_line(ls);
      const auto result = svc.submit(spec);
      if (result.admitted) {
        std::cout << "admitted " << spec.id << " ("
                  << service::to_string(result.phase) << ")\n";
      } else {
        std::cout << "shed " << spec.id << ": "
                  << service::to_string(*result.shed) << " (" << result.detail
                  << ")\n";
      }
    } else if (verb == "run") {
      svc.run_until_idle();
    } else if (verb == "step") {
      svc.step();
    } else if (verb == "shutdown") {
      svc.begin_shutdown();
    } else if (verb == "status") {
      print_service_status(svc);
    } else {
      EXPERT_REQUIRE(false, "feed: unknown verb '" + verb + "'");
    }
  }

  const auto& stats = svc.stats();
  std::cout << "service: admitted=" << stats.admitted
            << " shed=" << stats.shed_total << " rounds=" << stats.rounds
            << " bots=" << stats.bots_run << "\n";
  for (std::size_t i = 0; i < service::kShedReasonCount; ++i) {
    if (stats.shed[i] > 0) {
      std::cout << "  shed " << service::to_string(
                       static_cast<service::ShedReason>(i))
                << "=" << stats.shed[i] << "\n";
    }
  }
  print_service_status(svc);
  return 0;
}

/// Campaign mode of `execute`: K BoTs through the full
/// characterize -> recommend -> execute loop, with per-BoT outcome and
/// degradation reporting — the chaos-facing face of the pipeline.
int run_campaign(const util::Args& args, const ExperimentEnvironment& env,
                 std::size_t bots) {
  const gridsim::TableVExperiment& exp = env.exp;
  const auto& wl = workload::workload_spec(exp.workload);
  const gridsim::Executor executor(env.config);

  core::Campaign::Options copts;
  copts.params.tur = wl.mean_cpu;
  copts.params.tr = wl.mean_cpu;
  copts.params.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
  copts.expert = expert_options(args);
  copts.expert.repetitions =
      static_cast<std::size_t>(args.number_or("reps", 5.0));
  copts.expert.environment_digest = env.digest;
  const auto utility = core::parse_utility(args.option_or("utility", "product"));

  const BackendOptions backend_options = parse_backend_options(args);
  // The supervisor that owns a worker enforces the per-BoT deadline. An
  // in-process gridsim run cannot be cancelled; its simulation horizon
  // bounds it instead.
  EXPERT_REQUIRE(!args.option("backend-timeout") || backend_options.process(),
                 "--backend-timeout needs --backend process");
  std::shared_ptr<procexec::ProcessPool> pool;
  core::Campaign::Backend backend;
  if (backend_options.process()) {
    std::vector<std::string> worker_args = {
        "worker", "--experiment", std::to_string(exp.number), "--seed",
        std::to_string(env.seed)};
    for (const std::string name : {"chaos", "arch"}) {
      if (const auto value = args.option(name)) {
        worker_args.push_back("--" + name);
        worker_args.push_back(*value);
      }
    }
    pool = backend_options.worker_pool(
        std::move(worker_args), args.number_or("backend-timeout", 0.0));
    backend = pool->backend();
  } else {
    backend = run_on(executor);
  }

  std::shared_ptr<resilience::DriftDetector> detector;
  if (args.has_flag("drift")) {
    detector = std::make_shared<resilience::DriftDetector>();
    copts.drift_monitor = resilience::make_drift_monitor(
        detector, &eval::EvalService::global().cache());
  }

  // Journal / resume. Resume chatter goes to stderr so a resumed campaign's
  // stdout stays byte-identical to the uninterrupted run's.
  const auto journal_path = args.option("journal");
  EXPERT_REQUIRE(!args.has_flag("resume") || journal_path.has_value(),
                 "--resume requires --journal FILE");
  std::optional<resilience::CampaignJournal> journal;
  std::optional<core::Campaign> campaign;
  std::size_t resumed = 0;
  if (journal_path && args.has_flag("resume")) {
    auto recovered = resilience::recover_campaign(*journal_path, copts);
    if (recovered.torn_tail)
      std::cerr << "journal: dropped a torn trailing record\n";
    if (detector) {
      // Replay the detector's pure fold over the recovered records so its
      // state matches the uninterrupted run's at this point.
      for (const auto& rec : recovered.records) {
        if (rec.history) detector->observe_bot(rec.report, *rec.history);
      }
    }
    resumed = recovered.state.reports.size();
    std::cerr << "resumed " << resumed << " BoTs from journal "
              << *journal_path << "\n";
    journal.emplace(resilience::CampaignJournal::reopen(*journal_path, copts));
    copts.recorder = journal->recorder();
    campaign.emplace(core::Campaign::resume(backend, copts,
                                            std::move(recovered.state)));
  } else if (journal_path) {
    journal.emplace(*journal_path, copts);
    copts.recorder = journal->recorder();
    campaign.emplace(backend, copts);
  } else {
    campaign.emplace(backend, copts);
  }

  // Crash harness hook: die the hard way (SIGKILL, nothing flushed beyond
  // what the journal already fsynced) right after the K-th BoT completes.
  // Chaos kill_at cannot serve this role for the process backend — there
  // it kills the *worker*, which the supervisor absorbs as a retry.
  const std::size_t kill_after = backend_options.kill_after_bots;

  util::Table table({"bot", "strategy", "outcome", "makespan [s]",
                     "cost [c/task]", "degradation"});
  for (std::size_t i = 0; i < bots; ++i) {
    const core::Campaign::BotReport* report = nullptr;
    if (i < resumed) {
      report = &campaign->reports()[i];
    } else {
      const auto bot = workload::make_bot(exp.workload, 0xB07 + env.seed + i);
      campaign->run_bot(bot, utility);
      report = &campaign->reports().back();
      if (kill_after > 0 && i + 1 == kill_after) std::raise(SIGKILL);
    }
    std::string outcome = core::to_string(report->outcome);
    if (report->retries > 0)
      outcome += " (x" + std::to_string(report->retries) + " retry)";
    if (report->truncated) outcome += " [truncated]";
    const bool ran =
        report->outcome != core::Campaign::BotOutcome::Quarantined;
    table.add_row(
        {std::to_string(i + 1), report->strategy.name, outcome,
         ran ? util::fmt(report->makespan, 0) : "-",
         ran ? util::fmt(report->cost_per_task_cents, 3) : "-",
         report->degradation ? core::to_string(*report->degradation) : "-"});
  }
  table.print(std::cout);
  if (env.config.chaos && env.config.chaos->any())
    std::cout << "chaos plan: " << env.config.chaos->to_string() << "\n";
  if (detector != nullptr && detector->trips() > 0)
    std::cout << "drift: " << detector->trips()
              << " trip(s); history re-characterized from post-drift "
                 "traces only\n";
  std::cout << campaign->completed_bots() - campaign->quarantined_bots()
            << "/" << bots << " BoTs completed, "
            << campaign->quarantined_bots() << " quarantined\n";
  // Re-planning across BoTs repeats many strategy evaluations whenever the
  // history window (and so the model) is stable; show how much the shared
  // evaluation cache absorbed.
  const auto cache = eval::EvalService::global().cache().stats();
  const std::uint64_t lookups = cache.hits + cache.misses;
  std::cout << "eval cache: " << cache.hits << "/" << lookups
            << " lookups served";
  if (lookups > 0)
    std::cout << " (" << util::fmt(100.0 * static_cast<double>(cache.hits) /
                                       static_cast<double>(lookups),
                                   1)
              << "% hit rate)";
  std::cout << "\n";
  return 0;
}

int cmd_execute(const util::Args& args) {
  EXPERT_SPAN("cli.execute");
  const auto env = experiment_environment(args);
  const auto bots = static_cast<std::size_t>(args.number_or("bots", 1.0));
  if (bots > 1) return run_campaign(args, env, bots);
  EXPERT_REQUIRE(!parse_backend_options(args).process(),
                 "--backend process needs a campaign (--bots > 1)");
  // Only run_campaign reads these; a single BoT would silently drop them.
  for (const std::string name : {"journal", "resume", "drift", "workers",
                                 "kill-after-bots", "backend-timeout"}) {
    EXPERT_REQUIRE(!args.option(name) && !args.has_flag(name),
                   "--" + name + " needs a campaign (--bots > 1)");
  }
  core::CharacterizationOptions copts;
  copts.mode = parse_mode(args);

  // Real side: machine-level execution of the experiment's strategy.
  const gridsim::TableVExperiment& exp = env.exp;
  const auto number = static_cast<std::uint64_t>(exp.number);
  const auto& wl = workload::workload_spec(exp.workload);
  const auto bot = workload::make_bot(exp.workload, 0xB07 + env.seed + number);
  const gridsim::Executor executor(env.config);
  const auto strategy = gridsim::make_experiment_strategy(exp);
  const auto real = executor.run(bot, strategy);
  if (real.truncated())
    std::cout << "note: run truncated at the simulation horizon ("
              << util::fmt(env.config.max_sim_time, 0) << " s)\n";

  // Simulated side: characterize the real trace, then predict with the
  // Estimator (same recipe as the Table V validation benchmark).
  copts.instance_deadline = wl.deadline_d;
  copts.windows_per_epoch = 6;
  const auto checked = core::characterize_checked(real, copts);
  if (!checked.model) {
    std::cout << "prediction skipped — trace cannot support a model ("
              << core::to_string(*checked.degradation) << ")\n";
    return 0;
  }
  const auto& model = *checked.model;

  core::EstimatorConfig cfg;
  cfg.unreliable_size =
      core::estimate_effective_size_iterative(real, model, wl.deadline_d);
  const auto reliable_turnarounds =
      real.successful_turnarounds(trace::PoolKind::Reliable);
  double tr = wl.mean_cpu;
  if (!reliable_turnarounds.empty()) {
    tr = 0.0;
    for (double t : reliable_turnarounds) tr += t;
    tr /= static_cast<double>(reliable_turnarounds.size());
  }
  cfg.tr = tr;
  cfg.cur_cents_per_s = 1.0 / 3600.0;
  cfg.cr_cents_per_s = 34.0 / 3600.0;
  cfg.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
  cfg.throughput_deadline = wl.deadline_d;
  cfg.repetitions = static_cast<std::size_t>(args.number_or("reps", 10.0));
  cfg.seed = 0x7AB1E5 + env.seed + number;
  cfg.tail_tasks_override =
      std::max<std::size_t>(1, real.remaining_at(real.t_tail()));
  cfg.environment_digest = env.digest;

  core::Estimator estimator(cfg, model);
  const auto est = estimator.estimate(real.task_count(), strategy);

  std::cout << "experiment " << number << ": " << wl.name << ", N="
            << (exp.n ? std::to_string(*exp.n) : "inf") << ", pool "
            << exp.unreliable_size << " unreliable machines\n";
  const std::string mode =
      copts.mode == core::ReliabilityMode::Online ? "online" : "offline";
  util::Table table({"metric", "real (gridsim)", "predicted (" + mode + ")"});
  table.add_row({"average reliability",
                 util::fmt(real.average_reliability(), 3), "-"});
  table.add_row({"reliable instances",
                 std::to_string(real.reliable_instances_sent()),
                 util::fmt(est.mean.reliable_instances_sent, 1)});
  table.add_row({"tail makespan [s]", util::fmt(real.tail_makespan(), 0),
                 util::fmt(est.mean.tail_makespan, 0)});
  table.add_row({"cost [cent/task]",
                 util::fmt(real.cost_per_task_cents(), 3),
                 util::fmt(est.mean.cost_per_task_cents, 3)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(
      argc, argv,
      {"trace", "tasks", "utility", "reps", "mode", "deadline", "strategy",
       "pool", "gamma", "tur", "experiment", "seed", "chaos", "bots", "arch",
       "eval-cache", "metrics-out", "trace-out", "journal",
       "backend-timeout", "backend", "workers", "kill-after-bots", "out",
       "feed", "state-dir", "max-tenants", "queue", "quantum", "machines",
       "reliable", "factory-seed", "mean-cpu", "tenant-seed", "tenant"},
      {"csv", "resume", "drift", "profile", "synthetic"});
  try {
    if (!args.unknown_options().empty()) {
      std::cerr << "unknown option --" << args.unknown_options().front()
                << "\n";
      return usage();
    }
    const auto command = args.command();
    if (!command) return usage();

    const auto metrics_out = args.option("metrics-out");
    const auto trace_out = args.option("trace-out");
    const bool profile = args.has_flag("profile");
    if (metrics_out) obs::Registry::global().set_enabled(true);
    if (trace_out) obs::Tracer::global().set_enabled(true);
    if (profile) obs::PhaseProfiler::global().set_enabled(true);
    if (args.option("eval-cache")) {
      eval::EvalService::global().cache().set_capacity(
          static_cast<std::size_t>(args.number_or("eval-cache", 0.0)));
    }

    int rc = -1;
    if (*command == "characterize") rc = cmd_characterize(args);
    else if (*command == "frontier") rc = cmd_frontier(args);
    else if (*command == "recommend") rc = cmd_recommend(args);
    else if (*command == "report") rc = cmd_report(args);
    else if (*command == "sensitivity") rc = cmd_sensitivity(args);
    else if (*command == "simulate") rc = cmd_simulate(args);
    else if (*command == "execute") rc = cmd_execute(args);
    else if (*command == "profile") rc = cmd_profile(args);
    else if (*command == "serve") rc = cmd_serve(args);
    else if (*command == "worker") rc = cmd_worker(args);
    else return usage();

    // `profile` prints its own table; the global flag appends one to any
    // other command's output.
    if (profile && *command != "profile") {
      std::cout << "\nphase profile:\n";
      obs::PhaseProfiler::global().write_table(std::cout);
    }
    if (metrics_out) {
      // Surface phase attribution in the metrics JSON whenever the
      // profiler was armed this run (via `profile` or --profile).
      if (obs::PhaseProfiler::global().enabled()) {
        obs::PhaseProfiler::global().publish(obs::Registry::global());
      }
      obs::write_metrics_file(*metrics_out);
    }
    if (trace_out) obs::write_trace_file(*trace_out);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
