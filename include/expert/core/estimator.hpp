#pragma once

#include <cstdint>
#include <vector>

#include "expert/core/turnaround_model.hpp"
#include "expert/core/user_params.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/trace/trace.hpp"

namespace expert::core {

/// Configuration of the ExPERT Estimator (paper §IV). The Estimator models
/// l_ur unreliable and ceil(Mr * l_ur) reliable resources, each pool with a
/// separate infinite FCFS queue, and simulates a whole BoT execution:
/// throughput phase (no replication, deadline = throughput_deadline), then
/// the strategy's tail behaviour from T_tail on.
struct EstimatorConfig {
  /// Effective size of the unreliable pool (l_ur).
  std::size_t unreliable_size = 50;
  /// Task CPU time on a reliable machine (T_r) — reliable machines are
  /// homogeneous and never fail, so this is also the instance runtime.
  double tr = 2066.0;
  double cur_cents_per_s = 1.0 / 3600.0;
  double cr_cents_per_s = 34.0 / 3600.0;
  double charging_period_ur_s = 1.0;
  double charging_period_r_s = 1.0;
  /// Deadline (= timeout) of throughput-phase instances; 0 means 4 * mean
  /// successful turnaround of the model.
  double throughput_deadline = 0.0;
  /// Number of repetitions averaged by estimate().
  std::size_t repetitions = 10;
  std::uint64_t seed = 0xE5717A70ULL;
  /// When > 0, the tail phase is declared when the number of remaining
  /// tasks first reaches this value (the paper's simulator-validation rule:
  /// match the real experiment's tail-task count). When 0, the tail starts
  /// when remaining tasks < unreliable_size.
  std::size_t tail_tasks_override = 0;
  /// Hard horizon; runs that pass it are marked unfinished.
  double max_sim_time = 5.0e7;
  /// Content digest of the gridsim environment this estimation stands in
  /// for (gridsim::env::Environment::digest()); 0 when unset. Mixed into
  /// eval::EvalKey so cached evaluations can never collide across
  /// architectures. The zero default leaves every pre-seam key — and the
  /// sim digest that seeds the RNG streams — unchanged.
  std::uint64_t environment_digest = 0;

  static EstimatorConfig from_user_params(const UserParams& params,
                                          std::size_t unreliable_size);
  void validate() const;
};

/// Metrics of one simulated BoT execution.
struct RunMetrics {
  bool finished = true;
  double makespan = 0.0;
  double t_tail = 0.0;
  double tail_makespan = 0.0;
  double total_cost_cents = 0.0;
  double cost_per_task_cents = 0.0;
  /// Cost of instances sent during the tail phase, per tail task.
  double tail_cost_per_tail_task_cents = 0.0;
  double tail_tasks = 0.0;
  double reliable_instances_sent = 0.0;
  double unreliable_instances_sent = 0.0;
  double duplicate_results = 0.0;
  /// Max concurrently busy reliable machines / l_ur (Fig. 10's "used Mr").
  double used_mr = 0.0;
  /// Max reliable queue length during the run, and as a fraction of tail
  /// tasks (Fig. 10's queue metric).
  double max_reliable_queue = 0.0;
  double max_reliable_queue_fraction = 0.0;
};

/// Aggregate over repetitions: field-wise mean and sample stddev.
struct EstimateResult {
  RunMetrics mean;
  RunMetrics stddev;
  std::vector<RunMetrics> runs;
};

/// Field-wise mean and sample stddev over `runs` (requires at least one).
/// `mean.finished` is the conjunction of the runs' finished flags. Shared
/// by Estimator::estimate and the eval::EvalService batch aggregation, so
/// a cached evaluation aggregates exactly like a direct estimate() call.
EstimateResult aggregate_runs(std::vector<RunMetrics> runs);

/// The ExPERT Estimator: statistical queue-level simulation of a BoT under
/// a scheduling strategy, using the pool model F(t,t') = Fs(t)*gamma(t').
/// Deterministic in (config.seed, stream, repetition index).
class Estimator {
 public:
  Estimator(EstimatorConfig config, TurnaroundModel model);

  const EstimatorConfig& config() const noexcept { return config_; }
  const TurnaroundModel& model() const noexcept { return model_; }

  /// Mean makespan and cost over config.repetitions independent runs.
  /// `stream` decorrelates RNG streams across callers (the eval layer
  /// passes a content-derived stream; see eval::EvalKey).
  EstimateResult estimate(std::size_t task_count,
                          const strategies::StrategyConfig& strategy,
                          std::uint64_t stream = 0) const;

  /// One repetition, with the full instance-level trace.
  std::pair<RunMetrics, trace::ExecutionTrace> simulate(
      std::size_t task_count, const strategies::StrategyConfig& strategy,
      std::uint64_t stream = 0, std::size_t repetition = 0) const;
  /// The same repetition without collecting its trace: simulate().first,
  /// bit for bit. estimate() and the eval layer run this.
  RunMetrics simulate_metrics(std::size_t task_count,
                              const strategies::StrategyConfig& strategy,
                              std::uint64_t stream = 0,
                              std::size_t repetition = 0) const;

 private:
  EstimatorConfig config_;
  TurnaroundModel model_;
};

}  // namespace expert::core
