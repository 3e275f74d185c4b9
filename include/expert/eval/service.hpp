#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "expert/core/estimator.hpp"
#include "expert/core/objectives.hpp"
#include "expert/core/pareto.hpp"
#include "expert/eval/cache.hpp"
#include "expert/eval/key.hpp"
#include "expert/util/parallel.hpp"
#include "expert/util/thread_safety.hpp"

namespace expert::eval {

/// Per-batch knobs for EvalService::evaluate.
struct BatchOptions {
  core::TimeObjective time_objective = core::TimeObjective::TailMakespan;
  core::CostObjective cost_objective = core::CostObjective::CostPerTask;
  /// Repetitions per candidate; 0 uses the estimator's configured count.
  std::size_t repetitions = 0;
  /// 1 runs the batch inline on the calling thread; anything else fans the
  /// flattened (candidate x repetition) units onto the service's persistent
  /// pool. Results are identical either way (streams are key-derived).
  std::size_t threads = 0;
  /// Which consumer issued this batch ("frontier", "evolution",
  /// "sensitivity", "campaign", ...). Labels the per-batch wall-time
  /// histogram (`eval.batch.wall_seconds{consumer=...}`) so a metrics
  /// snapshot attributes eval latency to the layer that paid for it. Must
  /// be a closed set of literals, never a per-request value (the registry
  /// caps label cardinality).
  std::string consumer = "direct";
  /// Tenant that issued this batch, for multi-tenant attribution (see
  /// expert::service). When non-empty, `eval.cache.tenant.{hits,misses}`
  /// counters labeled {tenant=...} are bumped per batch; when empty (the
  /// default) no tenant-labeled series is ever registered, so label-free
  /// snapshots stay byte-identical to single-tenant runs. The admitting
  /// service bounds the tenant set, keeping cardinality closed.
  std::string tenant;
  /// Fair-share accounting hook: when set, invoked once per batch (on the
  /// calling thread, before simulation) with the number of
  /// (candidate x repetition) units that missed the cache and will be
  /// simulated — zero for a fully warm batch. The campaign service charges
  /// these units against the issuing tenant's scheduling deficit and
  /// eval-unit quota. Must not call back into the service.
  std::function<void(std::size_t simulated_units)> on_simulated_units;
};

/// One evaluated candidate, in the order it was requested.
struct EvalResult {
  core::StrategyPoint point;  ///< params + objective metrics + mean metrics
  core::RunMetrics stddev;    ///< sample stddev across repetitions
  bool from_cache = false;    ///< served without simulating
  /// False when any repetition hit the simulation horizon; such metrics are
  /// lower bounds, not estimates (consumers usually drop these points).
  bool finished() const noexcept { return point.metrics.finished; }
};

/// The shared strategy-evaluation layer under `generate_frontier`,
/// `evolve_frontier`, `analyze_sensitivity`, and campaign re-planning.
///
/// A batch is flattened to (candidate x repetition) work units and executed
/// on a persistent process-wide thread pool, so small batches (e.g. a
/// population-16 evolution step) still saturate every core instead of
/// spawning `population` transient threads. Aggregated results are cached
/// by EvalKey content digest; a re-evaluation of an already-seen point —
/// the next evolutionary generation, a sensitivity probe pair, a campaign
/// re-plan over an unchanged model — never re-simulates.
///
/// Determinism: every result is a pure function of its EvalKey (streams
/// are key-derived; see key.hpp), so batches are byte-identical across
/// thread counts, candidate orderings, and cache states.
class EvalService {
 public:
  explicit EvalService(std::size_t cache_capacity = EvalCache::kDefaultCapacity,
                       std::size_t pool_threads = 0);
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Process-wide instance used by the core consumers when no explicit
  /// service is configured. Its pool spawns lazily on first parallel batch.
  static EvalService& global();

  /// Evaluate every candidate; results align with `candidates` by index.
  /// Rethrows the first exception any unit threw (after the batch drains).
  std::vector<EvalResult> evaluate(
      const core::Estimator& estimator, std::size_t task_count,
      const std::vector<strategies::NTDMr>& candidates,
      const BatchOptions& options = {});

  EvalCache& cache() noexcept { return cache_; }
  const EvalCache& cache() const noexcept { return cache_; }

 private:
  util::ThreadPool& pool();

  EvalCache cache_;
  const std::size_t pool_threads_;

  util::Mutex pool_mutex_;
  std::unique_ptr<util::ThreadPool> pool_ EXPERT_PT_GUARDED_BY(pool_mutex_);
};

}  // namespace expert::eval
