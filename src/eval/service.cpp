#include "expert/eval/service.hpp"

#include "expert/obs/metrics.hpp"
#include "expert/obs/profile.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/util/assert.hpp"

namespace expert::eval {

namespace {

struct EvalObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter batches = reg.counter("eval.batch.batches");
  obs::Counter candidates = reg.counter("eval.batch.candidates");
  /// Simulated (candidate x repetition) units — cache hits spawn none.
  obs::Counter units = reg.counter("eval.batch.units");

  /// Per-consumer batch wall time. Registration is a cold-path lookup and
  /// consumers are a closed set of literals, so registering on first use
  /// per batch is fine.
  obs::Histogram batch_wall(const std::string& consumer) {
    return reg.histogram("eval.batch.wall_seconds",
                         obs::Labels{{"consumer", consumer}});
  }
};

EvalObs& eval_obs() {
  static EvalObs metrics;
  return metrics;
}

}  // namespace

EvalService::EvalService(std::size_t cache_capacity, std::size_t pool_threads)
    : cache_(cache_capacity), pool_threads_(pool_threads) {}

EvalService::~EvalService() = default;

EvalService& EvalService::global() {
  static EvalService instance;
  return instance;
}

util::ThreadPool& EvalService::pool() {
  util::MutexLock lock(pool_mutex_);
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(pool_threads_);
  return *pool_;
}

std::vector<EvalResult> EvalService::evaluate(
    const core::Estimator& estimator, std::size_t task_count,
    const std::vector<strategies::NTDMr>& candidates,
    const BatchOptions& options) {
  EXPERT_SPAN("eval.batch");
  const bool observed = obs::Registry::global().enabled();
  const std::uint64_t wall_start =
      observed ? obs::Tracer::global().now_ns() : 0;

  const std::size_t repetitions = options.repetitions > 0
                                      ? options.repetitions
                                      : estimator.config().repetitions;
  std::vector<EvalResult> results(candidates.size());

  // Key every candidate, serve cache hits, and collect the miss indices.
  std::vector<EvalKey> keys;
  keys.reserve(candidates.size());
  std::vector<std::size_t> misses;
  {
    EXPERT_PHASE(CacheLookup);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      keys.push_back(make_eval_key(
          estimator.config(), estimator.model().digest(), candidates[i],
          task_count, repetitions, options.time_objective,
          options.cost_objective));
      std::optional<CachedEval> cached = cache_.lookup(keys.back());
      if (cached) {
        results[i].point = std::move(cached->point);
        results[i].stddev = cached->stddev;
        results[i].from_cache = true;
      } else {
        misses.push_back(i);
      }
    }
  }

  if (options.on_simulated_units) {
    options.on_simulated_units(misses.size() * repetitions);
  }
  if (!options.tenant.empty()) {
    // Lazily registered, so untenanted processes never create these series
    // and their snapshots keep the pre-tenant byte layout.
    const obs::Labels tenant_labels{{"tenant", options.tenant}};
    obs::Registry& reg = obs::Registry::global();
    reg.counter("eval.cache.tenant.hits", tenant_labels)
        .inc(candidates.size() - misses.size());
    reg.counter("eval.cache.tenant.misses", tenant_labels).inc(misses.size());
  }

  if (!misses.empty()) {
    // Flatten to (candidate x repetition) units so a small batch with many
    // repetitions still spreads across every worker. Each unit writes its
    // own preallocated slot; no unit observes another's output.
    std::vector<std::vector<core::RunMetrics>> runs(misses.size());
    std::vector<strategies::StrategyConfig> configs;
    configs.reserve(misses.size());
    for (std::size_t m = 0; m < misses.size(); ++m) {
      runs[m].resize(repetitions);
      configs.push_back(
          strategies::make_ntdmr_strategy(candidates[misses[m]]));
    }

    const std::size_t unit_count = misses.size() * repetitions;
    const auto unit_body = [&](std::size_t u) {
      const std::size_t m = u / repetitions;
      const std::size_t rep = u % repetitions;
      runs[m][rep] = estimator.simulate_metrics(
          task_count, configs[m], keys[misses[m]].stream(), rep);
    };
    if (options.threads == 1 || unit_count == 1) {
      for (std::size_t u = 0; u < unit_count; ++u) unit_body(u);
    } else {
      pool().parallel_for(unit_count, unit_body);
    }

    for (std::size_t m = 0; m < misses.size(); ++m) {
      const std::size_t i = misses[m];
      const core::EstimateResult est =
          core::aggregate_runs(std::move(runs[m]));
      EvalResult& out = results[i];
      out.point.params = candidates[i];
      out.point.metrics = est.mean;
      out.point.makespan = time_metric(est.mean, options.time_objective);
      out.point.cost = cost_metric(est.mean, options.cost_objective);
      out.stddev = est.stddev;
      out.from_cache = false;
      EXPERT_PHASE(CacheLookup);
      cache_.insert(keys[i], CachedEval{out.point, out.stddev});
    }

    if (observed) eval_obs().units.inc(unit_count);
  }

  if (observed) {
    EvalObs& m = eval_obs();
    m.batches.inc();
    m.candidates.inc(candidates.size());
    m.batch_wall(options.consumer)
        .observe(static_cast<double>(obs::Tracer::global().now_ns() -
                                     wall_start) /
                 1e9);
  }
  return results;
}

}  // namespace expert::eval
