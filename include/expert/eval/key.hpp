#pragma once

#include <cstdint>
#include <cstddef>

#include "expert/core/estimator.hpp"
#include "expert/core/objectives.hpp"
#include "expert/strategies/ntdmr.hpp"

namespace expert::eval {

/// Canonical identity of one strategy evaluation: a 128-bit content digest
/// of everything that determines the aggregated result —
///
///   (EstimatorConfig, TurnaroundModel digest, NTDMr, task_count,
///    repetitions, time/cost objectives)
///
/// — plus the derived RNG stream. Two EvalKeys are equal iff their inputs
/// are content-equal, independently of where the Estimator lives, which
/// thread builds the key, or where the candidate sits in a batch.
///
/// **Stream-derivation contract.** `stream()` is derived from the
/// *simulation inputs only* (config minus repetitions, model digest,
/// strategy, task count), never from repetitions, objectives, candidate
/// index, or evaluation order. Consequences:
///
///  * results are byte-identical across thread counts and any candidate
///    ordering — the stream travels with the strategy, not with the loop;
///  * raising `repetitions` keeps the existing runs and appends new ones
///    (repetition r always draws the stream's r-th child seed);
///  * re-evaluating under a different objective reuses the same simulated
///    runs, so objective changes never shift the underlying randomness.
struct EvalKey {
  std::uint64_t hi = 0;      ///< cache digest, upper half
  std::uint64_t lo = 0;      ///< cache digest, lower half
  std::uint64_t sim = 0;     ///< simulation-input digest; the RNG stream
  /// The turnaround-model digest this evaluation was keyed under. Not part
  /// of the cache identity (hi/lo already mix it via `sim`); carried so
  /// EvalCache::invalidate_model can drop every entry derived from a model
  /// the drift detector has declared stale.
  std::uint64_t model = 0;

  /// The stream passed to Estimator::simulate_metrics for this evaluation.
  std::uint64_t stream() const noexcept { return sim; }

  friend bool operator==(const EvalKey& a, const EvalKey& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo && a.sim == b.sim;
  }
};

/// Build the key for evaluating `params` on an estimator described by
/// (`config`, `model_digest`) with a BoT of `task_count` tasks.
/// `repetitions` is the effective repetition count (callers resolve a
/// 0 = "use config" override before keying). `model_digest` comes from
/// TurnaroundModel::digest().
EvalKey make_eval_key(const core::EstimatorConfig& config,
                      std::uint64_t model_digest,
                      const strategies::NTDMr& params, std::size_t task_count,
                      std::size_t repetitions, core::TimeObjective time_objective,
                      core::CostObjective cost_objective);

}  // namespace expert::eval
