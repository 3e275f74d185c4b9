// EvalService behaviour: batch results align with the request, are
// byte-identical across thread counts / candidate orderings / cache states
// (the key.hpp stream-derivation contract, observed end to end), and repeat
// evaluations are served from the cache without touching the Estimator —
// the acceptance property the frontier consumers rely on.

#include "expert/eval/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "expert/core/frontier.hpp"
#include "expert/obs/metrics.hpp"

namespace expert::eval {
namespace {

core::EstimatorConfig test_config() {
  core::EstimatorConfig cfg;
  cfg.unreliable_size = 20;
  cfg.tr = 1000.0;
  cfg.throughput_deadline = 4000.0;
  cfg.repetitions = 3;
  cfg.seed = 99;
  return cfg;
}

core::Estimator test_estimator() {
  return core::Estimator(test_config(),
                         core::make_synthetic_model(1000.0, 300.0, 3200.0, 0.8));
}

std::vector<strategies::NTDMr> candidate_list() {
  std::vector<strategies::NTDMr> list;
  for (const unsigned n : {0u, 1u, 2u}) {
    for (const double t : {500.0, 1500.0}) {
      strategies::NTDMr p;
      p.n = n;
      p.timeout_t = t;
      p.deadline_d = 2500.0;
      p.mr = 0.1;
      list.push_back(p);
    }
  }
  strategies::NTDMr inf;
  inf.timeout_t = 1000.0;
  inf.deadline_d = 2500.0;
  list.push_back(inf);
  return list;
}

void expect_identical(const EvalResult& a, const EvalResult& b) {
  EXPECT_TRUE(a.point.params == b.point.params);
  // Byte-identical, not approximately equal: both sides must have simulated
  // (or cached) exactly the same runs.
  EXPECT_EQ(a.point.makespan, b.point.makespan);
  EXPECT_EQ(a.point.cost, b.point.cost);
  EXPECT_EQ(a.point.metrics.makespan, b.point.metrics.makespan);
  EXPECT_EQ(a.point.metrics.tail_makespan, b.point.metrics.tail_makespan);
  EXPECT_EQ(a.point.metrics.cost_per_task_cents,
            b.point.metrics.cost_per_task_cents);
  EXPECT_EQ(a.stddev.makespan, b.stddev.makespan);
  EXPECT_EQ(a.stddev.cost_per_task_cents, b.stddev.cost_per_task_cents);
}

TEST(EvalService, ResultsAlignWithCandidates) {
  EvalService service;
  const auto estimator = test_estimator();
  const auto candidates = candidate_list();
  const auto results = service.evaluate(estimator, 60, candidates);
  ASSERT_EQ(results.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_TRUE(results[i].point.params == candidates[i]);
    EXPECT_FALSE(results[i].from_cache);
    EXPECT_GT(results[i].point.makespan, 0.0);
    EXPECT_GT(results[i].point.cost, 0.0);
  }
}

TEST(EvalService, ByteIdenticalAcrossThreadCounts) {
  const auto estimator = test_estimator();
  const auto candidates = candidate_list();

  EvalService serial_service;
  BatchOptions serial;
  serial.threads = 1;
  const auto a = serial_service.evaluate(estimator, 60, candidates, serial);

  EvalService pooled_service;  // fresh cache: both sides evaluate cold
  BatchOptions pooled;
  pooled.threads = 4;
  const auto b = pooled_service.evaluate(estimator, 60, candidates, pooled);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(EvalService, ByteIdenticalAcrossCandidateOrder) {
  const auto estimator = test_estimator();
  const auto candidates = candidate_list();
  std::vector<strategies::NTDMr> reversed = candidates;
  std::reverse(reversed.begin(), reversed.end());

  EvalService forward_service;
  const auto a = forward_service.evaluate(estimator, 60, candidates);
  EvalService reversed_service;
  const auto b = reversed_service.evaluate(estimator, 60, reversed);

  ASSERT_EQ(a.size(), b.size());
  const std::size_t last = a.size() - 1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical(a[i], b[last - i]);
  }
}

TEST(EvalService, RepeatBatchIsServedFromCache) {
  EvalService service;
  const auto estimator = test_estimator();
  const auto candidates = candidate_list();
  const auto cold = service.evaluate(estimator, 60, candidates);
  const auto warm = service.evaluate(estimator, 60, candidates);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache);
    expect_identical(cold[i], warm[i]);
  }
  const auto stats = service.cache().stats();
  EXPECT_EQ(stats.hits, candidates.size());
  EXPECT_EQ(stats.misses, candidates.size());
}

TEST(EvalService, ZeroCapacityServiceEvaluatesCold) {
  // A capacity-0 service stores nothing (as `--eval-cache 0` does), so a
  // repeat batch re-simulates and matches a cached service's results.
  EvalService service(/*cache_capacity=*/0);
  const auto estimator = test_estimator();
  const auto candidates = candidate_list();
  const auto a = service.evaluate(estimator, 60, candidates);
  const auto b = service.evaluate(estimator, 60, candidates);
  for (const auto& r : b) EXPECT_FALSE(r.from_cache);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
  EvalService cached;
  const auto c = cached.evaluate(estimator, 60, candidates);
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], c[i]);
  const auto stats = service.cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2 * candidates.size());
  EXPECT_EQ(stats.entries, 0u);
}

TEST(EvalService, RepetitionOverrideIsADistinctEvaluation) {
  EvalService service;
  const auto estimator = test_estimator();  // config asks for 3 repetitions
  const std::vector<strategies::NTDMr> one = {candidate_list()[2]};

  BatchOptions deep;
  deep.repetitions = 8;
  const auto base = service.evaluate(estimator, 60, one);
  const auto more = service.evaluate(estimator, 60, one, deep);
  // Different effective repetition count => different cache identity.
  EXPECT_FALSE(more[0].from_cache);
  EXPECT_EQ(service.cache().stats().entries, 2u);
  EXPECT_GT(more[0].point.makespan, 0.0);
  // Same stream: the first 3 of the 8 repetitions are the base's runs, so
  // the two means genuinely share samples (they differ, but both are real).
  EXPECT_NE(base[0].point.makespan, more[0].point.makespan);
}

TEST(EvalService, EvaluateOneMatchesBatch) {
  const auto estimator = test_estimator();
  const auto candidates = candidate_list();
  EvalService batch_service;
  const auto batch = batch_service.evaluate(estimator, 60, candidates);
  EvalService single_service;
  BatchOptions serial;
  serial.threads = 1;
  const auto one =
      single_service.evaluate(estimator, 60, {candidates[3]}, serial);
  ASSERT_EQ(one.size(), 1u);
  expect_identical(batch[3], one[0]);
}

// Acceptance: a second identical frontier sweep performs ZERO estimator
// runs — every candidate is served by the cache. The obs registry counts
// every run, traced or metrics-only (core.estimator.runs), so the sweep
// pair is observed end to end through generate_frontier itself.
TEST(EvalService, WarmFrontierSweepRunsZeroSimulations) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();

  const auto estimator = test_estimator();
  core::SamplingSpec spec;
  spec.n_values = {0u, 1u};
  spec.d_samples = 2;
  spec.t_samples = 2;
  spec.mr_values = {0.05, 0.2};
  spec.max_deadline = 4000.0;

  EvalService service;
  core::FrontierOptions options;
  options.service = &service;
  const std::size_t n_candidates = core::sample_strategy_space(spec).size();

  const auto cold = core::generate_frontier(estimator, 60, spec, options);
  const auto after_cold = reg.snapshot();
  ASSERT_NE(after_cold.counter("core.estimator.runs"), nullptr);
  const std::uint64_t cold_runs =
      after_cold.counter("core.estimator.runs")->value;
  EXPECT_GT(cold_runs, 0u);

  const auto warm = core::generate_frontier(estimator, 60, spec, options);
  const auto after_warm = reg.snapshot();
  EXPECT_EQ(after_warm.counter("core.estimator.runs")->value, cold_runs)
      << "the warm sweep must not simulate";
  // Cache hits are labeled per shard; the family total covers them all.
  // Every candidate — finished or not — is served by the cache.
  EXPECT_EQ(after_warm.counter_total("eval.cache.hits"), n_candidates);

  // Identical sweep, identical output.
  ASSERT_EQ(warm.sampled.size(), cold.sampled.size());
  for (std::size_t i = 0; i < cold.sampled.size(); ++i) {
    EXPECT_EQ(warm.sampled[i].makespan, cold.sampled[i].makespan);
    EXPECT_EQ(warm.sampled[i].cost, cold.sampled[i].cost);
  }

  reg.set_enabled(false);
}

// Satellite of the multi-tenant service PR: tenant attribution is opt-in.
// A batch with BatchOptions::tenant set bumps eval.cache.tenant.{hits,
// misses}{tenant=...}; a batch without one must leave the snapshot
// byte-identical to the pre-tenant metric set.
TEST(EvalService, TenantLabelOnlyWhenProvided) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();

  const auto estimator = test_estimator();
  const auto candidates = candidate_list();

  // Label-free batch: snapshot must carry no tenant-labeled series at all.
  EvalService plain;
  plain.evaluate(estimator, 60, candidates);
  const std::string before = reg.snapshot().to_json();
  EXPECT_EQ(before.find("tenant"), std::string::npos);

  // Tenanted batches: cold run misses for all candidates, warm run hits.
  EvalService tenanted;
  BatchOptions opts;
  opts.tenant = "acme";
  tenanted.evaluate(estimator, 60, candidates, opts);
  tenanted.evaluate(estimator, 60, candidates, opts);
  const auto snap = reg.snapshot();
  const obs::Labels acme{{"tenant", "acme"}};
  ASSERT_NE(snap.counter("eval.cache.tenant.misses", acme), nullptr);
  EXPECT_EQ(snap.counter("eval.cache.tenant.misses", acme)->value,
            candidates.size());
  ASSERT_NE(snap.counter("eval.cache.tenant.hits", acme), nullptr);
  EXPECT_EQ(snap.counter("eval.cache.tenant.hits", acme)->value,
            candidates.size());

  // The tenanted run changed nothing about the label-free series set.
  reg.reset();
  EvalService plain_again;
  plain_again.evaluate(estimator, 60, candidates);
  // (After reset, tenant series still exist as zeroed registrations; the
  // byte-identical pin is on a registry that never saw a tenant.)
  obs::Registry fresh;
  EXPECT_EQ(fresh.snapshot().to_json().find("tenant"), std::string::npos);

  reg.set_enabled(false);
}

// The fair-share hook reports exactly the units the batch simulates: all
// (candidate x repetition) units when cold, zero when warm.
TEST(EvalService, SimulatedUnitsHookCountsColdUnitsOnly) {
  EvalService service;
  const auto estimator = test_estimator();  // 3 repetitions
  const auto candidates = candidate_list();

  std::vector<std::size_t> reported;
  BatchOptions opts;
  opts.on_simulated_units = [&](std::size_t units) {
    reported.push_back(units);
  };
  service.evaluate(estimator, 60, candidates, opts);
  service.evaluate(estimator, 60, candidates, opts);
  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported[0], candidates.size() * 3);
  EXPECT_EQ(reported[1], 0u);

  // The hook is an observer: results are identical with and without it.
  EvalService unhooked;
  const auto a = unhooked.evaluate(estimator, 60, candidates);
  EvalService hooked;
  const auto b = hooked.evaluate(estimator, 60, candidates, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

}  // namespace
}  // namespace expert::eval
