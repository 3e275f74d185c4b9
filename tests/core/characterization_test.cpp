#include "expert/core/characterization.hpp"

#include <gtest/gtest.h>

#include "expert/util/assert.hpp"
#include "expert/util/rng.hpp"

namespace expert::core {
namespace {

using trace::ExecutionTrace;
using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

/// Synthesize a throughput-phase history: instances sent uniformly over
/// [0, t_tail), success probability `gamma(send)`, successful turnarounds
/// uniform in [200, 1200].
ExecutionTrace synthetic_history(double t_tail, std::size_t instances,
                                 const std::function<double(double)>& gamma,
                                 std::uint64_t seed = 42) {
  util::Rng rng(seed);
  std::vector<InstanceRecord> records;
  std::size_t task = 0;
  const std::size_t tasks = instances;  // one instance per task is enough
  for (std::size_t i = 0; i < instances; ++i) {
    const double send =
        t_tail * static_cast<double>(i) / static_cast<double>(instances);
    InstanceRecord r;
    r.task = static_cast<workload::TaskId>(task++ % tasks);
    r.pool = PoolKind::Unreliable;
    r.send_time = send;
    if (rng.bernoulli(gamma(send))) {
      r.turnaround = rng.uniform(200.0, 1200.0);
      r.outcome = InstanceOutcome::Success;
      r.cost_cents = 0.1;
    } else {
      r.turnaround = trace::kNeverReturns;
      r.outcome = InstanceOutcome::Timeout;
    }
    records.push_back(r);
  }
  return ExecutionTrace(tasks, std::move(records), t_tail, t_tail + 1000.0);
}

TEST(Characterize, OfflineRecoversConstantGamma) {
  const auto history =
      synthetic_history(10000.0, 4000, [](double) { return 0.8; });
  const auto model = characterize(
      history, {ReliabilityMode::Offline, /*deadline=*/2000.0, 8});
  EXPECT_NEAR(model.gamma(5000.0), 0.8, 0.05);
  EXPECT_NEAR(model.gamma_model().mean_gamma(), 0.8, 0.03);
}

TEST(Characterize, OfflineRecoversFsRange) {
  const auto history =
      synthetic_history(10000.0, 4000, [](double) { return 0.9; });
  const auto model = characterize(
      history, {ReliabilityMode::Offline, 2000.0, 8});
  EXPECT_GE(model.fs().min(), 200.0);
  EXPECT_LE(model.fs().max(), 1200.0);
  EXPECT_NEAR(model.mean_successful_turnaround(), 700.0, 30.0);
}

TEST(Characterize, OnlineFullKnowledgeEpochMatchesOffline) {
  const auto history =
      synthetic_history(20000.0, 6000, [](double) { return 0.85; });
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto online = characterize(history, opts);
  // Sends well inside the full-knowledge epoch (t' < t_tail - D).
  EXPECT_NEAR(online.gamma(5000.0), 0.85, 0.05);
}

TEST(Characterize, OnlineDetectsReliabilityDrop) {
  // Reliability degrades from 0.95 to 0.55 halfway through.
  const auto gamma_fn = [](double t) { return t < 10000.0 ? 0.95 : 0.55; };
  const auto history = synthetic_history(20000.0, 8000, gamma_fn);
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto model = characterize(history, opts);
  EXPECT_GT(model.gamma(2000.0), 0.85);
  EXPECT_LT(model.gamma(16000.0), 0.80);
  // Zero-knowledge epoch mixes both epochs' means.
  const double future = model.gamma(50000.0);
  EXPECT_GT(future, 0.5);
  EXPECT_LT(future, 0.95);
}

TEST(Characterize, OnlineZeroKnowledgeAveragesEpochs) {
  const auto history =
      synthetic_history(20000.0, 8000, [](double) { return 0.8; });
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto model = characterize(history, opts);
  EXPECT_NEAR(model.gamma(1.0e6), 0.8, 0.07);
}

TEST(Characterize, OnlinePartialEpochTruncatedToOne) {
  // All instances succeed: Eq. 2's ratio may exceed 1 and must be clamped.
  const auto history =
      synthetic_history(10000.0, 4000, [](double) { return 1.0; });
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto model = characterize(history, opts);
  for (double t = 0.0; t < 20000.0; t += 500.0) {
    EXPECT_LE(model.gamma(t), 1.0);
    EXPECT_GE(model.gamma(t), 0.0);
  }
}

TEST(Characterize, PartialEpochTruncatedFromBelowByEpochOneMinimum) {
  // A catastrophic reliability collapse right before T_tail: Eq. 2's raw
  // estimate would crash toward zero, but the paper truncates it from
  // below by the minimal full-knowledge-epoch value.
  const auto gamma_fn = [](double t) { return t < 18000.0 ? 0.9 : 0.02; };
  const auto history = synthetic_history(20000.0, 8000, gamma_fn);
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto model = characterize(history, opts);
  // Epoch-1 windows all sit near 0.9; the partial-knowledge epoch may not
  // dip below their minimum.
  double epoch1_min = 1.0;
  for (double t = 0.0; t < 18000.0; t += 500.0) {
    epoch1_min = std::min(epoch1_min, model.gamma(t));
  }
  for (double t = 18000.0; t < 20000.0; t += 100.0) {
    EXPECT_GE(model.gamma(t), epoch1_min - 1e-12) << "t'=" << t;
  }
}

TEST(Characterize, OnlineIgnoresPostTailData) {
  // Records sent after T_tail must not leak into the online model: append
  // a block of late failures and verify the model is unchanged.
  const auto base = synthetic_history(10000.0, 4000, [](double) {
    return 0.85;
  });
  auto records = base.records();
  for (int i = 0; i < 500; ++i) {
    trace::InstanceRecord r;
    r.task = static_cast<workload::TaskId>(static_cast<std::size_t>(i) %
                                           base.task_count());
    r.pool = trace::PoolKind::Unreliable;
    r.send_time = 10000.0 + i;
    r.turnaround = trace::kNeverReturns;
    r.outcome = trace::InstanceOutcome::Timeout;
    records.push_back(r);
  }
  const trace::ExecutionTrace extended(base.task_count(), std::move(records),
                                       base.t_tail(), 12000.0);
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto clean = characterize(base, opts);
  const auto noisy = characterize(extended, opts);
  for (double t = 0.0; t < 15000.0; t += 500.0) {
    EXPECT_DOUBLE_EQ(clean.gamma(t), noisy.gamma(t)) << t;
  }
  EXPECT_EQ(clean.fs().size(), noisy.fs().size());
}

TEST(Characterize, ShortThroughputPhaseDegeneratesGracefully) {
  // Throughput phase shorter than the deadline: no full-knowledge epoch.
  const auto history =
      synthetic_history(1500.0, 400, [](double) { return 0.9; });
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 4};
  const auto model = characterize(history, opts);
  EXPECT_GT(model.gamma(0.0), 0.0);
  EXPECT_LE(model.gamma(0.0), 1.0);
}

TEST(Characterize, ThrowsWithoutData) {
  std::vector<InstanceRecord> only_reliable = {
      {0, PoolKind::Reliable, 0.0, 100.0, InstanceOutcome::Success, 1.0,
       false}};
  ExecutionTrace history(1, std::move(only_reliable), 50.0, 200.0);
  EXPECT_THROW(characterize(history), util::ContractViolation);
}

TEST(EstimateEffectiveSize, RecoversSaturatedPoolSize) {
  // 40 machines, tasks of ~600s, throughput phase 12000s: build a history
  // where exactly 40 instances run concurrently at all times.
  std::vector<InstanceRecord> records;
  const std::size_t machines = 40;
  const double task_len = 600.0;
  const double t_tail = 12000.0;
  std::size_t task = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    for (double t = 0.0; t + task_len <= t_tail; t += task_len) {
      InstanceRecord r;
      r.task = static_cast<workload::TaskId>(task++);
      r.pool = PoolKind::Unreliable;
      r.send_time = t;
      r.turnaround = task_len;
      r.outcome = InstanceOutcome::Success;
      r.cost_cents = 0.1;
      records.push_back(r);
    }
  }
  const std::size_t tasks = task;
  ExecutionTrace history(tasks, std::move(records), t_tail, t_tail + 100.0);
  EXPECT_EQ(estimate_effective_size(history), machines);
}

TEST(CharacterizeChecked, EmptyThroughputPhaseDegrades) {
  ExecutionTrace history(
      1, {{0, PoolKind::Unreliable, 0.0, 10.0, InstanceOutcome::Success, 0.1,
           true}},
      0.0, 100.0);
  const auto checked = characterize_checked(history);
  EXPECT_FALSE(checked.model.has_value());
  ASSERT_TRUE(checked.degradation.has_value());
  EXPECT_EQ(*checked.degradation, DegradationReason::NoThroughputPhase);
  EXPECT_EQ(checked.quality.unreliable_instances, 0u);
  EXPECT_FALSE(checked.quality.sufficient);
}

TEST(CharacterizeChecked, ReliableOnlyHistoryDegrades) {
  ExecutionTrace history(
      1, {{0, PoolKind::Reliable, 0.0, 100.0, InstanceOutcome::Success, 1.0,
           false}},
      50.0, 200.0);
  const auto checked = characterize_checked(history);
  EXPECT_FALSE(checked.model.has_value());
  ASSERT_TRUE(checked.degradation.has_value());
  EXPECT_EQ(*checked.degradation, DegradationReason::NoUnreliableInstances);
}

TEST(CharacterizeChecked, AllFailuresDegrade) {
  std::vector<InstanceRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back({0, PoolKind::Unreliable, static_cast<double>(i * 10),
                       trace::kNeverReturns, InstanceOutcome::Timeout, 0.0,
                       false});
  }
  ExecutionTrace history(1, std::move(records), 500.0, 600.0);
  const auto checked = characterize_checked(history);
  EXPECT_FALSE(checked.model.has_value());
  ASSERT_TRUE(checked.degradation.has_value());
  EXPECT_EQ(*checked.degradation, DegradationReason::NoObservedSuccesses);
  EXPECT_EQ(checked.quality.unreliable_instances, 30u);
  EXPECT_EQ(checked.quality.observed_successes, 0u);
}

TEST(CharacterizeChecked, TooFewSamplesDegrade) {
  const auto history =
      synthetic_history(10000.0, 6, [](double) { return 1.0; });
  const auto checked = characterize_checked(history);
  EXPECT_FALSE(checked.model.has_value());
  ASSERT_TRUE(checked.degradation.has_value());
  EXPECT_EQ(*checked.degradation, DegradationReason::InsufficientSamples);
  EXPECT_EQ(checked.quality.unreliable_instances, 6u);
  EXPECT_FALSE(checked.quality.sufficient);
}

TEST(CharacterizeChecked, ThresholdsAreTunable) {
  const auto history =
      synthetic_history(10000.0, 6, [](double) { return 1.0; });
  QualityThresholds relaxed;
  relaxed.min_instances = 3;
  relaxed.min_observed_successes = 2;
  const auto checked = characterize_checked(history, {}, relaxed);
  EXPECT_TRUE(checked.model.has_value());
  EXPECT_FALSE(checked.degradation.has_value());
  EXPECT_TRUE(checked.quality.sufficient);
}

TEST(CharacterizeChecked, GoodHistoryYieldsModelAndQuality) {
  const auto history =
      synthetic_history(10000.0, 4000, [](double) { return 0.8; });
  const auto checked = characterize_checked(
      history, {ReliabilityMode::Offline, /*deadline=*/2000.0, 8});
  ASSERT_TRUE(checked.model.has_value());
  EXPECT_FALSE(checked.degradation.has_value());
  EXPECT_TRUE(checked.quality.sufficient);
  EXPECT_EQ(checked.quality.unreliable_instances, 4000u);
  EXPECT_GT(checked.quality.observed_successes, 2000u);
  EXPECT_GE(checked.quality.censored_fraction, 0.0);
  EXPECT_LT(checked.quality.censored_fraction, 0.5);
  EXPECT_EQ(checked.quality.epoch1_instances + checked.quality.epoch2_instances,
            checked.quality.unreliable_instances);
  EXPECT_NEAR(checked.model->gamma(5000.0), 0.8, 0.05);
}

TEST(CharacterizeChecked, MatchesDirectCharacterization) {
  const auto history =
      synthetic_history(10000.0, 4000, [](double) { return 0.85; });
  CharacterizationOptions opts{ReliabilityMode::Online, 2000.0, 8};
  const auto direct = characterize(history, opts);
  const auto checked = characterize_checked(history, opts);
  ASSERT_TRUE(checked.model.has_value());
  for (double t = 0.0; t < 15000.0; t += 1000.0) {
    EXPECT_DOUBLE_EQ(checked.model->gamma(t), direct.gamma(t)) << t;
  }
}

TEST(AssessQuality, CountsCensoredInstances) {
  // Three observations: one resolved success, one success finishing past
  // T_tail (censored), one unresolved timeout (censored).
  std::vector<InstanceRecord> records = {
      {0, PoolKind::Unreliable, 0.0, 100.0, InstanceOutcome::Success, 0.1,
       false},
      {1, PoolKind::Unreliable, 900.0, 300.0, InstanceOutcome::Success, 0.1,
       false},
      {2, PoolKind::Unreliable, 500.0, trace::kNeverReturns,
       InstanceOutcome::Timeout, 0.0, false},
  };
  ExecutionTrace history(3, std::move(records), 1000.0, 1300.0);
  const auto q = assess_quality(history, {}, {});
  EXPECT_EQ(q.unreliable_instances, 3u);
  EXPECT_EQ(q.observed_successes, 1u);
  EXPECT_NEAR(q.censored_fraction, 2.0 / 3.0, 1e-12);
}

TEST(EstimateEffectiveSize, AtLeastOne) {
  std::vector<InstanceRecord> records = {
      {0, PoolKind::Unreliable, 0.0, 1.0, InstanceOutcome::Success, 0.1,
       false}};
  ExecutionTrace history(1, std::move(records), 1000.0, 1100.0);
  EXPECT_GE(estimate_effective_size(history), 1u);
}

}  // namespace
}  // namespace expert::core
