// Differential test of the Estimator against its frozen reference run
// (tests/oracle/estimator_oracle.hpp): bitwise-equal RunMetrics from both
// the traced and the metrics-only run, and equal trace-CSV bytes, over the
// seven static strategies, sampled NTDMr points, four BoT sizes, five
// streams and every EstimatorConfig knob the run reads. The oracle drops
// the instances still running when the horizon cuts a run; the Estimator
// records them after the oracle's records, so an unfinished run's trace
// is compared up to them. Mr is never 0 for Budget here: that case has its
// own tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "estimator_oracle.hpp"
#include "expert/core/estimator.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/rng.hpp"

namespace expert::core {
namespace {

using strategies::StaticStrategyKind;
using strategies::StrategyConfig;

constexpr double kMean = 1000.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kBotSizes[] = {1, 37, 150, 820};

/// The synthetic model's turnaround CDF under a reliability that changes
/// with send time, so draws depend on t' as in a characterized history.
const TurnaroundModel& model() {
  static const TurnaroundModel m(
      make_synthetic_model(kMean, 300.0, 3200.0, 0.7).fs(),
      std::make_shared<PiecewiseReliability>(
          std::vector<PiecewiseReliability::Window>{{0.0, 3000.0, 0.9},
                                                    {3000.0, 8000.0, 0.5}},
          0.75));
  return m;
}

EstimatorConfig base_config() {
  EstimatorConfig cfg;
  cfg.unreliable_size = 50;
  cfg.tr = kMean;
  cfg.throughput_deadline = 4.0 * kMean;
  cfg.repetitions = 1;
  cfg.seed = 0x0EAC1EULL;
  return cfg;
}

/// Budget (in cents) that the trigger reaches partway through the tail:
/// the unreliable spend grows with the BoT, the reliable replication of
/// ~10 tasks costs ~95 cents at T_r = 1000 s and 34 c/h.
double budget_for(std::size_t tasks) {
  return 0.5 * static_cast<double>(tasks) + 100.0;
}

std::vector<StrategyConfig> static_strategies(std::size_t tasks) {
  std::vector<StrategyConfig> out;
  for (const double mr : {0.1, 0.5}) {
    for (const auto kind : strategies::kAllStaticStrategies) {
      out.push_back(strategies::make_static_strategy(kind, kMean, mr,
                                                     budget_for(tasks)));
    }
  }
  return out;
}

/// 24 NTDMr points drawn from a fixed stream: N cycles through 0..3 and
/// inf, T through 0, D and a fraction of D; D spans 0.6-4 mean turnarounds.
std::vector<StrategyConfig> sampled_ntdmr() {
  util::Rng rng(0x5A3D1EULL);
  std::vector<StrategyConfig> out;
  for (unsigned i = 0; i < 24; ++i) {
    strategies::NTDMr p;
    if (i % 5 != 4) p.n = i % 5;
    p.deadline_d = rng.uniform(0.6, 4.0) * kMean;
    switch ((i / 5) % 3) {
      case 0: p.timeout_t = 0.0; break;
      case 1: p.timeout_t = p.deadline_d; break;
      default: p.timeout_t = rng.uniform(0.1, 1.0) * p.deadline_d; break;
    }
    // Finite N needs reliable capacity; N = inf also runs at Mr = 0.
    p.mr = p.n ? rng.uniform(0.02, 0.6) : (i % 2 == 0 ? 0.0 : 0.3);
    out.push_back(strategies::make_ntdmr_strategy(p));
  }
  return out;
}

std::string csv(const trace::ExecutionTrace& tr) {
  std::ostringstream out;
  trace::write_csv(tr, out);
  return out.str();
}

void expect_same_bits(const RunMetrics& got, const RunMetrics& want,
                      const std::string& where) {
  EXPECT_EQ(got.finished, want.finished) << where;
  constexpr double RunMetrics::* kFields[] = {
      &RunMetrics::makespan,
      &RunMetrics::t_tail,
      &RunMetrics::tail_makespan,
      &RunMetrics::total_cost_cents,
      &RunMetrics::cost_per_task_cents,
      &RunMetrics::tail_cost_per_tail_task_cents,
      &RunMetrics::tail_tasks,
      &RunMetrics::reliable_instances_sent,
      &RunMetrics::unreliable_instances_sent,
      &RunMetrics::duplicate_results,
      &RunMetrics::used_mr,
      &RunMetrics::max_reliable_queue,
      &RunMetrics::max_reliable_queue_fraction,
  };
  for (std::size_t f = 0; f < std::size(kFields); ++f) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.*kFields[f]),
              std::bit_cast<std::uint64_t>(want.*kFields[f]))
        << where << ", RunMetrics field " << f;
  }
}

std::string run_name(const StrategyConfig& strategy, std::size_t tasks,
                     std::uint64_t stream) {
  return strategy.name + ", " + std::to_string(tasks) + " tasks, stream " +
         std::to_string(stream);
}

/// Nothing of the run happens past the horizon: a finished run ends
/// within it, and so does every result it records.
void expect_within_horizon(const RunMetrics& m, const trace::ExecutionTrace& tr,
                           double horizon, const std::string& where) {
  if (m.finished) {
    EXPECT_LE(m.makespan, horizon) << where;
  }
  for (const auto& r : tr.records()) {
    if (r.outcome != trace::InstanceOutcome::Success) continue;
    EXPECT_LE(r.send_time + r.turnaround, horizon)
        << where << ", task " << r.task << " sent at " << r.send_time;
  }
}

/// A finished run's trace is the oracle's, byte for byte. A run cut at the
/// horizon is marked truncated, and its records are the oracle's followed
/// by one unreturned Timeout per instance still running, in send order.
void expect_same_trace(const RunMetrics& m, const trace::ExecutionTrace& got,
                       const trace::ExecutionTrace& want,
                       const std::string& where) {
  EXPECT_EQ(got.truncated(), !m.finished) << where;
  if (m.finished) {
    EXPECT_EQ(csv(got), csv(want)) << where;
    return;
  }
  const auto& records = got.records();
  const auto recorded = static_cast<std::ptrdiff_t>(want.records().size());
  ASSERT_GE(std::ssize(records), recorded) << where;
  const trace::ExecutionTrace head(
      got.task_count(), {records.begin(), records.begin() + recorded},
      got.t_tail(), got.makespan());
  EXPECT_EQ(csv(head), csv(want)) << where;
  double last_send = 0.0;
  for (auto r = records.begin() + recorded; r != records.end(); ++r) {
    EXPECT_EQ(r->outcome, trace::InstanceOutcome::Timeout) << where;
    EXPECT_EQ(r->turnaround, kInf) << where;
    EXPECT_EQ(r->cost_cents, 0.0) << where;
    EXPECT_LE(last_send, r->send_time) << where;
    last_send = r->send_time;
  }
}

/// Every strategy of `strategies(tasks)` at every BoT size and streams
/// 1..5 matches the oracle under `cfg`, traced and metrics-only; returns
/// how many runs finished.
template <typename Strategies>
std::size_t expect_matches_oracle(const EstimatorConfig& cfg,
                                  Strategies strategies) {
  const Estimator estimator(cfg, model());
  std::size_t finished = 0;
  for (const std::size_t tasks : kBotSizes) {
    for (const auto& strategy : strategies(tasks)) {
      for (std::uint64_t stream = 1; stream <= 5; ++stream) {
        const auto [got, got_trace] = estimator.simulate(tasks, strategy, stream);
        const auto [want, want_trace] = estimator_oracle::simulate(
            cfg, model(), tasks, strategy, stream, /*repetition=*/0);
        const std::string where = run_name(strategy, tasks, stream);
        expect_same_bits(got, want, where);
        expect_same_bits(estimator.simulate_metrics(tasks, strategy, stream),
                         want, where + ", metrics only");
        expect_same_trace(got, got_trace, want_trace, where);
        expect_within_horizon(got, got_trace, cfg.max_sim_time, where);
        if (got.finished) ++finished;
      }
    }
  }
  return finished;
}

TEST(EstimatorOracle, StaticStrategies) {
  expect_matches_oracle(base_config(), static_strategies);
}

TEST(EstimatorOracle, SampledNTDMr) {
  expect_matches_oracle(base_config(),
                        [](std::size_t) { return sampled_ntdmr(); });
}

/// Static strategies and the NTDMr sample together.
std::vector<StrategyConfig> every_strategy(std::size_t tasks) {
  auto out = static_strategies(tasks);
  for (auto& s : sampled_ntdmr()) out.push_back(std::move(s));
  return out;
}

TEST(EstimatorOracle, TailTasksOverride) {
  EstimatorConfig cfg = base_config();
  cfg.tail_tasks_override = 7;
  expect_matches_oracle(cfg, every_strategy);
}

TEST(EstimatorOracle, ThroughputDeadlineFromTheModel) {
  EstimatorConfig cfg = base_config();
  cfg.throughput_deadline = 0.0;
  expect_matches_oracle(cfg, every_strategy);
}

TEST(EstimatorOracle, HourlyBilling) {
  EstimatorConfig cfg = base_config();
  cfg.charging_period_r_s = 3600.0;
  cfg.charging_period_ur_s = 3600.0;
  expect_matches_oracle(cfg, every_strategy);
}

TEST(EstimatorOracle, UnfinishedAtAShortHorizon) {
  EstimatorConfig cfg = base_config();
  cfg.max_sim_time = 6000.0;
  const std::size_t finished = expect_matches_oracle(cfg, every_strategy);
  // The horizon cuts the large BoTs but not the single task.
  const std::size_t runs = std::size(kBotSizes) * every_strategy(1).size() * 5;
  EXPECT_GT(finished, 0u);
  EXPECT_LT(finished, runs);
}

/// Each instance a cut run sent is in its trace exactly once: returned,
/// lost, or still running at the horizon.
TEST(EstimatorOracle, TruncatedTraceHoldsEverySentInstance) {
  EstimatorConfig cfg = base_config();
  cfg.max_sim_time = 6000.0;
  const Estimator estimator(cfg, model());
  std::size_t truncated = 0;
  for (const std::size_t tasks : kBotSizes) {
    for (const auto& strategy : every_strategy(tasks)) {
      for (std::uint64_t stream = 1; stream <= 5; ++stream) {
        const auto [m, tr] = estimator.simulate(tasks, strategy, stream);
        if (m.finished) continue;
        ++truncated;
        const auto sent = std::count_if(
            tr.records().begin(), tr.records().end(), [](const auto& r) {
              return r.outcome != trace::InstanceOutcome::Cancelled;
            });
        const std::string where = run_name(strategy, tasks, stream);
        EXPECT_EQ(m.unreliable_instances_sent + m.reliable_instances_sent,
                  static_cast<double>(sent))
            << where;
        EXPECT_EQ(m.reliable_instances_sent,
                  static_cast<double>(tr.reliable_instances_sent()))
            << where;
      }
    }
  }
  EXPECT_GT(truncated, 0u);
}

TEST(EstimatorOracle, EstimateAggregatesTracedRepetitions) {
  EstimatorConfig cfg = base_config();
  cfg.repetitions = 3;
  const Estimator estimator(cfg, model());
  for (const std::size_t tasks : kBotSizes) {
    for (const auto& strategy : every_strategy(tasks)) {
      for (std::uint64_t stream = 1; stream <= 5; ++stream) {
        std::vector<RunMetrics> runs;
        for (std::size_t rep = 0; rep < cfg.repetitions; ++rep) {
          runs.push_back(
              estimator.simulate(tasks, strategy, stream, rep).first);
        }
        const EstimateResult want = aggregate_runs(std::move(runs));
        const EstimateResult got = estimator.estimate(tasks, strategy, stream);
        const std::string where = run_name(strategy, tasks, stream);
        expect_same_bits(got.mean, want.mean, where + ", mean");
        expect_same_bits(got.stddev, want.stddev, where + ", stddev");
        ASSERT_EQ(got.runs.size(), want.runs.size()) << where;
        for (std::size_t rep = 0; rep < got.runs.size(); ++rep) {
          expect_same_bits(got.runs[rep], want.runs[rep],
                           where + ", repetition " + std::to_string(rep));
        }
      }
    }
  }
}

}  // namespace
}  // namespace expert::core
