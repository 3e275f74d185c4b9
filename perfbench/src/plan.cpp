// `plan`: ExPERT's headline runtime (paper §VI). One op characterizes a
// fresh Experiment-11 history and recommends a strategy for the 150-task
// BoT at paper resolution (560 candidates x 10 repetitions).

#include <optional>
#include <stdexcept>

#include "expert/core/expert.hpp"
#include "expert/eval/key.hpp"
#include "expert/eval/service.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/sim/engine.hpp"
#include "expert/util/rng.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace expert;

constexpr std::size_t kTasks = 150;
/// Below the 560 keys of one op, so the warm-up fills every LRU shard and
/// each timed op inserts and evicts, as in a long-lived planner.
constexpr std::size_t kCacheCapacity = 256;
/// Every kCheckEvery-th op is recomputed on a fresh single-thread service.
constexpr std::uint64_t kCheckEvery = 25;
/// Spread evenly over the 560 candidates, shifted by one per op.
constexpr std::size_t kReplayUnits = 56;
constexpr std::size_t kDraws = 50'000;
constexpr std::size_t kEngineEvents = 20'000;

/// Digest of everything an op returns: every sampled point, the merged
/// frontier and the recommendation.
std::uint64_t digest_output(const core::FrontierResult& frontier,
                            const std::optional<core::Recommendation>& rec) {
  util::HashState h(0x9A11ULL);
  for (const auto& p : frontier.sampled) mix_point(h, p);
  for (const auto& p : frontier.frontier()) mix_point(h, p);
  h.mix(rec.has_value());
  if (rec) {
    mix_point(h, rec->predicted);
    h.mix(rec->utility_score);
  }
  return h.digest();
}

class Plan final : public Workload {
 public:
  Plan(const Options& options, RunRecord& record)
      : options_(options),
        record_(record),
        exp_(find_experiment(11)),
        history_strategy_(gridsim::make_experiment_strategy(exp_)),
        utility_(core::Utility::min_cost_makespan_product()) {}

  void setup() override {
    const auto& wl = workload::workload_spec(exp_.workload);
    bot_ = workload::make_bot(exp_.workload,
                              util::derive_seed(options_.seed, 0xB07));
    eval_ = std::make_unique<eval::EvalService>(kCacheCapacity,
                                                options_.threads);
    expert_options_.characterization.instance_deadline = wl.deadline_d;
    expert_options_.characterization.windows_per_epoch = 6;
    expert_options_.frontier.service = eval_.get();
    // The warm-up op's history is the same for every seed, so setup_s
    // does not depend on the seed.
    make_history(0, ~0ULL);
    run_op();
    make_history(options_.seed, 0);
  }

  double step(bool traced) override {
    Counters counters;
    if (traced) counters.take_before();
    const auto t0 = Clock::now();
    {
      ScopedSpan span("plan.op");
      run_op();
    }
    const auto t1 = Clock::now();
    if (traced) counters.take_after();
    Tracer::get().set_on(false);
    obs::Registry::global().set_enabled(false);

    const double ms = ms_between(t0, t1);
    record_.add_op(ms, traced);
    check_op();
    if (traced) replay(counters);
    ++op_;
    make_history(options_.seed, op_);
    return seconds_between(t0, t1);
  }

  void finish(bool traced) override {
    if (!traced) return;
    // Set-up synthesis of the history BoT (820 tasks).
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const auto bot = workload::make_bot(exp_.workload,
                                          util::derive_seed(options_.seed, 0xB07));
      record_.layer_samples["workload.synth_ms"].push_back(
          ms_between(t0, Clock::now()));
      if (bot.size() != bot_.size()) record_.fail("plan: BoT synthesis is not deterministic");
    }
    const double units = static_cast<double>(units_);
    const double batch_ms = batch_ms_total_;
    const double run_us = mean(record_.layer_samples["core.estimator.run_us"]);
    record_.layer_values["eval.units_per_batch"] =
        batches_ ? units / static_cast<double>(batches_) : 0.0;
    record_.bases["eval.units_per_batch"] =
        std::to_string(units_) + " units / " + std::to_string(batches_) + " batches";
    record_.layer_values["eval.batch_ms"] =
        batches_ ? batch_ms / static_cast<double>(batches_) : 0.0;
    const double pool_ms = batch_ms * static_cast<double>(options_.threads);
    record_.layer_values["eval.pool_efficiency"] =
        pool_ms > 0 ? units * run_us / 1000.0 / pool_ms : 0.0;
    record_.bases["eval.pool_efficiency"] =
        std::to_string(units_) + " units x " + std::to_string(run_us) +
        " us serial / (" + std::to_string(batch_ms) + " batch ms x " +
        std::to_string(options_.threads) + " threads)";
    const auto lookups = hits_ + misses_;
    record_.layer_values["eval.cache.hit_ratio"] =
        lookups ? static_cast<double>(hits_) / static_cast<double>(lookups) : 0.0;
    record_.bases["eval.cache.hit_ratio"] =
        std::to_string(hits_) + " hits / " + std::to_string(lookups) + " lookups";
    record_.layer_values["sim.events_per_run"] =
        runs_ ? static_cast<double>(scheduled_) / static_cast<double>(runs_) : 0.0;
    record_.bases["sim.events_per_run"] = std::to_string(scheduled_) +
                                          " events / " + std::to_string(runs_) +
                                          " estimator runs";
    record_.layer_values["sim.cancelled_ratio"] =
        scheduled_ ? static_cast<double>(cancelled_) / static_cast<double>(scheduled_)
                   : 0.0;
    record_.bases["sim.cancelled_ratio"] = std::to_string(cancelled_) +
                                           " cancelled / " +
                                           std::to_string(scheduled_) + " scheduled";
  }

 private:
  static const gridsim::TableVExperiment& find_experiment(int number) {
    for (const auto& e : gridsim::table_v_experiments()) {
      if (e.number == number) return e;
    }
    throw std::runtime_error("no Table V experiment " + std::to_string(number));
  }

  /// A fresh Experiment-11 history: its own OSG pool draw and stream per
  /// op, so a run's ops sample the pool variation instead of fixing one.
  void make_history(std::uint64_t seed, std::uint64_t op) {
    const gridsim::Executor executor(gridsim::make_experiment_environment(
        exp_, util::derive_seed(seed ^ 0x4157ULL, op)));
    history_ = executor.run(bot_, history_strategy_);
  }

  void run_op() {
    std::optional<core::ExpertBuildReport> built;
    {
      ScopedSpan span("core.characterize");
      built.emplace(core::Expert::from_history_robust(history_, params_,
                                                      expert_options_));
    }
    core::FrontierResult frontier;
    {
      ScopedSpan span("core.frontier");
      frontier = built->expert.build_frontier(kTasks);
    }
    {
      ScopedSpan span("core.recommend");
      rec_ = core::Expert::recommend(frontier, utility_);
    }
    built_ = std::move(built);
    frontier_ = std::move(frontier);
  }

  void check_op() {
    if (built_->used_fallback_model()) {
      record_.fail("plan op " + std::to_string(op_) + ": fell back to the synthetic model");
    }
    if (!rec_) record_.fail("plan op " + std::to_string(op_) + ": no recommendation");
    if (frontier_.sampled.size() != 560) {
      record_.fail("plan op " + std::to_string(op_) + ": " +
                   std::to_string(frontier_.sampled.size()) + " candidates, expected 560");
    }
    const std::uint64_t digest = digest_output(frontier_, rec_);
    if (record_.wants_digest()) {
      record_.digest.mix(digest);
      ++record_.digested;
    }
    if (op_ % kCheckEvery == kCheckEvery - 1) {
      // Recompute from scratch on one thread and an empty cache.
      eval::EvalService fresh(eval::EvalCache::kDefaultCapacity, 1);
      auto opts = expert_options_;
      opts.frontier.service = &fresh;
      opts.frontier.threads = 1;
      const auto built = core::Expert::from_history_robust(history_, params_, opts);
      const auto frontier = built.expert.build_frontier(kTasks);
      const auto rec = core::Expert::recommend(frontier, utility_);
      if (digest_output(frontier, rec) != digest) {
        record_.fail("plan op " + std::to_string(op_) +
                     ": single-thread recomputation differs");
      }
    }
  }

  void replay(const Counters& counters) {
    const core::Estimator& estimator = built_->expert.estimator();
    runs_ += counters.delta("core.estimator.runs");
    scheduled_ += counters.delta("sim.engine.events_scheduled");
    cancelled_ += counters.delta("sim.engine.events_cancelled");
    units_ += counters.delta("eval.batch.units");
    batches_ += counters.delta("eval.batch.batches");
    hits_ += counters.delta("eval.cache.hits");
    misses_ += counters.delta("eval.cache.misses");
    batch_ms_total_ += counters.histogram_delta("eval.batch.wall_seconds").second * 1e3;

    // One estimator run: serial replay of sampled (candidate, repetition)
    // units with the streams the eval layer derived for them.
    const auto& sampled = frontier_.sampled;
    const std::size_t reps = estimator.config().repetitions;
    std::vector<eval::EvalKey> keys;
    keys.reserve(sampled.size());
    for (const auto& p : sampled) {
      keys.push_back(eval::make_eval_key(estimator.config(), estimator.model().digest(),
                                         p.params, kTasks, reps,
                                         core::TimeObjective::TailMakespan,
                                         core::CostObjective::CostPerTask));
    }
    double sink = 0.0;
    {
      const auto t0 = Clock::now();
      for (std::size_t u = 0; u < kReplayUnits; ++u) {
        const std::size_t c = (u * sampled.size() / kReplayUnits + op_) % sampled.size();
        const auto strategy = strategies::make_ntdmr_strategy(sampled[c].params);
        sink += estimator.simulate(kTasks, strategy, keys[c].stream(), u % reps)
                    .first.makespan;
      }
      record_.layer_samples["core.estimator.run_us"].push_back(
          ms_between(t0, Clock::now()) * 1e3 / static_cast<double>(kReplayUnits));
    }
    // Batched turnaround draws on the op's model.
    {
      util::Rng rng(util::derive_seed(options_.seed, op_));
      const double horizon = 4.0 * params_.tur;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kDraws; ++i) {
        sink += estimator.model().sample(
            rng, horizon * static_cast<double>(i % 64) / 64.0);
      }
      record_.layer_samples["core.turnaround_draw_ns"].push_back(
          ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(kDraws));
    }
    {
      const auto t0 = Clock::now();
      const auto pareto = core::s_pareto(sampled);
      record_.layer_samples["core.pareto_ms"].push_back(ms_between(t0, Clock::now()));
      sink += static_cast<double>(pareto.merged.size());
    }
    {
      const auto t0 = Clock::now();
      std::size_t found = 0;
      for (const auto& key : keys) found += eval_->cache().lookup(key).has_value();
      record_.layer_samples["eval.cache.lookup_us"].push_back(
          ms_between(t0, Clock::now()) * 1e3 / static_cast<double>(keys.size()));
      sink += static_cast<double>(found);
    }
    // Schedule + fire on a fresh engine.
    {
      sim::Engine engine;
      util::Rng rng(util::derive_seed(options_.seed, ~op_));
      std::uint64_t fired = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kEngineEvents; ++i) {
        engine.schedule_at(rng.uniform(0.0, 1e6), [&fired] { ++fired; });
      }
      engine.run();
      record_.layer_samples["sim.event_ns"].push_back(
          ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(kEngineEvents));
      if (fired != kEngineEvents) record_.fail("sim: engine lost events");
    }
    if (sink == -1.0) record_.fail("unreachable");
  }

  const Options& options_;
  RunRecord& record_;
  const gridsim::TableVExperiment& exp_;
  strategies::StrategyConfig history_strategy_;
  core::Utility utility_;
  core::UserParams params_;
  core::ExpertOptions expert_options_;
  workload::Bot bot_;
  std::unique_ptr<eval::EvalService> eval_;
  trace::ExecutionTrace history_;

  std::uint64_t op_ = 0;
  std::optional<core::ExpertBuildReport> built_;
  core::FrontierResult frontier_;
  std::optional<core::Recommendation> rec_;

  std::uint64_t runs_ = 0, scheduled_ = 0, cancelled_ = 0;
  std::uint64_t units_ = 0, batches_ = 0, hits_ = 0, misses_ = 0;
  double batch_ms_total_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_plan(const Options& options, RunRecord& record) {
  return std::make_unique<Plan>(options, record);
}

}  // namespace perfbench
