#include "expert/core/estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "expert/obs/metrics.hpp"
#include "expert/obs/profile.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/sim/engine.hpp"
#include "expert/sim/event_heap.hpp"
#include "expert/strategies/replication.hpp"
#include "expert/util/assert.hpp"

namespace expert::core {

namespace {

struct EstimatorObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter estimates = reg.counter("core.estimator.estimates");
  obs::Counter runs = reg.counter("core.estimator.runs");
  obs::Counter unfinished = reg.counter("core.estimator.unfinished_runs");
  obs::Counter ur_sent =
      reg.counter("core.estimator.unreliable_instances_sent");
  obs::Counter r_sent = reg.counter("core.estimator.reliable_instances_sent");
  obs::Counter duplicates = reg.counter("core.estimator.duplicate_results");
  /// Wall time of one estimate() call — one (N, T, D, Mr) strategy point.
  obs::Histogram estimate_wall =
      reg.histogram("core.estimator.estimate_wall_seconds");
};

EstimatorObs& estimator_obs() {
  static EstimatorObs metrics;
  return metrics;
}

using strategies::StrategyConfig;
using strategies::ThroughputPolicy;
using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One simulated BoT execution (one Estimator repetition): the replication
/// policy of paper Fig. 3 over count-based pools, with unreliable
/// turnarounds drawn from the model and reliable instances taking T_r.
///
/// Events are plain records popped in (time, seq) order like
/// sim::Engine's, so the RNG draws keep their order. An unreliable success
/// fires a drawn turnaround after its send and waits on the run's
/// sim::EventHeap, the one sim::Engine uses, with the rest of the event in
/// a per-run slab under the entry's slot. The other three kinds fire a
/// fixed delay after they are scheduled, so each appends to its own FIFO
/// lane while it is not earlier than the lane's last entry, and falls back
/// to the heap otherwise (the tail's D and T, a re-armed T-check). The
/// next event is the earliest of the heap top and the three lane heads.
/// A T-check is cancelled lazily: it is skipped when its seq is no longer
/// the one armed for its task. The run collects the instance trace only
/// when it is given a record vector.
class Run {
 public:
  Run(const EstimatorConfig& cfg, const TurnaroundModel& model,
      std::size_t task_count, const StrategyConfig& strategy, util::Rng rng,
      std::vector<InstanceRecord>* records)
      : cfg_(cfg),
        model_(model),
        rng_(rng),
        records_(records),
        policy_(*this, strategy, task_count),
        armed_(task_count, kNoCheck),
        running_(task_count),
        l_ur_(cfg_.unreliable_size),
        l_r_(static_cast<std::size_t>(
            std::ceil(strategy.ntdmr.mr * static_cast<double>(l_ur_)))) {
    if (strategy.throughput == ThroughputPolicy::ReliableOnly) {
      EXPERT_REQUIRE(l_r_ > 0,
                     "ReliableOnly strategy needs a non-empty reliable pool");
    }
    EXPERT_REQUIRE(!Policy::needs_reliable(strategy) || l_r_ > 0,
                   "finite-N strategy needs reliable capacity");
  }

  RunMetrics execute() {
    EXPERT_PHASE(ReplicationLoop);
    policy_.start({
        .throughput_deadline = cfg_.throughput_deadline > 0.0
                                   ? cfg_.throughput_deadline
                                   : 4.0 * model_.mean_successful_turnaround(),
        .tail_trigger = cfg_.tail_tasks_override > 0
                            ? cfg_.tail_tasks_override
                            : (l_ur_ > 0 ? l_ur_ - 1 : 0),
        .replication_cost = charge_cents(cfg_.tr, cfg_.cr_cents_per_s,
                                         cfg_.charging_period_r_s),
    });
    run_until(cfg_.max_sim_time);
    if (records_ && policy_.remaining() > 0) record_in_flight();

    const auto tasks = static_cast<double>(policy_.task_count());
    const auto tail_tasks = static_cast<double>(policy_.tail_tasks());
    const auto max_r_queue = static_cast<double>(policy_.max_reliable_queue());
    RunMetrics m;
    m.finished = policy_.remaining() == 0;
    m.makespan = m.finished ? policy_.completion_time() : cfg_.max_sim_time;
    m.t_tail = policy_.tail_started() ? policy_.t_tail() : m.makespan;
    m.tail_makespan = m.makespan - m.t_tail;
    m.total_cost_cents = policy_.total_cost();
    m.cost_per_task_cents = policy_.total_cost() / tasks;
    m.tail_tasks = tail_tasks;
    m.tail_cost_per_tail_task_cents =
        tail_tasks > 0.0 ? tail_cost_ / tail_tasks : 0.0;
    m.reliable_instances_sent = static_cast<double>(reliable_sent_);
    m.unreliable_instances_sent = static_cast<double>(unreliable_sent_);
    m.duplicate_results = static_cast<double>(policy_.duplicates());
    m.used_mr = l_ur_ > 0 ? static_cast<double>(max_busy_r_) /
                                static_cast<double>(l_ur_)
                          : 0.0;
    m.max_reliable_queue = max_r_queue;
    m.max_reliable_queue_fraction =
        tail_tasks > 0.0 ? max_r_queue / tail_tasks : 0.0;
    return m;
  }

 private:
  /// The fixed-delay kinds, one lane each, follow UnreliableSuccess.
  enum class EventKind : std::uint8_t {
    UnreliableSuccess,
    UnreliableLoss,
    ReliableFinish,
    TCheck,
  };

  struct Event {
    double time = 0.0;
    /// Schedule order: breaks time ties and names a T-check.
    std::uint64_t seq = 0;
    EventKind kind = EventKind::TCheck;
    workload::TaskId task = 0;
    double send_time = 0.0;  ///< of the finishing instance
    double draw = 0.0;       ///< its turnaround; +inf for a loss
  };

  static constexpr std::uint64_t kNoCheck =
      std::numeric_limits<std::uint64_t>::max();

  /// Whether an event at (time, seq) pops before `b`.
  static bool earlier(double time, std::uint64_t seq, const Event& b) {
    if (time != b.time) return time < b.time;
    return seq < b.seq;
  }
  static bool earlier(const Event& a, const Event& b) {
    return earlier(a.time, a.seq, b);
  }

  /// A heap event's fields beyond the (time, seq) of its heap entry.
  struct Payload {
    EventKind kind = EventKind::TCheck;
    workload::TaskId task = 0;
    double send_time = 0.0;
    double draw = 0.0;
  };

  Event heap_event(const sim::EventHeap::Entry& entry) const {
    const Payload& p = payloads_[entry.slot];
    return Event{entry.time, entry.seq, p.kind, p.task, p.send_time, p.draw};
  }

  /// One fixed-delay kind's events in (time, seq) order; the pending ones
  /// start at `head`. Emptied once drained, so it stays short.
  struct Lane {
    std::vector<Event> events;
    std::size_t head = 0;
  };

  std::uint64_t schedule(double at, EventKind kind, workload::TaskId task,
                         double send_time = 0.0, double draw = 0.0) {
    EXPERT_CHECK(at >= now_, "event scheduled in the past");
    const Event e{at, next_seq_++, kind, task, send_time, draw};
    auto* lane = kind == EventKind::UnreliableSuccess
                     ? nullptr
                     : &lanes_[static_cast<std::size_t>(kind) - 1].events;
    if (lane != nullptr && (lane->empty() || lane->back().time <= at)) {
      lane->push_back(e);
    } else {
      const std::uint32_t slot = payloads_.acquire();
      payloads_[slot] = Payload{kind, task, send_time, draw};
      heap_.push(at, e.seq, slot);
    }
    ++stats_.scheduled;
    stats_.max_depth = std::max(stats_.max_depth, ++pending_);
    return e.seq;
  }

  /// The earliest pending event into `next`; false when none is left.
  /// `lane` is set to the lane it heads, or to null when it tops the heap.
  bool peek(Event& next, Lane*& lane) {
    lane = nullptr;
    for (Lane& l : lanes_) {
      if (l.events.empty()) continue;
      if (lane == nullptr ||
          earlier(l.events[l.head], lane->events[lane->head])) {
        lane = &l;
      }
    }
    if (!heap_.empty()) {
      const sim::EventHeap::Entry& top = heap_.top();
      if (lane == nullptr ||
          earlier(top.time, top.seq, lane->events[lane->head])) {
        lane = nullptr;
        next = heap_event(top);
        return true;
      }
    }
    if (lane == nullptr) return false;
    next = lane->events[lane->head];
    return true;
  }

  /// Remove the event peek() found in `lane`.
  void pop(Lane* lane) {
    --pending_;
    if (lane == nullptr) {
      payloads_.release(heap_.top().slot);
      heap_.pop();
      return;
    }
    if (++lane->head == lane->events.size()) {
      lane->events.clear();
      lane->head = 0;
    }
  }

  bool stale(const Event& e) const {
    return e.kind == EventKind::TCheck && armed_[e.task] != e.seq;
  }

  /// sim::Engine::run_until over the run's own queue: stale T-checks leave
  /// the front before the horizon is tested on the next live event.
  void run_until(double horizon) {
    Event e;
    Lane* lane = nullptr;
    while (!stopped_ && peek(e, lane)) {
      if (stale(e)) {
        pop(lane);
        ++stats_.cancelled;
        continue;
      }
      if (e.time > horizon) break;
      pop(lane);
      ++stats_.fired;
      now_ = e.time;
      switch (e.kind) {
        case EventKind::UnreliableSuccess:
          on_finish(e.task, PoolKind::Unreliable, e.send_time, e.draw, true);
          break;
        case EventKind::UnreliableLoss:
          on_finish(e.task, PoolKind::Unreliable, e.send_time, e.draw, false);
          break;
        case EventKind::ReliableFinish:
          on_finish(e.task, PoolKind::Reliable, e.send_time, e.draw, true);
          break;
        case EventKind::TCheck:
          policy_.reconsider(e.task);
          break;
      }
    }
    stats_.flush();
  }

  // ---- the host side of strategies::ReplicationPolicy ----
  using Policy = strategies::ReplicationPolicy<Run>;
  friend Policy;

  double now() const { return now_; }

  void arm_check(workload::TaskId task, double at) {
    armed_[task] = schedule(at, EventKind::TCheck, task);
  }

  void cancel_check(workload::TaskId task) { armed_[task] = kNoCheck; }

  /// Pools are counts, so a slot is just the pool; the reliable one is
  /// free whenever the policy's cap allows it.
  std::optional<PoolKind> idle_slot(PoolKind pool) const {
    if (pool == PoolKind::Unreliable && busy_ur_ >= l_ur_) return std::nullopt;
    return pool;
  }

  std::size_t busy_reliable() const { return busy_r_; }
  std::size_t reliable_capacity() const { return l_r_; }

  void send(workload::TaskId task, PoolKind pool) {
    const double now = now_;
    policy_.sent(task);
    ++running_[task];

    if (pool == PoolKind::Unreliable) {
      ++busy_ur_;
      ++unreliable_sent_;
      const double deadline = policy_.deadline();
      double draw;
      {
        // Nested inside the replication loop; the profiler charges draw
        // time to TaskTimeDraw and suspends the loop's clock meanwhile.
        EXPERT_PHASE(TaskTimeDraw);
        draw = model_.sample(rng_, now);
      }
      if (draw < deadline) {
        schedule(now + draw, EventKind::UnreliableSuccess, task, now, draw);
      } else {
        schedule(now + deadline, EventKind::UnreliableLoss, task, now, kInf);
      }
    } else {
      ++busy_r_;
      ++reliable_sent_;
      // Any reliable instance is the task's (N+1)-th, CN* overflow too.
      policy_.set_reliable_used(task, true);
      max_busy_r_ = std::max(max_busy_r_, busy_r_);
      schedule(now + cfg_.tr, EventKind::ReliableFinish, task, now, cfg_.tr);
    }
    // The Estimator re-arms the T-check at every send (paper §IV).
    policy_.schedule_check(task);
  }

  /// A run cut at the horizon records each instance still running as an
  /// unreturned Timeout, as gridsim's executor does, so the trace holds
  /// every instance sent. They come in send order.
  void record_in_flight() {
    std::vector<Event> in_flight;
    const auto keep = [&](const Event& e) {
      if (e.kind != EventKind::TCheck) in_flight.push_back(e);
    };
    for (const sim::EventHeap::Entry& entry : heap_.entries()) {
      keep(heap_event(entry));
    }
    for (const Lane& lane : lanes_) {
      for (std::size_t i = lane.head; i < lane.events.size(); ++i) {
        keep(lane.events[i]);
      }
    }
    // An outcome event is scheduled at its instance's send.
    std::sort(in_flight.begin(), in_flight.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    for (const Event& e : in_flight) {
      records_->push_back(InstanceRecord{
          e.task,
          e.kind == EventKind::ReliableFinish ? PoolKind::Reliable
                                              : PoolKind::Unreliable,
          e.send_time, kInf, InstanceOutcome::Timeout, 0.0,
          policy_.in_tail(e.send_time)});
    }
  }

  void record(const InstanceRecord& cancelled) {
    if (records_) records_->push_back(cancelled);
  }

  void on_tail_start() {}
  void stop() { stopped_ = true; }

  void on_finish(workload::TaskId task, PoolKind pool, double send_time,
                 double turnaround, bool success) {
    EXPERT_CHECK(running_[task] > 0, "finish without running instance");
    --running_[task];
    if (pool == PoolKind::Unreliable) {
      EXPERT_CHECK(busy_ur_ > 0, "unreliable busy-count underflow");
      --busy_ur_;
    } else {
      EXPERT_CHECK(busy_r_ > 0, "reliable busy-count underflow");
      --busy_r_;
    }

    const bool tail_sent = policy_.in_tail(send_time);
    double cost = 0.0;
    if (success) {
      cost = pool == PoolKind::Unreliable
                 ? charge_cents(turnaround, cfg_.cur_cents_per_s,
                                cfg_.charging_period_ur_s)
                 : charge_cents(cfg_.tr, cfg_.cr_cents_per_s,
                                cfg_.charging_period_r_s);
      if (tail_sent) tail_cost_ += cost;
    }
    if (records_) {
      records_->push_back(InstanceRecord{
          task, pool, send_time, turnaround,
          success ? InstanceOutcome::Success : InstanceOutcome::Timeout, cost,
          tail_sent});
    }
    if (success) {
      policy_.succeeded(task, cost);
    } else {
      policy_.reconsider(task);
    }
  }

  const EstimatorConfig& cfg_;
  const TurnaroundModel& model_;
  util::Rng rng_;
  std::vector<InstanceRecord>* const records_;  ///< null: metrics only

  sim::EventHeap heap_;
  sim::SlotSlab<Payload> payloads_;  ///< heap events' payloads, by slot
  /// UnreliableLoss, ReliableFinish and TCheck, in EventKind order.
  std::array<Lane, 3> lanes_;
  std::size_t pending_ = 0;  ///< events in the heap and the lanes
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  bool stopped_ = false;
  sim::QueueStats stats_;

  Policy policy_;
  std::vector<std::uint64_t> armed_;  ///< per task: seq of its live T-check
  std::vector<std::size_t> running_;  ///< instances in flight, per task

  const std::size_t l_ur_;
  const std::size_t l_r_;

  std::size_t busy_ur_ = 0;
  std::size_t busy_r_ = 0;
  std::size_t max_busy_r_ = 0;
  std::size_t unreliable_sent_ = 0;
  std::size_t reliable_sent_ = 0;
  double tail_cost_ = 0.0;
};

/// One seeded repetition, counted in core.estimator.*: the traced run
/// when `records` is given, the metrics-only one when it is null.
RunMetrics run_once(const EstimatorConfig& config, const TurnaroundModel& model,
                    std::size_t task_count, const StrategyConfig& strategy,
                    std::uint64_t stream, std::size_t repetition,
                    std::vector<InstanceRecord>* records) {
  EXPERT_REQUIRE(task_count > 0, "empty BoT");
  EXPERT_SPAN("estimator.simulate");
  strategy.validate();
  util::Rng rng(util::derive_seed(util::derive_seed(config.seed, stream),
                                  repetition));
  const RunMetrics r =
      Run(config, model, task_count, strategy, rng, records).execute();

  // Per-run counts live here (not in estimate()) so every simulation path —
  // estimate(), the eval service's batched units, direct simulate() calls —
  // lands in the same core.estimator.* metrics.
  if (obs::Registry::global().enabled()) {
    EstimatorObs& m = estimator_obs();
    m.runs.inc();
    if (!r.finished) m.unfinished.inc();
    m.ur_sent.inc(static_cast<std::uint64_t>(r.unreliable_instances_sent));
    m.r_sent.inc(static_cast<std::uint64_t>(r.reliable_instances_sent));
    m.duplicates.inc(static_cast<std::uint64_t>(r.duplicate_results));
  }
  return r;
}

/// Field-wise aggregation helpers for RunMetrics.
constexpr double RunMetrics::* kMetricFields[] = {
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

}  // namespace

EstimatorConfig EstimatorConfig::from_user_params(const UserParams& params,
                                                  std::size_t unreliable_size) {
  params.validate();
  EstimatorConfig cfg;
  cfg.unreliable_size = unreliable_size;
  cfg.tr = params.tr;
  cfg.cur_cents_per_s = params.cur_cents_per_s;
  cfg.cr_cents_per_s = params.cr_cents_per_s;
  cfg.charging_period_ur_s = params.charging_period_ur_s;
  cfg.charging_period_r_s = params.charging_period_r_s;
  cfg.throughput_deadline = params.throughput_deadline();
  return cfg;
}

void EstimatorConfig::validate() const {
  EXPERT_REQUIRE(unreliable_size > 0, "need at least one unreliable machine");
  EXPERT_REQUIRE(tr > 0.0, "T_r must be positive");
  EXPERT_REQUIRE(repetitions > 0, "need at least one repetition");
  EXPERT_REQUIRE(max_sim_time > 0.0, "horizon must be positive");
}

Estimator::Estimator(EstimatorConfig config, TurnaroundModel model)
    : config_(config), model_(std::move(model)) {
  config_.validate();
}

std::pair<RunMetrics, trace::ExecutionTrace> Estimator::simulate(
    std::size_t task_count, const strategies::StrategyConfig& strategy,
    std::uint64_t stream, std::size_t repetition) const {
  std::vector<InstanceRecord> records;
  const RunMetrics m = run_once(config_, model_, task_count, strategy, stream,
                                repetition, &records);
  return {m, trace::ExecutionTrace(task_count, std::move(records), m.t_tail,
                                   m.makespan, !m.finished)};
}

RunMetrics Estimator::simulate_metrics(
    std::size_t task_count, const strategies::StrategyConfig& strategy,
    std::uint64_t stream, std::size_t repetition) const {
  return run_once(config_, model_, task_count, strategy, stream, repetition,
                  nullptr);
}

EstimateResult aggregate_runs(std::vector<RunMetrics> runs) {
  EXPERT_PHASE(Aggregation);
  EXPERT_REQUIRE(!runs.empty(), "aggregate over zero runs");
  EstimateResult result;
  result.runs = std::move(runs);
  const auto n = static_cast<double>(result.runs.size());
  result.mean.finished = true;
  for (const auto& run : result.runs)
    result.mean.finished = result.mean.finished && run.finished;
  for (auto field : kMetricFields) {
    double sum = 0.0;
    for (const auto& run : result.runs) sum += run.*field;
    const double mean = sum / n;
    result.mean.*field = mean;
    double sq = 0.0;
    for (const auto& run : result.runs) {
      const double d = run.*field - mean;
      sq += d * d;
    }
    result.stddev.*field =
        result.runs.size() > 1 ? std::sqrt(sq / (n - 1.0)) : 0.0;
  }
  return result;
}

EstimateResult Estimator::estimate(std::size_t task_count,
                                   const strategies::StrategyConfig& strategy,
                                   std::uint64_t stream) const {
  EXPERT_SPAN("estimator.estimate");
  const bool observed = obs::Registry::global().enabled();
  // Wall-clock via the obs tracer's monotonic origin: clock access is an
  // obs/ concern (expert_lint ND003), and the value only feeds a metric.
  const std::uint64_t wall_start =
      observed ? obs::Tracer::global().now_ns() : 0;

  std::vector<RunMetrics> runs;
  runs.reserve(config_.repetitions);
  for (std::size_t rep = 0; rep < config_.repetitions; ++rep) {
    runs.push_back(simulate_metrics(task_count, strategy, stream, rep));
  }

  if (observed) {
    EstimatorObs& m = estimator_obs();
    m.estimates.inc();
    m.estimate_wall.observe(
        static_cast<double>(obs::Tracer::global().now_ns() - wall_start) /
        1e9);
  }
  return aggregate_runs(std::move(runs));
}

EstimateResult Estimator::estimate(const workload::Bot& bot,
                                   const strategies::StrategyConfig& strategy,
                                   std::uint64_t stream) const {
  return estimate(bot.size(), strategy, stream);
}

}  // namespace expert::core
