#pragma once

// Frozen reference copy of the Estimator's run (core::Run in
// src/core/estimator.cpp) as it stood before the replication policy moved
// into strategies::ReplicationPolicy: closure events on sim::Engine, its
// own task states, queues and phase rules. EstimatorOracle holds
// Estimator::simulate to these RunMetrics bits and trace bytes. Do not
// "improve" this file; it is the oracle.

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "expert/core/estimator.hpp"
#include "expert/obs/profile.hpp"
#include "expert/sim/engine.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/rng.hpp"

namespace expert::core::estimator_oracle {

using strategies::StrategyConfig;
using strategies::TailMode;
using strategies::ThroughputPolicy;
using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Replication rules in force during a phase: the throughput phase behaves
/// like NTDMr with N = inf and T = D = throughput deadline on the primary
/// pool; the tail phase uses the strategy's parameters.
struct PhaseRules {
  std::optional<unsigned> n;  ///< unreliable enqueues allowed per tail task
  double timeout_t = 0.0;
  double deadline_d = 0.0;
};

/// One simulated BoT execution (one Estimator repetition). Implements the
/// task-instance flow of paper Fig. 3 over a discrete-event engine.
class Run {
 public:
  Run(const EstimatorConfig& cfg, const TurnaroundModel& model,
      std::size_t task_count, const StrategyConfig& strategy, util::Rng rng)
      : cfg_(cfg),
        model_(model),
        strategy_(strategy),
        rng_(rng),
        tasks_(task_count),
        remaining_(task_count) {
    thr_deadline_ = cfg_.throughput_deadline > 0.0
                        ? cfg_.throughput_deadline
                        : 4.0 * model_.mean_successful_turnaround();
    l_ur_ = cfg_.unreliable_size;
    l_r_ = static_cast<std::size_t>(
        std::ceil(strategy_.ntdmr.mr * static_cast<double>(l_ur_)));
    if (strategy_.throughput == ThroughputPolicy::ReliableOnly) {
      EXPERT_REQUIRE(l_r_ > 0,
                     "ReliableOnly strategy needs a non-empty reliable pool");
    }
    if ((strategy_.tail_mode == TailMode::NTDMrTail ||
         strategy_.tail_mode == TailMode::ReplicateAllReliable) &&
        strategy_.ntdmr.n.has_value()) {
      // A finite N relies on the guaranteed (N+1)-th reliable instance;
      // users without reliable capacity are restricted to N = inf
      // (paper §III).
      EXPERT_REQUIRE(l_r_ > 0, "finite-N strategy needs reliable capacity");
    }
    tail_trigger_ = cfg_.tail_tasks_override > 0
                        ? cfg_.tail_tasks_override
                        : (l_ur_ > 0 ? l_ur_ - 1 : 0);
    throughput_rules_ = PhaseRules{std::nullopt, thr_deadline_, thr_deadline_};
  }

  std::pair<RunMetrics, trace::ExecutionTrace> execute() {
    EXPERT_PHASE(ReplicationLoop);
    maybe_start_tail();
    for (workload::TaskId t = 0; t < tasks_.size(); ++t) consider_enqueue(t);
    dispatch();
    engine_.run_until(cfg_.max_sim_time);

    RunMetrics m;
    m.finished = remaining_ == 0;
    m.makespan = m.finished ? completion_time_ : cfg_.max_sim_time;
    m.t_tail = tail_started_ ? t_tail_ : m.makespan;
    m.tail_makespan = m.makespan - m.t_tail;
    m.total_cost_cents = total_cost_;
    m.cost_per_task_cents =
        total_cost_ / static_cast<double>(tasks_.size());
    m.tail_tasks = static_cast<double>(tail_tasks_);
    m.tail_cost_per_tail_task_cents =
        tail_tasks_ > 0 ? tail_cost_ / static_cast<double>(tail_tasks_) : 0.0;
    m.reliable_instances_sent = static_cast<double>(reliable_sent_);
    m.unreliable_instances_sent = static_cast<double>(unreliable_sent_);
    m.duplicate_results = static_cast<double>(duplicates_);
    m.used_mr = l_ur_ > 0 ? static_cast<double>(max_busy_r_) /
                                static_cast<double>(l_ur_)
                          : 0.0;
    m.max_reliable_queue = static_cast<double>(max_r_queue_);
    m.max_reliable_queue_fraction =
        tail_tasks_ > 0 ? static_cast<double>(max_r_queue_) /
                              static_cast<double>(tail_tasks_)
                        : 0.0;

    trace::ExecutionTrace tr(tasks_.size(), std::move(records_), m.t_tail,
                             m.makespan);
    return {m, std::move(tr)};
  }

 private:
  enum class Queued { None, Unreliable, Reliable };

  struct TaskState {
    bool completed = false;
    bool reliable_used = false;  ///< the (N+1)-th instance was enqueued/sent
    Queued queued = Queued::None;
    std::uint64_t epoch = 0;  ///< bumps on enqueue/cancel; stale-entry guard
    double enqueue_time = 0.0;
    double last_send = -kInf;
    unsigned tail_ur_enqueued = 0;
    std::size_t running = 0;
    sim::Engine::EventHandle check;
  };

  struct QueueEntry {
    workload::TaskId task = 0;
    std::uint64_t epoch = 0;
  };

  const PhaseRules& current_rules() const {
    return tail_started_ ? tail_rules_ : throughput_rules_;
  }

  /// The rules the tail phase of `strategy_` runs under.
  PhaseRules tail_rules() const {
    switch (strategy_.tail_mode) {
      case TailMode::NTDMrTail:
        return PhaseRules{strategy_.ntdmr.n, strategy_.ntdmr.timeout_t,
                          strategy_.ntdmr.deadline_d};
      case TailMode::ReplicateAllReliable:
        return PhaseRules{0u, 0.0, strategy_.ntdmr.deadline_d};
      case TailMode::Continue:
      case TailMode::BudgetTriggered:
        break;
    }
    return throughput_rules_;
  }

  bool combined_overflow() const {
    return strategy_.throughput == ThroughputPolicy::Combined;
  }
  bool primary_reliable() const {
    return strategy_.throughput == ThroughputPolicy::ReliableOnly;
  }

  void enqueue(workload::TaskId task, Queued where) {
    auto& st = tasks_[task];
    EXPERT_CHECK(st.queued == Queued::None, "task already enqueued");
    EXPERT_CHECK(!st.completed, "enqueue of completed task");
    st.queued = where;
    ++st.epoch;
    st.enqueue_time = engine_.now();
    if (where == Queued::Unreliable) {
      ur_queue_.push_back({task, st.epoch});
    } else {
      r_queue_.push_back({task, st.epoch});
      ++live_r_queue_;
      max_r_queue_ = std::max(max_r_queue_, live_r_queue_);
      st.reliable_used = true;
    }
  }

  void cancel_queued(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.queued == Queued::None) return;
    if (st.queued == Queued::Reliable) {
      EXPERT_CHECK(live_r_queue_ > 0, "reliable queue underflow");
      --live_r_queue_;
    }
    records_.push_back(InstanceRecord{
        task,
        st.queued == Queued::Reliable ? PoolKind::Reliable
                                      : PoolKind::Unreliable,
        st.enqueue_time, kInf, InstanceOutcome::Cancelled, 0.0,
        tail_started_ && st.enqueue_time >= t_tail_});
    st.queued = Queued::None;
    ++st.epoch;
  }

  std::optional<workload::TaskId> pop_valid(std::deque<QueueEntry>& queue,
                                            Queued pool) {
    while (!queue.empty()) {
      const QueueEntry e = queue.front();
      queue.pop_front();
      const auto& st = tasks_[e.task];
      if (st.queued == pool && st.epoch == e.epoch && !st.completed) {
        if (pool == Queued::Reliable) {
          EXPERT_CHECK(live_r_queue_ > 0, "reliable queue underflow");
          --live_r_queue_;
        }
        return e.task;
      }
      // Stale entry: the instance was cancelled (task completed or
      // re-planned) before being sent.
    }
    return std::nullopt;
  }

  void dispatch() {
    while (busy_ur_ < l_ur_) {
      const auto task = pop_valid(ur_queue_, Queued::Unreliable);
      if (!task) break;
      send(*task, PoolKind::Unreliable);
    }
    while (l_r_ > 0 && busy_r_ < l_r_) {
      if (const auto task = pop_valid(r_queue_, Queued::Reliable)) {
        send(*task, PoolKind::Reliable);
        continue;
      }
      // CN*: the unreliable pool is fully utilized (otherwise its queue
      // would have drained above) — overflow onto the reliable pool.
      if (combined_overflow()) {
        if (const auto task = pop_valid(ur_queue_, Queued::Unreliable)) {
          send(*task, PoolKind::Reliable);
          continue;
        }
      }
      break;
    }
  }

  void send(workload::TaskId task, PoolKind pool) {
    const double now = engine_.now();
    auto& st = tasks_[task];
    st.queued = Queued::None;
    ++st.epoch;
    st.last_send = now;
    ++st.running;

    if (pool == PoolKind::Unreliable) {
      ++busy_ur_;
      ++unreliable_sent_;
      const double deadline = current_rules().deadline_d;
      double draw;
      {
        // Nested inside the replication loop; the profiler charges draw
        // time to TaskTimeDraw and suspends the loop's clock meanwhile.
        EXPERT_PHASE(TaskTimeDraw);
        draw = model_.sample(rng_, now);
      }
      if (draw < deadline) {
        engine_.schedule_in(draw, [this, task, now, draw] {
          on_finish(task, PoolKind::Unreliable, now, draw, true);
        });
      } else {
        engine_.schedule_in(deadline, [this, task, now] {
          on_finish(task, PoolKind::Unreliable, now, kInf, false);
        });
      }
    } else {
      ++busy_r_;
      ++reliable_sent_;
      st.reliable_used = true;
      max_busy_r_ = std::max(max_busy_r_, busy_r_);
      engine_.schedule_in(cfg_.tr, [this, task, now] {
        on_finish(task, PoolKind::Reliable, now, cfg_.tr, true);
      });
    }
    schedule_check(task);
  }

  void on_finish(workload::TaskId task, PoolKind pool, double send_time,
                 double turnaround, bool success) {
    const double now = engine_.now();
    auto& st = tasks_[task];
    EXPERT_CHECK(st.running > 0, "finish without running instance");
    --st.running;
    if (pool == PoolKind::Unreliable) {
      EXPERT_CHECK(busy_ur_ > 0, "unreliable busy-count underflow");
      --busy_ur_;
    } else {
      EXPERT_CHECK(busy_r_ > 0, "reliable busy-count underflow");
      --busy_r_;
    }

    double cost = 0.0;
    if (success) {
      cost = pool == PoolKind::Unreliable
                 ? charge_cents(turnaround, cfg_.cur_cents_per_s,
                                cfg_.charging_period_ur_s)
                 : charge_cents(cfg_.tr, cfg_.cr_cents_per_s,
                                cfg_.charging_period_r_s);
      total_cost_ += cost;
      if (tail_started_ && send_time >= t_tail_) tail_cost_ += cost;
    }
    const bool tail_sent = tail_started_ && send_time >= t_tail_;
    records_.push_back(InstanceRecord{
        task, pool, send_time, turnaround,
        success ? InstanceOutcome::Success : InstanceOutcome::Timeout, cost,
        tail_sent});

    if (success) {
      if (!st.completed) {
        st.completed = true;
        --remaining_;
        cancel_queued(task);
        st.check.cancel();
        if (remaining_ == 0) {
          completion_time_ = now;
          engine_.stop();  // the campaign ends; late duplicates are unpaid
        } else {
          maybe_start_tail();
          check_budget_trigger();
        }
      } else {
        ++duplicates_;
      }
    } else if (!st.completed) {
      consider_enqueue(task);
    }
    dispatch();
  }

  /// The Estimator's replication rule (paper §IV): enqueue one instance for
  /// a task that has no result yet, whose last instance was sent at least T
  /// ago, and that has no instance currently enqueued.
  void consider_enqueue(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.completed || st.queued != Queued::None) return;
    const PhaseRules& rules = current_rules();
    const double now = engine_.now();
    // Must match schedule_check's `due = last_send + T` exactly: comparing
    // `now - last_send < T` can disagree by one ulp and re-arm a same-time
    // check forever.
    if (now < st.last_send + rules.timeout_t) {
      schedule_check(task);
      return;
    }
    if (primary_reliable()) {
      enqueue(task, Queued::Reliable);
      return;
    }
    if (!tail_started_ || !rules.n.has_value()) {
      // Throughput phase, or an N = inf tail: unreliable pool only.
      enqueue(task, Queued::Unreliable);
      return;
    }
    if (st.tail_ur_enqueued < *rules.n) {
      ++st.tail_ur_enqueued;
      enqueue(task, Queued::Unreliable);
    } else if (!st.reliable_used && l_r_ > 0) {
      enqueue(task, Queued::Reliable);
    }
    // else: every allowed instance is out; the reliable one (if any) will
    // complete the task.
  }

  void schedule_check(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.completed) return;
    const double due = st.last_send + current_rules().timeout_t;
    st.check.cancel();
    const double at = std::max(due, engine_.now());
    st.check = engine_.schedule_at(at, [this, task] {
      consider_enqueue(task);
      dispatch();
    });
  }

  void maybe_start_tail() {
    if (tail_started_) return;
    if (remaining_ > tail_trigger_) return;
    tail_started_ = true;
    t_tail_ = engine_.now();
    tail_tasks_ = remaining_;
    tail_rules_ = tail_rules();
    for (workload::TaskId t = 0; t < tasks_.size(); ++t) {
      if (!tasks_[t].completed) consider_enqueue(t);
    }
    check_budget_trigger();
  }

  void check_budget_trigger() {
    if (strategy_.tail_mode != TailMode::BudgetTriggered || budget_fired_)
      return;
    const double replication_cost =
        static_cast<double>(remaining_) *
        charge_cents(cfg_.tr, cfg_.cr_cents_per_s, cfg_.charging_period_r_s);
    if (replication_cost > strategy_.budget_cents - total_cost_) return;
    budget_fired_ = true;
    for (workload::TaskId t = 0; t < tasks_.size(); ++t) {
      auto& st = tasks_[t];
      if (st.completed || st.reliable_used) continue;
      if (st.queued == Queued::Reliable) continue;
      if (st.queued == Queued::Unreliable) cancel_queued(t);
      if (l_r_ > 0) enqueue(t, Queued::Reliable);
    }
  }

  const EstimatorConfig& cfg_;
  const TurnaroundModel& model_;
  const StrategyConfig& strategy_;
  util::Rng rng_;

  sim::Engine engine_;
  std::vector<TaskState> tasks_;
  std::deque<QueueEntry> ur_queue_;
  std::deque<QueueEntry> r_queue_;
  std::vector<InstanceRecord> records_;

  PhaseRules throughput_rules_;
  PhaseRules tail_rules_;  ///< set once, when the tail starts

  std::size_t l_ur_ = 0;
  std::size_t l_r_ = 0;
  double thr_deadline_ = 0.0;
  std::size_t tail_trigger_ = 0;

  std::size_t remaining_ = 0;
  std::size_t busy_ur_ = 0;
  std::size_t busy_r_ = 0;
  std::size_t max_busy_r_ = 0;
  std::size_t live_r_queue_ = 0;
  std::size_t max_r_queue_ = 0;
  std::size_t unreliable_sent_ = 0;
  std::size_t reliable_sent_ = 0;
  std::size_t duplicates_ = 0;
  double total_cost_ = 0.0;
  double tail_cost_ = 0.0;
  bool tail_started_ = false;
  bool budget_fired_ = false;
  double t_tail_ = 0.0;
  std::size_t tail_tasks_ = 0;
  double completion_time_ = 0.0;
};

/// Estimator::simulate's stream derivation around the frozen run.
inline std::pair<RunMetrics, trace::ExecutionTrace> simulate(
    const EstimatorConfig& config, const TurnaroundModel& model,
    std::size_t task_count, const StrategyConfig& strategy,
    std::uint64_t stream, std::size_t repetition) {
  strategy.validate();
  util::Rng rng(
      util::derive_seed(util::derive_seed(config.seed, stream), repetition));
  Run run(config, model, task_count, strategy, rng);
  return run.execute();
}

}  // namespace expert::core::estimator_oracle
