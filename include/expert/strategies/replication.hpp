#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "expert/strategies/static_strategies.hpp"
#include "expert/trace/trace.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/bot.hpp"

namespace expert::strategies {

/// The task-instance flow of paper Fig. 3 (§III-IV): N unreliable replicas
/// sent T apart with deadline D, then one reliable (N+1)-th instance, under
/// the Mr cap. The Estimator (count-based pools) and gridsim's executor
/// (machines) both drive this one policy. It owns the task states, the two
/// FCFS queues (stale entries are skipped by epoch), the phase rules, the
/// dispatch order, the T-check rule, completion bookkeeping, the tail start
/// and the budget trigger. The host owns time, capacity and instances:
///
///   double now() const;
///   void arm_check(TaskId, double at);   // replaces the task's T-check
///   void cancel_check(TaskId);
///   std::optional<Slot> idle_slot(trace::PoolKind);
///   std::size_t busy_reliable() const;
///   std::size_t reliable_capacity() const;            // the Mr cap
///   void send(TaskId, Slot);             // calls sent() once launched
///   void record(const trace::InstanceRecord&);        // a cancelled one
///   void on_tail_start();  // at T_tail, before the tail rules are read
///   void stop();           // the last task completed
///
/// and reports outcomes through succeeded() and reconsider(). The
/// host is a template parameter so the Estimator's per-event path makes
/// no indirect call.
template <typename Host>
class ReplicationPolicy {
 public:
  using TaskId = workload::TaskId;
  using PoolKind = trace::PoolKind;

  /// What the host derives, once per run, from its own view of the pools.
  struct Params {
    double throughput_deadline = 0.0;  ///< also the throughput-phase T
    std::size_t tail_trigger = 0;  ///< the tail starts at this many tasks left
    double replication_cost = 0.0;  ///< one task on the reliable pool
  };

  /// Whether `strategy` may need a reliable instance: a finite-N tail
  /// relies on the guaranteed (N+1)-th one, so users without reliable
  /// capacity are restricted to N = inf (paper §III).
  static bool needs_reliable(const StrategyConfig& strategy) {
    return (strategy.tail_mode == TailMode::NTDMrTail ||
            strategy.tail_mode == TailMode::ReplicateAllReliable) &&
           strategy.ntdmr.n.has_value();
  }

  /// `strategy` is read, not copied: a host may rewrite it from
  /// on_tail_start() (the executor's online selector does).
  ReplicationPolicy(Host& host, const StrategyConfig& strategy,
                    std::size_t task_count)
      : host_(host),
        strategy_(strategy),
        tasks_(task_count),
        remaining_(task_count) {}

  /// Enqueue every task under the throughput rules and dispatch.
  void start(const Params& params) {
    throughput_rules_ = PhaseRules{std::nullopt, params.throughput_deadline,
                                   params.throughput_deadline};
    tail_trigger_ = params.tail_trigger;
    replication_cost_ = params.replication_cost;
    maybe_start_tail();
    for (TaskId t = 0; t < tasks_.size(); ++t) consider_enqueue(t);
    dispatch();
  }

  /// Fill idle slots: the unreliable queue first, then the reliable queue
  /// under the Mr cap, which CN* strategies overflow the unreliable queue
  /// onto.
  void dispatch() {
    while (const auto slot = host_.idle_slot(PoolKind::Unreliable)) {
      const auto task = pop_valid(ur_queue_, PoolKind::Unreliable);
      if (!task) break;
      host_.send(*task, *slot);
    }
    const std::size_t cap = host_.reliable_capacity();
    while (host_.busy_reliable() < cap) {
      const auto slot = host_.idle_slot(PoolKind::Reliable);
      if (!slot) break;
      if (const auto task = pop_valid(r_queue_, PoolKind::Reliable)) {
        host_.send(*task, *slot);
        continue;
      }
      // CN*: the unreliable pool is fully used (otherwise its queue would
      // have drained above), so the reliable pool takes its overflow.
      if (strategy_.throughput == ThroughputPolicy::Combined) {
        if (const auto task = pop_valid(ur_queue_, PoolKind::Unreliable)) {
          host_.send(*task, *slot);
          continue;
        }
      }
      break;
    }
  }

  /// The host launched an instance of `task` now.
  void sent(TaskId task) { tasks_[task].last_send = host_.now(); }

  /// A result of `task` arrived; `cost` was charged for it.
  void succeeded(TaskId task, double cost) {
    total_cost_ += cost;
    auto& st = tasks_[task];
    if (st.completed) {
      ++duplicates_;
    } else {
      st.completed = true;
      --remaining_;
      cancel_queued(task);
      host_.cancel_check(task);
      if (remaining_ == 0) {
        completion_time_ = host_.now();
        host_.stop();  // the campaign ends; late duplicates are unpaid
      } else {
        maybe_start_tail();
        check_budget_trigger();
      }
    }
    dispatch();
  }

  /// An instance of `task` was lost, or the T-check the host armed for it
  /// fired: apply the replication rule again.
  void reconsider(TaskId task) {
    consider_enqueue(task);
    dispatch();
  }

  /// Arm the task's next T-check: due T after its last send, under the
  /// rules in force now.
  void schedule_check(TaskId task) {
    const auto& st = tasks_[task];
    if (st.completed) return;
    const double due = st.last_send + current_rules().timeout_t;
    host_.arm_check(task, std::max(due, host_.now()));
  }

  /// Queue one instance of `task` on `pool`. An instance queued on the
  /// reliable pool is the task's (N+1)-th.
  void enqueue(TaskId task, PoolKind pool) {
    auto& st = tasks_[task];
    EXPERT_CHECK(!st.queued, "task already enqueued");
    EXPERT_CHECK(!st.completed, "enqueue of completed task");
    st.queued = pool;
    ++st.epoch;
    st.enqueue_time = host_.now();
    if (pool == PoolKind::Unreliable) {
      ur_queue_.push_back({task, st.epoch});
    } else {
      r_queue_.push_back({task, st.epoch});
      ++live_r_queue_;
      max_r_queue_ = std::max(max_r_queue_, live_r_queue_);
      st.reliable_used = true;
    }
  }

  /// Whether `task`'s (N+1)-th instance is out: the Estimator also counts
  /// CN* overflow sends, gridsim frees it again when the instance is lost.
  void set_reliable_used(TaskId task, bool used) {
    tasks_[task].reliable_used = used;
  }

  bool completed(TaskId task) const { return tasks_[task].completed; }
  bool queued(TaskId task) const { return tasks_[task].queued.has_value(); }
  /// Deadline of an unreliable instance sent now.
  double deadline() const { return current_rules().deadline_d; }
  /// Whether an instance sent at `send_time` belongs to the tail phase.
  bool in_tail(double send_time) const {
    return tail_started_ && send_time >= t_tail_;
  }
  bool tail_started() const { return tail_started_; }
  double t_tail() const { return t_tail_; }
  std::size_t tail_tasks() const { return tail_tasks_; }  ///< left at T_tail
  std::size_t task_count() const { return tasks_.size(); }
  std::size_t remaining() const { return remaining_; }
  double completion_time() const { return completion_time_; }  ///< last task
  double total_cost() const { return total_cost_; }
  std::size_t duplicates() const { return duplicates_; }
  std::size_t max_reliable_queue() const { return max_r_queue_; }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Replication rules in force during a phase: the throughput phase
  /// behaves like NTDMr with N = inf and T = D = throughput deadline on the
  /// primary pool; the tail phase uses the strategy's parameters.
  struct PhaseRules {
    std::optional<unsigned> n;  ///< unreliable enqueues allowed per tail task
    double timeout_t = 0.0;
    double deadline_d = 0.0;
  };

  struct TaskState {
    bool completed = false;
    bool reliable_used = false;  ///< the (N+1)-th instance was enqueued/sent
    std::optional<PoolKind> queued;  ///< the queue holding an instance
    unsigned tail_ur_enqueued = 0;
    std::uint64_t epoch = 0;  ///< bumps on enqueue/pop/cancel; stale guard
    double enqueue_time = 0.0;
    double last_send = -kInf;
  };

  struct QueueEntry {
    TaskId task = 0;
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

  void cancel_queued(TaskId task) {
    auto& st = tasks_[task];
    if (!st.queued) return;
    if (*st.queued == PoolKind::Reliable) {
      EXPERT_CHECK(live_r_queue_ > 0, "reliable queue underflow");
      --live_r_queue_;
    }
    host_.record(trace::InstanceRecord{
        task, *st.queued, st.enqueue_time, kInf,
        trace::InstanceOutcome::Cancelled, 0.0, in_tail(st.enqueue_time)});
    st.queued.reset();
    ++st.epoch;
  }

  /// The first live entry of `queue`, taken out of its queue for sending.
  std::optional<TaskId> pop_valid(std::deque<QueueEntry>& queue,
                                  PoolKind pool) {
    while (!queue.empty()) {
      const QueueEntry e = queue.front();
      queue.pop_front();
      auto& st = tasks_[e.task];
      if (st.queued == pool && st.epoch == e.epoch && !st.completed) {
        if (pool == PoolKind::Reliable) {
          EXPERT_CHECK(live_r_queue_ > 0, "reliable queue underflow");
          --live_r_queue_;
        }
        st.queued.reset();
        ++st.epoch;
        return e.task;
      }
      // Stale entry: the instance was cancelled (task completed or
      // re-planned) before being sent.
    }
    return std::nullopt;
  }

  /// The replication rule (paper §IV): enqueue one instance for a task
  /// that has no result yet, whose last instance was sent at least T ago,
  /// and that has no instance currently enqueued.
  void consider_enqueue(TaskId task) {
    auto& st = tasks_[task];
    if (st.completed || st.queued) return;
    const PhaseRules& rules = current_rules();
    // Must match schedule_check's `due = last_send + T` exactly: comparing
    // `now - last_send < T` can disagree by one ulp and re-arm a same-time
    // check forever.
    if (host_.now() < st.last_send + rules.timeout_t) {
      schedule_check(task);
      return;
    }
    if (strategy_.throughput == ThroughputPolicy::ReliableOnly) {
      enqueue(task, PoolKind::Reliable);
      return;
    }
    if (!tail_started_ || !rules.n.has_value()) {
      // Throughput phase, or an N = inf tail: unreliable pool only.
      enqueue(task, PoolKind::Unreliable);
      return;
    }
    if (st.tail_ur_enqueued < *rules.n) {
      ++st.tail_ur_enqueued;
      enqueue(task, PoolKind::Unreliable);
    } else if (!st.reliable_used && host_.reliable_capacity() > 0) {
      enqueue(task, PoolKind::Reliable);
    }
    // else: every allowed instance is out; the reliable one (if any) will
    // complete the task.
  }

  void maybe_start_tail() {
    if (tail_started_ || remaining_ > tail_trigger_) return;
    tail_started_ = true;
    t_tail_ = host_.now();
    tail_tasks_ = remaining_;
    host_.on_tail_start();
    tail_rules_ = tail_rules();
    for (TaskId t = 0; t < tasks_.size(); ++t) {
      if (!tasks_[t].completed) consider_enqueue(t);
    }
    check_budget_trigger();
  }

  /// BudgetTriggered: once replicating every remaining task on the
  /// reliable pool fits the budget left, send each one a reliable instance.
  void check_budget_trigger() {
    // Without reliable capacity there is nowhere to replicate to: firing
    // would only cancel the unreliable queue and strand its tasks.
    if (strategy_.tail_mode != TailMode::BudgetTriggered || budget_fired_ ||
        host_.reliable_capacity() == 0) {
      return;
    }
    const double replication_cost =
        static_cast<double>(remaining_) * replication_cost_;
    if (replication_cost > strategy_.budget_cents - total_cost_) return;
    budget_fired_ = true;
    for (TaskId t = 0; t < tasks_.size(); ++t) {
      auto& st = tasks_[t];
      if (st.completed || st.reliable_used) continue;
      if (st.queued == PoolKind::Reliable) continue;
      if (st.queued == PoolKind::Unreliable) cancel_queued(t);
      enqueue(t, PoolKind::Reliable);
    }
  }

  Host& host_;
  const StrategyConfig& strategy_;
  std::vector<TaskState> tasks_;
  std::deque<QueueEntry> ur_queue_;
  std::deque<QueueEntry> r_queue_;

  PhaseRules throughput_rules_;
  PhaseRules tail_rules_;  ///< set once, when the tail starts
  std::size_t tail_trigger_ = 0;
  double replication_cost_ = 0.0;

  std::size_t remaining_ = 0;
  std::size_t live_r_queue_ = 0;
  std::size_t max_r_queue_ = 0;
  std::size_t duplicates_ = 0;
  double total_cost_ = 0.0;
  bool tail_started_ = false;
  bool budget_fired_ = false;
  double t_tail_ = 0.0;
  std::size_t tail_tasks_ = 0;
  double completion_time_ = 0.0;
};

}  // namespace expert::strategies
