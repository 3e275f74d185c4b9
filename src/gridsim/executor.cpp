#include "expert/gridsim/executor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <csignal>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <variant>

#include "expert/gridsim/env/dynamics.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/sim/engine.hpp"
#include "expert/strategies/replication.hpp"
#include "expert/util/money.hpp"
#include "expert/util/assert.hpp"

namespace expert::gridsim {

namespace {

/// Per-pool instance lifecycle counters share one metric name split by a
/// {"pool"} label carrying the pool's *name* (v2 labeled series; cardinality
/// bounded by kMaxSeriesPerName), so dashboards sum a family with
/// counter_total() instead of knowing every pool. Preemptions additionally
/// carry a {"cause"} label (host/deadline/blackout/out_of_bid/duty_cycle/
/// result_loss) so figures can attribute losses per dynamics. Labeled
/// handles are resolved once per run at flush time; only the unlabeled
/// run-scoped series keep static handles.
struct ExecutorObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter runs = reg.counter("gridsim.executor.runs");
  obs::Counter down = reg.counter("gridsim.availability.down_transitions");
  obs::Counter up = reg.counter("gridsim.availability.up_transitions");
  obs::Counter truncated = reg.counter("gridsim.executor.truncated_runs");
  obs::Histogram makespan = reg.histogram(
      "gridsim.executor.makespan_sim_seconds",
      obs::HistogramSpec::exponential(1.0, 1e8, 33));
};

ExecutorObs& executor_obs() {
  static ExecutorObs metrics;
  return metrics;
}

/// Why an instance was lost. Blackout/OutOfBid surface as their own trace
/// outcomes; the rest stay InstanceOutcome::Timeout but are attributed
/// distinctly in the preempted{cause=} metric family.
enum class FailCause : std::uint8_t {
  Host,        ///< natural host death (availability process)
  Deadline,    ///< killed at the phase deadline while still running
  Blackout,    ///< forced window: chaos/shrink/flash or multi-region outage
  OutOfBid,    ///< forced window: spot market price above the bid
  DutyCycle,   ///< forced window: volunteer host recharging
  ResultLoss,  ///< chaos silent result loss
};
constexpr std::size_t kFailCauseCount = 6;

constexpr std::size_t cause_index(FailCause cause) noexcept {
  return static_cast<std::size_t>(cause);
}

const char* fail_cause_label(FailCause cause) noexcept {
  switch (cause) {
    case FailCause::Host:
      return "host";
    case FailCause::Deadline:
      return "deadline";
    case FailCause::Blackout:
      return "blackout";
    case FailCause::OutOfBid:
      return "out_of_bid";
    case FailCause::DutyCycle:
      return "duty_cycle";
    case FailCause::ResultLoss:
      return "result_loss";
  }
  return "host";
}

FailCause cause_of(chaos::WindowCause cause) noexcept {
  switch (cause) {
    case chaos::WindowCause::Blackout:
      return FailCause::Blackout;
    case chaos::WindowCause::OutOfBid:
      return FailCause::OutOfBid;
    case chaos::WindowCause::DutyCycle:
      return FailCause::DutyCycle;
  }
  return FailCause::Blackout;
}

/// One run's metric deltas for one pool, flushed to labeled series at the
/// end of the run.
struct PoolCounters {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::array<std::uint64_t, kFailCauseCount> preempted{};
  std::array<std::uint64_t, kFailCauseCount> dynamics_windows{};
  std::uint64_t blackout_windows = 0;  ///< chaos-plan windows only
  std::uint64_t forced_down = 0;
  std::uint64_t results_lost = 0;
  std::uint64_t dispatch_failures = 0;
  std::uint64_t dispatch_retries = 0;
  std::uint64_t dispatch_abandoned = 0;
};

using strategies::StrategyConfig;
using strategies::ThroughputPolicy;
using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::size_t kNoGridGroup = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kNoStream = std::numeric_limits<std::size_t>::max();

struct Machine {
  const MachineGroup* group = nullptr;
  /// Index of the owning pool in the environment's pool list.
  std::size_t pool_index = 0;
  /// Group index within the owning pool (multi-region: the region).
  std::size_t group_in_pool = 0;
  /// Machine ordinal within the owning pool (volunteer per-host streams).
  std::size_t ordinal_in_pool = 0;
  /// Contiguous grid-group ordinal across every Grid-role pool (blackout
  /// targeting); kNoGridGroup for cloud machines.
  std::size_t grid_group = kNoGridGroup;
  /// The host's own draws (Run::draw_host); every other machine fact is
  /// read through `group`.
  double speed = 1.0;
  double mean_up = 0.0;
  bool reliable_pool = false;
  std::size_t kills = 0;  ///< instances lost to this host (exclusion)

  /// Written only through Run::set_state, which keeps the idle index in
  /// step with them.
  bool up = true;
  bool busy = false;
  double next_down = kInf;  ///< end of the current up period (while up)

  // ---- forced windows (chaos plan and pool dynamics) ----
  /// The finite forced-down windows, merged up front: group blackouts,
  /// pool shrink, the complement of a spare's flash window, multi-region
  /// blackouts. Empty without chaos or region dynamics.
  std::vector<chaos::ForcedWindow> forced;
  std::size_t next_forced = 0;  ///< next window of `forced` to merge
  /// The pool's spot market or this host's duty cycle (an index into
  /// Run::streams_), merged with `forced` on demand; kNoStream for none.
  std::size_t stream = kNoStream;
  std::size_t next_stream_window = 0;  ///< next stream window to merge
  /// The first merged window whose end the run has not passed, once
  /// drawn.
  std::optional<chaos::ForcedWindow> window;
  /// Bumped by every forced transition; pending availability events carry
  /// the epoch they were armed in and no-op when it moved on.
  std::uint64_t avail_epoch = 0;
  /// Flash-crowd spare: excluded from l_ur (Mr cap, tail trigger).
  bool spare = false;

  /// The host's up/down process: its own mean up-time under the group's
  /// mean down-time and up-time shape.
  stats::AvailabilityModel availability() const {
    return {mean_up, group->availability.mean_down_seconds,
            group->availability.up_shape};
  }
};

/// A set of machine indices as a bitset: dispatch keeps one per role
/// holding the idle machines (up and not busy).
class IdleSet {
 public:
  void resize(std::size_t machines) { words_.assign((machines + 63) / 64, 0); }

  void assign(std::size_t m, bool idle) {
    const std::uint64_t bit = std::uint64_t{1} << (m % 64);
    if (idle) {
      words_[m / 64] |= bit;
    } else {
      words_[m / 64] &= ~bit;
    }
  }

  bool contains(std::size_t m) const {
    return ((words_[m / 64] >> (m % 64)) & 1U) != 0;
  }

  /// The first member at or after `from`, else the first member: the
  /// machine a cyclic scan starting at `from` meets first.
  std::optional<std::size_t> first_from(std::size_t from) const {
    for (std::size_t w = from / 64; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
      if (word != 0) return w * 64 + bit_index(word);
    }
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) return w * 64 + bit_index(words_[w]);
    }
    return std::nullopt;
  }

 private:
  static std::size_t bit_index(std::uint64_t word) {
    return static_cast<std::size_t>(std::countr_zero(word));
  }

  std::vector<std::uint64_t> words_;
};

class Run {
 public:
  Run(const ExecutorConfig& cfg, const workload::Bot& bot,
      StrategyConfig strategy, std::uint64_t stream,
      const Executor::TailStrategySelector* selector = nullptr)
      : cfg_(cfg),
        bot_(bot),
        strategy_(std::move(strategy)),
        policy_(*this, strategy_, bot.size()),
        selector_(selector),
        stream_(stream),
        rng_(util::derive_seed(cfg.seed, stream)),
        checks_(bot.size()),
        dispatch_attempts_(bot.size()) {
    // A run records 1.3-2.1 instances per task on the reference
    // environments.
    records_.reserve(2 * bot.size());
    pending_slot_.reserve(2 * bot.size());
    if (cfg_.chaos && cfg_.chaos->any()) {
      chaos_ = &*cfg_.chaos;
      chaos_rng_ = chaos::event_rng(*chaos_, stream);
    }
    build_machines(stream);
    for (auto& set : idle_) set.resize(machines_.size());
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      set_state(m, /*up=*/true, /*busy=*/false);
    }
    if (strategy_.throughput == ThroughputPolicy::ReliableOnly) {
      EXPERT_REQUIRE(reliable_count_ > 0,
                     "ReliableOnly strategy needs a reliable pool");
    }
    validate_tail_strategy(strategy_);
  }

  void validate_tail_strategy(const StrategyConfig& s) const {
    EXPERT_REQUIRE(!Policy::needs_reliable(s) ||
                       (reliable_count_ > 0 && s.ntdmr.mr > 0.0),
                   "finite-N strategy needs reliable capacity");
  }

  trace::ExecutionTrace execute() {
    // Crash-resume testing: kill the whole process at a reproducible
    // simulation time, before any same-time scheduling event. The event
    // never returns, so it cannot perturb the trace of a run it does not
    // kill — and the stream gate keeps it scoped to one BoT of a campaign.
    if (chaos_ != nullptr && chaos_->kill_at_sim_s > 0.0 &&
        (chaos_->kill_stream == 0 || chaos_->kill_stream == stream_)) {
      engine_.schedule_at(chaos_->kill_at_sim_s,
                          [] { std::raise(SIGKILL); });
    }
    // Arm each machine's first forced transition and start its
    // availability process. Machines born inside a forced window stay dark
    // until its force_up.
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      auto& machine = machines_[m];
      const chaos::ForcedWindow* first = current_window(machine);
      if (first != nullptr && first->start <= 0.0) {
        set_state(m, /*up=*/false, machine.busy);
        arm_force_up(m, first->end);
        continue;
      }
      if (first != nullptr) arm_force_down(m, *first);
      schedule_down(m);
    }
    policy_.start({
        .throughput_deadline = cfg_.throughput_deadline > 0.0
                                   ? cfg_.throughput_deadline
                                   : 4.0 * bot_.mean_cpu_seconds(),
        .tail_trigger = unreliable_count_ > 0 ? unreliable_count_ - 1 : 0,
        .replication_cost = replication_cost(),
    });
    engine_.run_until(cfg_.max_sim_time);
    check_idle_index();
    const bool truncated = policy_.remaining() > 0;
    if (truncated) {
      // The run hit max_sim_time with tasks outstanding: hand back
      // everything observed so far instead of throwing the history away.
      // Still-pending instances are recorded as unreturned — the same
      // partial-knowledge view snapshot_history() gives the online model —
      // so the caller can characterize from the truncated trace.
      obs_truncated_ = 1;
      for (const auto& p : pending_) {
        records_.push_back(InstanceRecord{p.task, p.pool, p.send_time, kInf,
                                          InstanceOutcome::Timeout, 0.0,
                                          policy_.in_tail(p.send_time)});
      }
    }
    completion_time_ =
        truncated ? cfg_.max_sim_time : policy_.completion_time();
    flush_metrics();
    const double t_tail =
        policy_.tail_started() ? policy_.t_tail() : completion_time_;
    return trace::ExecutionTrace(bot_.size(), std::move(records_), t_tail,
                                 completion_time_, truncated);
  }

  // ---- the host side of strategies::ReplicationPolicy ----
 private:
  using Policy = strategies::ReplicationPolicy<Run>;
  friend Policy;

  double now() const { return engine_.now(); }

  void arm_check(workload::TaskId task, double at) {
    checks_[task].cancel();
    checks_[task] =
        engine_.schedule_at(at, [this, task] { policy_.reconsider(task); });
  }

  void cancel_check(workload::TaskId task) { checks_[task].cancel(); }

  std::optional<std::size_t> idle_slot(PoolKind pool) {
    return find_idle_machine(pool == PoolKind::Reliable);
  }

  std::size_t busy_reliable() const { return busy_reliable_; }

  std::size_t reliable_capacity() const {
    // Mr caps concurrently used reliable machines at ceil(Mr * l_ur).
    const auto cap = static_cast<std::size_t>(
        std::ceil(strategy_.ntdmr.mr * static_cast<double>(unreliable_count_)));
    return strategy_.throughput == ThroughputPolicy::ReliableOnly
               ? reliable_count_
               : std::min(cap, reliable_count_);
  }

  void record(const InstanceRecord& cancelled) {
    records_.push_back(cancelled);
  }

  /// The online selector, if any, picks the tail strategy from the history
  /// observed so far.
  void on_tail_start() {
    if (selector_ == nullptr || *selector_ == nullptr) return;
    StrategyConfig chosen = (*selector_)(snapshot_history());
    chosen.validate();
    validate_tail_strategy(chosen);
    // Only the tail behaviour may change mid-run; the throughput policy
    // already played out.
    chosen.throughput = strategy_.throughput;
    strategy_ = std::move(chosen);
  }

  void stop() { engine_.stop(); }

  /// Draw (or redraw, on exclusion-driven replacement) the host behind a
  /// machine slot: speed and mean up-time from the group's distributions.
  void draw_host(Machine& m) {
    const MachineGroup& g = *m.group;
    if (g.speed_cv > 0.0) {
      const double sigma2 = std::log1p(g.speed_cv * g.speed_cv);
      const double mu = std::log(g.speed_mean) - 0.5 * sigma2;
      m.speed = rng_.lognormal(mu, std::sqrt(sigma2));
    } else {
      m.speed = g.speed_mean;
    }
    m.mean_up = g.availability.mean_up_seconds;
    if (g.availability_cv > 0.0) {
      const double sigma2 = std::log1p(g.availability_cv * g.availability_cv);
      // Unit-mean lognormal multiplier: host-to-host reliability spread.
      m.mean_up *= rng_.lognormal(-0.5 * sigma2, std::sqrt(sigma2));
    }
    m.kills = 0;
  }

  /// A machine slot of group `g` with its host drawn. Cloud machines have
  /// no grid group.
  Machine make_machine(const MachineGroup& g, std::size_t pool_index,
                       std::size_t group_in_pool, std::size_t ordinal_in_pool,
                       std::size_t grid_group) {
    Machine m;
    m.group = &g;
    m.pool_index = pool_index;
    m.group_in_pool = group_in_pool;
    m.ordinal_in_pool = ordinal_in_pool;
    m.grid_group = grid_group;
    m.reliable_pool = grid_group == kNoGridGroup;
    draw_host(m);
    return m;
  }

  void build_machines(std::uint64_t stream) {
    const auto& pools = cfg_.environment.pools();
    obs_pools_.resize(pools.size());
    region_windows_.resize(pools.size());
    for (std::size_t pi = 0; pi < pools.size(); ++pi) {
      const auto& spec = pools[pi];
      const bool reliable = spec.role == env::PoolRole::Cloud;
      std::size_t ordinal = 0;
      std::size_t group_idx = 0;
      for (const auto& g : spec.pool.groups) {
        if (!reliable) grid_groups_.push_back({&g, pi, group_idx});
        for (std::size_t i = 0; i < g.count; ++i) {
          machines_.push_back(make_machine(
              g, pi, group_idx, ordinal++,
              reliable ? kNoGridGroup : grid_groups_.size() - 1));
          (reliable ? reliable_count_ : unreliable_count_) += 1;
        }
        ++group_idx;
      }
    }
    if (chaos_ != nullptr) apply_chaos_plan(stream);
    apply_dynamics(stream);
  }

  /// Translate the chaos plan into per-machine forced-down windows and
  /// flash-crowd spare machines. Deterministic in (chaos.seed, stream).
  /// Blackout group ordinals run contiguously across every Grid-role pool,
  /// so a classic environment reproduces the pre-seam schedule exactly.
  void apply_chaos_plan(std::uint64_t stream) {
    const auto blackout =
        chaos::blackout_schedule(*chaos_, grid_groups_.size(), stream);
    for (std::size_t gi = 0; gi < blackout.size(); ++gi) {
      obs_pools_[grid_groups_[gi].pool_index].blackout_windows +=
          blackout[gi].size();
    }

    // Flash-crowd spares: extra hosts per grid group, forced down outside
    // the flash window. Appended after every base pool so machine indices
    // of the base pools are unchanged by the plan.
    if (chaos_->flash_fraction > 0.0) {
      const auto& pools = cfg_.environment.pools();
      std::vector<std::size_t> extra_in_pool(pools.size(), 0);
      for (std::size_t gi = 0; gi < grid_groups_.size(); ++gi) {
        const auto& g = *grid_groups_[gi].group;
        const std::size_t pi = grid_groups_[gi].pool_index;
        const auto extra = static_cast<std::size_t>(
            std::ceil(chaos_->flash_fraction * static_cast<double>(g.count)));
        for (std::size_t i = 0; i < extra; ++i) {
          Machine m = make_machine(
              g, pi, grid_groups_[gi].group_in_pool,
              pools[pi].pool.total_machines() + extra_in_pool[pi]++, gi);
          m.spare = true;
          const double flash_end =
              chaos_->flash_start_s + chaos_->flash_duration_s;
          if (chaos_->flash_start_s > 0.0) {
            m.forced.push_back({0.0, chaos_->flash_start_s});
          }
          m.forced.push_back({flash_end, kInf});
          m.forced.insert(m.forced.end(), blackout[gi].begin(),
                          blackout[gi].end());
          chaos::merge_windows(m.forced);
          machines_.push_back(m);
          ++spare_count_;
        }
      }
    }

    // Blackouts hit every machine of the group; the shrink withdraws the
    // first ceil(fraction * l_ur) grid machines for its window.
    const auto shrink_count = static_cast<std::size_t>(std::ceil(
        chaos_->shrink_fraction * static_cast<double>(unreliable_count_)));
    std::size_t unreliable_seen = 0;
    for (auto& machine : machines_) {
      if (machine.reliable_pool || machine.spare) continue;
      machine.forced = blackout[machine.grid_group];
      if (chaos_->shrink_fraction > 0.0 && unreliable_seen < shrink_count) {
        machine.forced.push_back(
            {chaos_->shrink_start_s,
             chaos_->shrink_start_s + chaos_->shrink_duration_s});
        chaos::merge_windows(machine.forced);
      }
      ++unreliable_seen;
    }
  }

  /// Layer each pool's dynamics over its machines as cause-tagged forced
  /// windows: multi-region blackouts join each machine's finite list; a
  /// spot pool's market and each volunteer host's duty cycle become
  /// streams merged with it on demand (the spot market also prices the
  /// pool's instances). Runs after the chaos plan so flash spares inherit
  /// their pool's dynamics too. Static pools are untouched, which keeps
  /// classic runs byte-identical: every dynamics draw comes from its own
  /// (spec.seed, stream) domain, never from the scheduling stream.
  void apply_dynamics(std::uint64_t stream) {
    const auto& pools = cfg_.environment.pools();
    for (std::size_t pi = 0; pi < pools.size(); ++pi) {
      const auto& spec = pools[pi];
      if (const auto* spot =
              std::get_if<env::SpotMarketDynamics>(&spec.dynamics)) {
        streams_.push_back(DynamicsStream{
            pi, env::SpotMarketStream(*spot, cfg_.max_sim_time, stream)});
        for (auto& machine : machines_) {
          if (machine.pool_index == pi) machine.stream = streams_.size() - 1;
        }
      } else if (const auto* mr =
                     std::get_if<env::MultiRegionDynamics>(&spec.dynamics)) {
        const auto regions = env::region_blackout_windows(
            *mr, spec.pool.groups.size(), stream);
        for (const auto& region : regions) {
          region_windows_[pi].insert(region_windows_[pi].end(),
                                     region.begin(), region.end());
        }
        for (auto& machine : machines_) {
          if (machine.pool_index != pi) continue;
          const auto& windows = regions[machine.group_in_pool];
          if (windows.empty()) continue;
          machine.forced.insert(machine.forced.end(), windows.begin(),
                                windows.end());
          chaos::merge_windows(machine.forced);
        }
      } else if (const auto* vol =
                     std::get_if<env::VolunteerDynamics>(&spec.dynamics)) {
        for (auto& machine : machines_) {
          if (machine.pool_index != pi) continue;
          streams_.push_back(DynamicsStream{
              pi, env::DutyCycleStream(*vol, cfg_.max_sim_time,
                                       machine.ordinal_in_pool, stream)});
          machine.stream = streams_.size() - 1;
        }
      }
    }
  }

  /// Window `i` of dynamics stream `s`, drawn on demand.
  const chaos::ForcedWindow* stream_window(std::size_t s, std::size_t i) {
    return std::visit([i](auto& windows) { return windows.window(i); },
                      streams_[s].windows);
  }

  /// Take the earliest unmerged window of the machine's finite list and
  /// stream in (start, end) order — equal windows take the finite list's
  /// first — if it starts at or before `latest`.
  std::optional<chaos::ForcedWindow> take_window(Machine& machine,
                                                 double latest) {
    const chaos::ForcedWindow* finite =
        machine.next_forced < machine.forced.size()
            ? &machine.forced[machine.next_forced]
            : nullptr;
    const chaos::ForcedWindow* drawn =
        machine.stream == kNoStream
            ? nullptr
            : stream_window(machine.stream, machine.next_stream_window);
    const bool from_stream =
        drawn != nullptr &&
        (finite == nullptr || std::tie(drawn->start, drawn->end) <
                                  std::tie(finite->start, finite->end));
    const chaos::ForcedWindow* w = from_stream ? drawn : finite;
    if (w == nullptr || w->start > latest) return std::nullopt;
    ++(from_stream ? machine.next_stream_window : machine.next_forced);
    return *w;
  }

  /// The machine's current forced window: the first merged window whose
  /// end the run has not passed, or null when none remain. It merges
  /// `forced` with the dynamics stream exactly as chaos::merge_windows
  /// would merge both lists whole, drawing the stream only as far as this
  /// window. An end past the horizon is never observed, so the stream
  /// behind such a window stays undrawn.
  const chaos::ForcedWindow* current_window(Machine& machine) {
    if (!machine.window) {
      machine.window = take_window(machine, kInf);
      if (!machine.window) return nullptr;
      chaos::ForcedWindow& w = *machine.window;
      while (w.end <= cfg_.max_sim_time) {
        const auto joined = take_window(machine, w.end);
        if (!joined) break;
        w.end = std::max(w.end, joined->end);
      }
    }
    return &*machine.window;
  }

  /// The machine's first forced window that ends after `now`, or null.
  /// The cursor only moves forward — callers ask at nondecreasing times.
  const chaos::ForcedWindow* window_after(Machine& machine, double now) {
    const chaos::ForcedWindow* w = current_window(machine);
    while (w != nullptr && w->end <= now) {
      machine.window.reset();
      w = current_window(machine);
    }
    return w;
  }

  // ---- availability process ----

  /// Wrap an availability callback so it dies silently when a forced
  /// transition (blackout/shrink/flash) moved the machine's epoch on.
  template <typename Fn>
  auto guarded(std::size_t m, Fn fn) {
    const std::uint64_t epoch = machines_[m].avail_epoch;
    return [this, m, epoch, fn] {
      if (machines_[m].avail_epoch != epoch) return;
      fn();
    };
  }

  void schedule_down(std::size_t m) {
    auto& machine = machines_[m];
    EXPERT_CHECK(machine.up, "scheduling down for a down machine");
    machine.next_down = engine_.now() + machine.availability().sample_up(rng_);
    engine_.schedule_at(machine.next_down,
                        guarded(m, [this, m] { on_down(m); }));
  }

  void on_down(std::size_t m) {
    auto& machine = machines_[m];
    ++obs_down_;
    const bool killed_instance = machine.busy;
    // Any running instance dies silently.
    set_state(m, /*up=*/false, /*busy=*/false);
    machine.next_down = kInf;
    if (killed_instance && cfg_.exclusion_threshold > 0 &&
        ++machine.kills >= cfg_.exclusion_threshold) {
      // Resource exclusion: the overlay blacklists the flaky host and
      // requests a replacement from the same pool.
      draw_host(machine);
    }
    engine_.schedule_in(machine.availability().sample_down(rng_),
                        guarded(m, [this, m] { on_up(m); }));
  }

  void on_up(std::size_t m) {
    set_state(m, /*up=*/true, machines_[m].busy);
    ++obs_up_;
    schedule_down(m);
    policy_.dispatch();
  }

  // ---- forced availability transitions ----

  /// Each machine has at most one forced transition armed at a time, and
  /// it fires ahead of every ordinary event at its time, keyed by the
  /// machine index: at equal times forced transitions fire first, in
  /// machine order — the order in which arming every window up front
  /// would fire them.
  void arm_force_down(std::size_t m, const chaos::ForcedWindow& w) {
    engine_.schedule_ahead_at(w.start, m,
                              [this, m, end = w.end] { force_down(m, end); });
  }

  void arm_force_up(std::size_t m, double at) {
    if (at < cfg_.max_sim_time) {
      engine_.schedule_ahead_at(at, m, [this, m] { force_up(m); });
    }
  }

  /// Start of a forced-down window ending at `end`: the machine goes dark
  /// regardless of its availability process. A running instance dies
  /// silently — its failure notification was already scheduled at send
  /// time, which knew the window.
  void force_down(std::size_t m, double end) {
    auto& machine = machines_[m];
    ++machine.avail_epoch;  // invalidate pending up/down events
    ++obs_pools_[machine.pool_index].forced_down;
    if (machine.up) ++obs_down_;
    set_state(m, /*up=*/false, /*busy=*/false);
    machine.next_down = kInf;
    arm_force_up(m, end);
  }

  /// End of a forced-down window: arm the next window's start, then
  /// restart the machine's availability process from scratch.
  void force_up(std::size_t m) {
    auto& machine = machines_[m];
    ++machine.avail_epoch;
    if (const auto* next = window_after(machine, engine_.now())) {
      arm_force_down(m, *next);
    }
    on_up(m);
  }

  /// Next forced-down transition of a machine: its time (at or after
  /// `now`; +inf when no forced window remains, `now` while inside a
  /// window) and the window's cause for preemption attribution.
  struct ForcedNext {
    double at = kInf;
    chaos::WindowCause cause = chaos::WindowCause::Blackout;
  };

  ForcedNext next_forced(Machine& machine, double now) {
    const chaos::ForcedWindow* w = window_after(machine, now);
    if (w == nullptr) return ForcedNext{};
    return ForcedNext{w->start <= now ? now : w->start, w->cause};
  }

  // ---- machine state and the idle index ----

  /// The only writer of Machine::up and Machine::busy: it keeps the
  /// role's idle set and the busy-reliable count in step with them.
  void set_state(std::size_t m, bool up, bool busy) {
    Machine& machine = machines_[m];
    if (machine.reliable_pool && busy != machine.busy) {
      if (busy) {
        ++busy_reliable_;
      } else {
        --busy_reliable_;
      }
    }
    machine.up = up;
    machine.busy = busy;
    idle_[machine.reliable_pool ? 1 : 0].assign(m, up && !busy);
  }

  /// End of run: the index must match a scan of the machines, so a write
  /// of up/busy that bypassed set_state fails loudly instead of silently
  /// changing which machine dispatch picks.
  void check_idle_index() const {
    std::size_t busy_reliable = 0;
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const Machine& machine = machines_[m];
      if (machine.reliable_pool && machine.busy) ++busy_reliable;
      const std::size_t role = machine.reliable_pool ? 1 : 0;
      EXPERT_CHECK(idle_[role].contains(m) == (machine.up && !machine.busy) &&
                       !idle_[1 - role].contains(m),
                   "idle index out of step with machine state");
    }
    EXPERT_CHECK(busy_reliable == busy_reliable_,
                 "busy-reliable count out of step with machine state");
  }

  /// The first idle machine of a role at or after the role's cursor,
  /// wrapping around; the cursor moves past it.
  std::optional<std::size_t> find_idle_machine(bool reliable) {
    std::size_t& cursor = reliable ? r_cursor_ : ur_cursor_;
    const auto m = idle_[reliable ? 1 : 0].first_from(cursor);
    if (m) cursor = (*m + 1) % machines_.size();
    return m;
  }

  void send(workload::TaskId task, std::size_t machine_idx) {
    const double now = engine_.now();
    auto& machine = machines_[machine_idx];
    EXPERT_CHECK(machine.up && !machine.busy, "dispatch to unusable machine");

    // Reliable-pool launch failure (EC2 InsufficientInstanceCapacity):
    // the machine slot stays free, the task retries with backoff.
    if (machine.reliable_pool && chaos_ != nullptr &&
        chaos_->dispatch_failure_prob > 0.0 &&
        chaos_rng_.bernoulli(chaos_->dispatch_failure_prob)) {
      on_dispatch_failure(task, machine.pool_index);
      return;
    }

    policy_.sent(task);
    dispatch_attempts_[task] = 0;
    set_state(machine_idx, /*up=*/true, /*busy=*/true);

    const bool reliable = machine.reliable_pool;
    ++obs_pools_[machine.pool_index].sent;
    const auto id = static_cast<std::uint32_t>(pending_slot_.size());
    pending_slot_.push_back(pending_.size());
    pending_.push_back(PendingInstance{
        task, reliable ? PoolKind::Reliable : PoolKind::Unreliable, now, id});
    const double runtime = bot_.task(task).cpu_seconds / machine.speed;
    // Remote batch-queue latency precedes execution; a host death during
    // the wait kills the instance like any mid-run death. Only CPU time is
    // charged.
    const double mean_wait = machine.group->mean_queue_wait_s;
    const double wait =
        mean_wait > 0.0 ? rng_.exponential(1.0 / mean_wait) : 0.0;
    const double t_complete = now + wait + runtime;
    // Reliable (N+1)-th instances run without a deadline (paper §III);
    // unreliable instances are killed at the phase deadline.
    const double t_kill = reliable ? kInf : now + policy_.deadline();
    // The machine dies at its next natural down transition or at the next
    // forced-down window (chaos plan or environment dynamics), whichever
    // comes first. Both are known now, so the instance's outcome can be
    // scheduled immediately — with its cause.
    const ForcedNext forced = next_forced(machine, now);
    const double down_at = std::min(machine.next_down, forced.at);

    if (t_complete <= std::min(down_at, t_kill)) {
      // Silent result loss: the instance finishes and frees its machine,
      // but the result never reaches the scheduler — which learns only at
      // the instance deadline, exactly like a silent host death.
      if (!reliable && chaos_ != nullptr && chaos_->result_loss_prob > 0.0 &&
          chaos_rng_.bernoulli(chaos_->result_loss_prob)) {
        ++obs_pools_[machine.pool_index].results_lost;
        engine_.schedule_at(t_complete, [this, machine_idx] {
          set_state(machine_idx, machines_[machine_idx].up, /*busy=*/false);
          policy_.dispatch();
        });
        const double notify = t_kill == kInf ? t_complete : t_kill;
        engine_.schedule_at(notify, [this, task, id, machine_idx, now] {
          on_failure(task, id, machine_idx, now, /*frees_machine=*/false,
                     FailCause::ResultLoss);
        });
        return;
      }
      // Cost is fixed at send time: static pools charge the group's price,
      // spot pools the market rate now (billing simplification — see
      // docs/environments.md).
      const PriceSpec price = effective_price(machine, now);
      const double cost = util::charge_cents(
          runtime, price.rate_cents_per_s, price.period_s);
      engine_.schedule_at(t_complete,
                          [this, task, id, machine_idx, now, cost] {
                            on_success(task, id, machine_idx, now, cost);
                          });
      return;
    }
    if (down_at < t_kill) {
      // The machine dies mid-run; the down event frees it. The scheduler
      // hears about it either immediately (reported failure) or only at the
      // deadline (silent loss) — reliable instances are always reported.
      const FailCause cause = forced.at <= machine.next_down
                                  ? cause_of(forced.cause)
                                  : FailCause::Host;
      const bool reported =
          reliable || rng_.bernoulli(machine.group->failure_notice_prob);
      const double notify =
          reported ? down_at : (t_kill == kInf ? down_at : t_kill);
      engine_.schedule_at(notify, [this, task, id, machine_idx, now, cause] {
        on_failure(task, id, machine_idx, now, /*frees_machine=*/false,
                   cause);
      });
      return;
    }
    // Killed at the deadline while still running.
    engine_.schedule_at(t_kill, [this, task, id, machine_idx, now] {
      on_failure(task, id, machine_idx, now, /*frees_machine=*/true,
                 FailCause::Deadline);
    });
  }

  /// The price an instance dispatched now on this machine will pay: the
  /// group's static price, or the market rate at send time on a spot pool.
  PriceSpec effective_price(const Machine& machine, double now) {
    const PriceSpec& price = machine.group->price;
    if (machine.stream == kNoStream) return price;
    auto* market =
        std::get_if<env::SpotMarketStream>(&streams_[machine.stream].windows);
    if (market == nullptr) return price;
    return PriceSpec{market->rate_at(now), price.period_s};
  }

  /// A reliable-pool launch attempt failed. Bounded retry with exponential
  /// backoff; once the retries are exhausted the reliable instance is
  /// abandoned (recorded as DispatchFailed) and the task falls back to the
  /// unreliable pool so it cannot starve waiting for capacity that never
  /// materializes.
  void on_dispatch_failure(workload::TaskId task, std::size_t pool_index) {
    const double now = engine_.now();
    std::size_t& attempts = dispatch_attempts_[task];
    ++obs_pools_[pool_index].dispatch_failures;
    ++attempts;
    if (attempts > chaos_->max_dispatch_retries) {
      ++obs_pools_[pool_index].dispatch_abandoned;
      records_.push_back(InstanceRecord{
          task, PoolKind::Reliable, now, kInf, InstanceOutcome::DispatchFailed,
          0.0, policy_.in_tail(now)});
      attempts = 0;
      // Allow a later, fresh reliable retry cycle should the fallback
      // unreliable instance fail too.
      policy_.set_reliable_used(task, false);
      policy_.enqueue(task, PoolKind::Unreliable);
      return;
    }
    ++obs_pools_[pool_index].dispatch_retries;
    const double factor = std::pow(2.0, static_cast<double>(attempts - 1));
    const double backoff =
        std::min(chaos_->dispatch_backoff_base_s * factor,
                 chaos_->dispatch_backoff_max_s) *
        chaos_rng_.uniform(0.5, 1.5);
    engine_.schedule_in(backoff, [this, task] {
      if (policy_.completed(task) || policy_.queued(task)) return;
      policy_.enqueue(task, PoolKind::Reliable);
      policy_.dispatch();
    });
  }

  void on_success(workload::TaskId task, std::uint32_t id,
                  std::size_t machine_idx, double send_time, double cost) {
    const double now = engine_.now();
    auto& machine = machines_[machine_idx];
    set_state(machine_idx, machine.up, /*busy=*/false);
    ++obs_pools_[machine.pool_index].completed;
    remove_pending(id);
    records_.push_back(InstanceRecord{
        task,
        machine.reliable_pool ? PoolKind::Reliable : PoolKind::Unreliable,
        send_time, now - send_time, InstanceOutcome::Success, cost,
        policy_.in_tail(send_time)});
    policy_.succeeded(task, cost);
  }

  void on_failure(workload::TaskId task, std::uint32_t id,
                  std::size_t machine_idx, double send_time,
                  bool frees_machine, FailCause cause) {
    auto& machine = machines_[machine_idx];
    if (frees_machine) set_state(machine_idx, machine.up, /*busy=*/false);
    ++obs_pools_[machine.pool_index].preempted[cause_index(cause)];
    remove_pending(id);
    // Blackout and out-of-bid preemptions surface as their own trace
    // outcomes; duty-cycle and natural host deaths stay Timeout (the
    // scheduler cannot tell a recharging phone from a dead host).
    const InstanceOutcome outcome =
        cause == FailCause::Blackout  ? InstanceOutcome::Blackout
        : cause == FailCause::OutOfBid ? InstanceOutcome::OutOfBid
                                       : InstanceOutcome::Timeout;
    records_.push_back(InstanceRecord{
        task,
        machine.reliable_pool ? PoolKind::Reliable : PoolKind::Unreliable,
        send_time, kInf, outcome, 0.0, policy_.in_tail(send_time)});
    if (machine.reliable_pool) {
      // A dead reliable instance (cloud node loss) must be replaceable.
      policy_.set_reliable_used(task, false);
    }
    policy_.reconsider(task);
  }

  /// Estimated cost of running one task on the cloud: the BoT's mean CPU
  /// time at the cheapest reliable group's rate (0 without a cloud, where
  /// the budget trigger never fires).
  double replication_cost() const {
    double rate = kInf;
    double period = 1.0;
    for (const auto& m : machines_) {
      const PriceSpec& price = m.group->price;
      if (m.reliable_pool && price.rate_cents_per_s < rate) {
        rate = price.rate_cents_per_s;
        period = price.period_s;
      }
    }
    return rate == kInf
               ? 0.0
               : util::charge_cents(bot_.mean_cpu_seconds(), rate, period);
  }

  /// History observed by the scheduler at this instant: resolved instances
  /// as recorded, still-running ones as unreturned (the online reliability
  /// model's partial-knowledge epoch expects exactly this view).
  trace::ExecutionTrace snapshot_history() const {
    std::vector<InstanceRecord> records = records_;
    for (const auto& p : pending_) {
      records.push_back(InstanceRecord{p.task, p.pool, p.send_time, kInf,
                                       InstanceOutcome::Timeout, 0.0, false});
    }
    return trace::ExecutionTrace(bot_.size(), std::move(records),
                                 engine_.now(), engine_.now());
  }

  /// Publish this run's aggregates to the global registry (no-op when it
  /// is disabled). Deltas are plain members: per-event instrumentation cost
  /// is a register increment.
  /// Obs label value of a pool: its name, falling back to the legacy
  /// role-based values for unnamed pools.
  std::string pool_label(std::size_t pool_index) const {
    const auto& spec = cfg_.environment.pools()[pool_index];
    if (!spec.pool.name.empty()) return spec.pool.name;
    return spec.role == env::PoolRole::Cloud ? "reliable" : "unreliable";
  }

  /// Count, per pool and cause, the dynamics windows the run reached:
  /// those that start before it ended. Streams are drawn up to that end.
  void count_reached_windows() {
    const double end = completion_time_;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      auto& counts = obs_pools_[streams_[s].pool_index].dynamics_windows;
      for (std::size_t i = 0;; ++i) {
        const chaos::ForcedWindow* w = stream_window(s, i);
        if (w == nullptr || w->start >= end) break;
        ++counts[cause_index(cause_of(w->cause))];
      }
    }
    for (std::size_t pi = 0; pi < region_windows_.size(); ++pi) {
      for (const auto& w : region_windows_[pi]) {
        if (w.start < end) {
          ++obs_pools_[pi].dynamics_windows[cause_index(FailCause::Blackout)];
        }
      }
    }
  }

  void flush_metrics() {
    if (!obs::Registry::global().enabled()) return;
    count_reached_windows();
    ExecutorObs& m = executor_obs();
    obs::Registry& reg = obs::Registry::global();
    m.runs.inc();
    m.down.inc(obs_down_);
    m.up.inc(obs_up_);
    m.truncated.inc(obs_truncated_);
    m.makespan.observe(completion_time_);
    for (std::size_t pi = 0; pi < obs_pools_.size(); ++pi) {
      const PoolCounters& pc = obs_pools_[pi];
      const std::string label = pool_label(pi);
      const obs::Labels pool{{"pool", label}};
      const auto inc = [&](const char* name, std::uint64_t delta) {
        if (delta > 0) reg.counter(name, pool).inc(delta);
      };
      inc("gridsim.instances.sent", pc.sent);
      inc("gridsim.instances.completed", pc.completed);
      for (std::size_t c = 0; c < kFailCauseCount; ++c) {
        const auto cause = static_cast<FailCause>(c);
        if (pc.preempted[c] > 0) {
          reg.counter("gridsim.instances.preempted",
                      obs::Labels{{"cause", fail_cause_label(cause)},
                                  {"pool", label}})
              .inc(pc.preempted[c]);
        }
        if (pc.dynamics_windows[c] > 0) {
          reg.counter("gridsim.dynamics.forced_windows",
                      obs::Labels{{"cause", fail_cause_label(cause)},
                                  {"pool", label}})
              .inc(pc.dynamics_windows[c]);
        }
      }
      inc("chaos.blackout_windows", pc.blackout_windows);
      inc("chaos.forced_down_transitions", pc.forced_down);
      inc("chaos.results_lost", pc.results_lost);
      inc("chaos.dispatch_failures", pc.dispatch_failures);
      inc("chaos.dispatch_retries", pc.dispatch_retries);
      inc("chaos.dispatch_abandoned", pc.dispatch_abandoned);
    }
  }

  struct PendingInstance {
    workload::TaskId task = 0;
    PoolKind pool = PoolKind::Unreliable;
    double send_time = 0.0;
    std::uint32_t id = 0;  ///< the instance's index in pending_slot_
  };

  /// Swap-remove a resolved instance from the pending set: the last entry
  /// fills its slot, so the set keeps the order a truncated trace records.
  void remove_pending(std::uint32_t id) {
    const std::size_t slot = pending_slot_[id];
    EXPERT_CHECK(slot < pending_.size() && pending_[slot].id == id,
                 "resolved instance missing from pending set");
    pending_slot_[pending_.back().id] = slot;
    pending_[slot] = pending_.back();
    pending_.pop_back();
  }

  /// One grid group's identity across the environment: used for blackout
  /// targeting and flash-spare creation.
  struct GridGroupRef {
    const MachineGroup* group = nullptr;
    std::size_t pool_index = 0;
    std::size_t group_in_pool = 0;
  };

  const ExecutorConfig& cfg_;
  const workload::Bot& bot_;
  StrategyConfig strategy_;  ///< the policy reads it; the selector rewrites it
  Policy policy_;
  const Executor::TailStrategySelector* selector_ = nullptr;
  std::uint64_t stream_ = 0;  ///< backend stream; gates the chaos kill
  /// Instances in flight, and per instance id (one per send) its slot in
  /// pending_ while it runs.
  std::vector<PendingInstance> pending_;
  std::vector<std::size_t> pending_slot_;
  util::Rng rng_;
  /// Non-null when the config carries an active chaos plan. Fault draws
  /// come from their own RNG so the plan never perturbs the scheduling
  /// stream's sequence of draws.
  const chaos::ChaosConfig* chaos_ = nullptr;
  util::Rng chaos_rng_;

  sim::Engine engine_;
  std::vector<Machine> machines_;
  std::vector<GridGroupRef> grid_groups_;
  /// Dynamics streams: one per spot pool, one per volunteer host; each
  /// draws only as far as the run has reached.
  struct DynamicsStream {
    std::size_t pool_index = 0;
    std::variant<env::SpotMarketStream, env::DutyCycleStream> windows;
  };
  std::vector<DynamicsStream> streams_;
  /// Per-pool multi-region blackout windows (empty for other pools), kept
  /// for the forced-window count.
  std::vector<std::vector<chaos::ForcedWindow>> region_windows_;
  std::vector<sim::Engine::EventHandle> checks_;  ///< per task
  /// Consecutive reliable-pool launch failures per task (chaos dispatch
  /// faults).
  std::vector<std::size_t> dispatch_attempts_;
  std::vector<InstanceRecord> records_;

  std::size_t unreliable_count_ = 0;
  std::size_t reliable_count_ = 0;
  std::size_t spare_count_ = 0;  ///< flash-crowd spares, excluded from l_ur
  std::size_t ur_cursor_ = 0;
  std::size_t r_cursor_ = 0;
  /// Idle machines by role (0 grid, 1 cloud) and the count of busy cloud
  /// machines; written only through set_state.
  std::array<IdleSet, 2> idle_;
  std::size_t busy_reliable_ = 0;
  /// The run's end: the last task's first result, or the horizon.
  double completion_time_ = 0.0;

  std::uint64_t obs_down_ = 0;
  std::uint64_t obs_up_ = 0;
  std::uint64_t obs_truncated_ = 0;
  /// Per-pool metric deltas, indexed like cfg_.environment.pools().
  std::vector<PoolCounters> obs_pools_;
};

}  // namespace

void ExecutorConfig::validate() const {
  environment.validate();
  EXPERT_REQUIRE(max_sim_time > 0.0, "horizon must be positive");
  EXPERT_REQUIRE(throughput_deadline >= 0.0,
                 "throughput deadline must be non-negative");
  if (chaos) chaos->validate();
}

Executor::Executor(ExecutorConfig config) : config_(std::move(config)) {
  config_.validate();
}

trace::ExecutionTrace Executor::run(const workload::Bot& bot,
                                    const strategies::StrategyConfig& strategy,
                                    std::uint64_t stream) const {
  EXPERT_SPAN("executor.run");
  strategy.validate();
  Run run(config_, bot, strategy, stream);
  return run.execute();
}

trace::ExecutionTrace Executor::run_adaptive(
    const workload::Bot& bot, const strategies::StrategyConfig& initial,
    const TailStrategySelector& selector, std::uint64_t stream) const {
  EXPERT_SPAN("executor.run_adaptive");
  initial.validate();
  EXPERT_REQUIRE(selector != nullptr, "run_adaptive needs a selector");
  Run run(config_, bot, initial, stream, &selector);
  return run.execute();
}

std::vector<ReliabilityWindow> windowed_reliability(
    const trace::ExecutionTrace& trace, double window_s) {
  EXPERT_REQUIRE(window_s > 0.0, "reliability window must be positive");
  std::vector<ReliabilityWindow> windows;
  // Bucket by send time. Records are appended in event order, so a single
  // pass with a sorted bucket map keeps the output ordered by window.
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> buckets;
  for (const auto& r : trace.records()) {
    if (r.pool != trace::PoolKind::Unreliable) continue;
    if (r.outcome == trace::InstanceOutcome::Cancelled) continue;
    const auto bucket = static_cast<std::size_t>(r.send_time / window_s);
    auto& [sent, ok] = buckets[bucket];
    ++sent;
    if (r.outcome == trace::InstanceOutcome::Success) ++ok;
  }
  windows.reserve(buckets.size());
  for (const auto& [bucket, counts] : buckets) {
    ReliabilityWindow w;
    w.lo = static_cast<double>(bucket) * window_s;
    w.hi = w.lo + window_s;
    w.sent = counts.first;
    w.gamma =
        static_cast<double>(counts.second) / static_cast<double>(counts.first);
    windows.push_back(w);
  }
  return windows;
}

}  // namespace expert::gridsim
