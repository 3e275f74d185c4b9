#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "expert/util/thread_safety.hpp"

namespace expert::obs {

class Registry;
struct ProfilerShard;

/// Hot phases of the estimator pipeline. A fixed closed enum (not string
/// keys): the hot path indexes a flat array, and the breakdown table has a
/// stable deterministic order.
enum class Phase : std::uint8_t {
  TaskTimeDraw,     ///< sampling task turnaround times from the model
  ReplicationLoop,  ///< driving the discrete-event replication loop
  Aggregation,      ///< folding per-repetition runs into an estimate
  CacheLookup,      ///< eval-cache keying, lookup and insertion
};

inline constexpr std::size_t kPhaseCount = 4;

const char* to_string(Phase phase) noexcept;

/// Aggregated self-time of one phase across all threads.
struct PhaseStats {
  Phase phase = Phase::TaskTimeDraw;
  const char* name = "";
  std::uint64_t entries = 0;   ///< number of EXPERT_PHASE scopes entered
  std::uint64_t self_ns = 0;   ///< wall time excluding nested phases
};

/// Attributes wall-time across the estimator's hot phases. Sits on top of
/// the span machinery: spans answer "when did this happen" on a timeline,
/// the profiler answers "where does the time go" as exact per-phase sums —
/// including phases far too hot to record a span per entry (a task-time
/// draw is tens of nanoseconds; recording millions of spans would dwarf
/// the work being measured).
///
/// Attribution is *self time*: entering a nested phase suspends the
/// parent's clock (per-thread scope stack), so the per-phase numbers are
/// disjoint and sum to total profiled time. Like the metrics registry,
/// counts land in per-thread shards via relaxed atomics and snapshot()
/// sums them; disabled (the default), entering a scope costs one relaxed
/// atomic load.
class PhaseProfiler {
 public:
  PhaseProfiler();
  ~PhaseProfiler();
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Process-wide profiler used by EXPERT_PHASE. Starts disabled; the
  /// CLI's `profile` subcommand and --profile flag enable it.
  static PhaseProfiler& global() {
    static PhaseProfiler profiler;
    return profiler;
  }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Aggregate across threads, in fixed enum order.
  std::array<PhaseStats, kPhaseCount> snapshot() const;
  void reset();

  /// Per-phase breakdown table: entries, self time, share of the profiled
  /// total. Phases with zero entries are listed with zeros so the table
  /// shape is stable.
  void write_table(std::ostream& os) const;

  /// Publish the current totals into `registry` as labeled gauges:
  /// obs.phase.entries{phase=...} and obs.phase.self_seconds{phase=...}.
  /// Gauges (set, not add), so republishing is idempotent.
  void publish(Registry& registry) const;

  /// Monotonic nanoseconds used for phase accounting (exposed for tests).
  std::uint64_t now_ns() const;

 private:
  friend class PhaseScope;

  ProfilerShard& local_shard() const;
  void record(Phase phase, std::uint64_t self_ns) const;

  std::atomic<bool> enabled_{false};
  const std::uint64_t gen_;  ///< process-unique id keying the TLS cache
  mutable util::Mutex mutex_;  ///< guards the shard list
  mutable std::vector<std::unique_ptr<ProfilerShard>> shards_
      EXPERT_GUARDED_BY(mutex_);
};

/// RAII phase scope with self-time attribution. Entering a nested scope
/// charges the elapsed time to the parent and suspends its clock; exiting
/// resumes it. Captures the profiler's enabled state at construction, like
/// Span. Scopes are strictly stack-ordered per thread (guaranteed by RAII)
/// and must not be moved across threads. Disabled, a scope is two inline
/// checks; the clock and the scope stack are reached only while profiling.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase)
      : PhaseScope(phase, PhaseProfiler::global()) {}
  PhaseScope(Phase phase, PhaseProfiler& profiler) : phase_(phase) {
    if (profiler.enabled()) start(profiler);
  }
  ~PhaseScope() {
    if (profiler_ != nullptr) finish();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  void start(PhaseProfiler& profiler);
  void finish();

  PhaseProfiler* profiler_ = nullptr;  ///< null when constructed disabled
  PhaseScope* parent_ = nullptr;
  Phase phase_ = Phase::TaskTimeDraw;
  std::uint64_t resumed_ns_ = 0;  ///< when this scope last started charging
  std::uint64_t self_ns_ = 0;     ///< accumulated self time
};

}  // namespace expert::obs

// EXPERT_PHASE(Phase::X) attributes the enclosing scope's self time to
// phase X on the global profiler. Compiled out together with tracing.
#if defined(EXPERT_OBS_DISABLE_TRACING)
#define EXPERT_PHASE(phase) static_cast<void>(0)
#else
#define EXPERT_OBS_PHASE_CONCAT_IMPL(a, b) a##b
#define EXPERT_OBS_PHASE_CONCAT(a, b) EXPERT_OBS_PHASE_CONCAT_IMPL(a, b)
#define EXPERT_PHASE(phase)                                             \
  const ::expert::obs::PhaseScope EXPERT_OBS_PHASE_CONCAT(              \
      expert_obs_phase_, __LINE__)(::expert::obs::Phase::phase)
#endif
