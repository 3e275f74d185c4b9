#include "expert/obs/profile.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "expert/obs/metrics.hpp"

namespace expert::obs {

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::TaskTimeDraw:
      return "task_time_draw";
    case Phase::ReplicationLoop:
      return "replication_loop";
    case Phase::Aggregation:
      return "aggregation";
    case Phase::CacheLookup:
      return "cache_lookup";
  }
  return "unknown";
}

/// Per-thread shard: only the owning thread adds, snapshot() sums.
struct ProfilerShard {
  struct Cell {
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::uint64_t> self_ns{0};
  };
  std::array<Cell, kPhaseCount> phases;
};

namespace {

std::atomic<std::uint64_t> next_profiler_gen{1};

struct TlsEntry {
  std::uint64_t gen = 0;
  ProfilerShard* shard = nullptr;
};

thread_local std::vector<TlsEntry> tls_profiler_shards;

/// Top of the calling thread's phase-scope stack; the active scope being
/// charged for elapsed time right now.
thread_local PhaseScope* tls_current_scope = nullptr;

}  // namespace

PhaseProfiler::PhaseProfiler()
    : gen_(next_profiler_gen.fetch_add(1, std::memory_order_relaxed)) {}

PhaseProfiler::~PhaseProfiler() = default;

std::uint64_t PhaseProfiler::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ProfilerShard& PhaseProfiler::local_shard() const {
  for (const TlsEntry& entry : tls_profiler_shards) {
    if (entry.gen == gen_) return *entry.shard;
  }
  util::MutexLock lock(mutex_);
  shards_.push_back(std::make_unique<ProfilerShard>());
  ProfilerShard* shard = shards_.back().get();
  tls_profiler_shards.push_back(TlsEntry{gen_, shard});
  return *shard;
}

void PhaseProfiler::record(Phase phase, std::uint64_t self_ns) const {
  ProfilerShard::Cell& cell =
      local_shard().phases[static_cast<std::size_t>(phase)];
  cell.entries.fetch_add(1, std::memory_order_relaxed);
  cell.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
}

std::array<PhaseStats, kPhaseCount> PhaseProfiler::snapshot() const {
  std::array<PhaseStats, kPhaseCount> stats;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    stats[p].phase = static_cast<Phase>(p);
    stats[p].name = to_string(stats[p].phase);
  }
  util::MutexLock lock(mutex_);
  for (const auto& shard : shards_) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      stats[p].entries +=
          shard->phases[p].entries.load(std::memory_order_relaxed);
      stats[p].self_ns +=
          shard->phases[p].self_ns.load(std::memory_order_relaxed);
    }
  }
  return stats;
}

void PhaseProfiler::reset() {
  util::MutexLock lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& cell : shard->phases) {
      cell.entries.store(0, std::memory_order_relaxed);
      cell.self_ns.store(0, std::memory_order_relaxed);
    }
  }
}

void PhaseProfiler::write_table(std::ostream& os) const {
  const auto stats = snapshot();
  std::uint64_t total_ns = 0;
  for (const PhaseStats& s : stats) total_ns += s.self_ns;

  os << "phase             entries    self [ms]   share\n";
  char line[128];
  for (const PhaseStats& s : stats) {
    const double ms = static_cast<double>(s.self_ns) / 1e6;
    const double share =
        total_ns > 0
            ? 100.0 * static_cast<double>(s.self_ns) /
                  static_cast<double>(total_ns)
            : 0.0;
    std::snprintf(line, sizeof(line), "%-16s %9llu %12.3f %6.1f%%\n", s.name,
                  static_cast<unsigned long long>(s.entries), ms, share);
    os << line;
  }
  std::snprintf(line, sizeof(line), "%-16s %9s %12.3f %6.1f%%\n", "total", "",
                static_cast<double>(total_ns) / 1e6, total_ns > 0 ? 100.0 : 0.0);
  os << line;
}

void PhaseProfiler::publish(Registry& registry) const {
  for (const PhaseStats& s : snapshot()) {
    const Labels labels{{"phase", s.name}};
    registry.gauge("obs.phase.entries", labels)
        .set(static_cast<double>(s.entries));
    registry.gauge("obs.phase.self_seconds", labels)
        .set(static_cast<double>(s.self_ns) / 1e9);
  }
}

// ---- scope ----

void PhaseScope::start(PhaseProfiler& profiler) {
  profiler_ = &profiler;
  const std::uint64_t now = profiler.now_ns();
  parent_ = tls_current_scope;
  if (parent_ != nullptr) {
    // Suspend the parent: time up to now is the parent's self time.
    parent_->self_ns_ += now - parent_->resumed_ns_;
  }
  tls_current_scope = this;
  resumed_ns_ = now;
}

void PhaseScope::finish() {
  const std::uint64_t now = profiler_->now_ns();
  self_ns_ += now - resumed_ns_;
  profiler_->record(phase_, self_ns_);
  tls_current_scope = parent_;
  if (parent_ != nullptr) parent_->resumed_ns_ = now;
}

}  // namespace expert::obs
