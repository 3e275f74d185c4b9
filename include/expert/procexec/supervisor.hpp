#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expert/procexec/worker.hpp"
#include "expert/util/thread_safety.hpp"

namespace expert::procexec {

/// How a worker attempt ended when it did not produce a Response frame.
/// Maps onto the campaign's existing backend-failure path: every kind is
/// thrown as WorkerFailure (a std::runtime_error), which Campaign::run_bot
/// catches, retries on a fresh stream, and quarantines past the retry cap.
enum class FailureKind : std::uint8_t {
  CleanExit,         ///< worker exited 0 mid-request (EOF before Response)
  NonzeroExit,       ///< worker exited with a nonzero status
  KilledBySignal,    ///< worker died to a signal (chaos SIGKILL lands here)
  HeartbeatTimeout,  ///< no frame within heartbeat_timeout_s; worker killed
  DeadlineExceeded,  ///< request ran past bot_deadline_s; worker killed
  CorruptFrame,      ///< undecodable bytes on the channel; worker killed
  HandlerError,      ///< worker sent an Error frame (its handler threw)
  SpawnFailure,      ///< could not fork/exec a worker for the slot
};

const char* to_string(FailureKind kind) noexcept;

/// Thrown by ProcessPool::run for every non-Response outcome.
class WorkerFailure : public std::runtime_error {
 public:
  WorkerFailure(FailureKind kind, int detail, const std::string& what)
      : std::runtime_error(what), kind_(kind), detail_(detail) {}

  FailureKind kind() const noexcept { return kind_; }
  /// Exit status for NonzeroExit, signal number for KilledBySignal,
  /// otherwise 0.
  int detail() const noexcept { return detail_; }

 private:
  FailureKind kind_;
  int detail_;
};

struct SupervisorOptions {
  /// Worker slots. Each slot owns at most one live worker process.
  int workers = 1;
  /// Program to exec for each worker — normally the running binary itself
  /// (self-exec), so parent and worker share one build of the simulator.
  std::string worker_program;
  /// argv tail after the program name, e.g. {"worker", "--experiment=11"}.
  /// The channel is not an argument: it is always kWorkerChannelFd.
  std::vector<std::string> worker_args;
  /// Kill a worker that produces no frame for this long mid-request.
  double heartbeat_timeout_s = 5.0;
  /// Wall-clock cap per request (`expert_cli execute --backend-timeout`);
  /// 0 disables. On expiry the worker is SIGKILLed and the attempt fails
  /// as DeadlineExceeded.
  double bot_deadline_s = 0.0;
  /// On shutdown, how long to wait for a worker to exit after its channel
  /// closes before escalating to SIGKILL.
  double shutdown_grace_s = 2.0;
};

/// Supervises a pool of worker processes speaking the wire protocol.
/// Workers are spawned lazily per slot, restarted after any failure, and
/// every spawned pid is reaped exactly once (stats().spawned ==
/// stats().reaped after destruction) — the no-orphans invariant the kill
/// matrix asserts. Thread-safe: concurrent run() calls occupy distinct
/// slots and block when all slots are busy. The pool outlives every run()
/// it started: the destructor kills the workers of runs still in flight
/// (a caller thread may still be inside run()) and waits until each
/// returned.
class ProcessPool {
 public:
  explicit ProcessPool(SupervisorOptions options);
  ~ProcessPool();
  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;

  /// Evaluate one (bot, strategy, stream) in a worker process. Returns the
  /// worker's trace, or throws WorkerFailure describing how the attempt
  /// died. The slot is restarted afterwards, so a failure never poisons
  /// later calls.
  trace::ExecutionTrace run(const workload::Bot& bot,
                            const strategies::StrategyConfig& strategy,
                            std::uint64_t stream);

  /// Adapter with the core::Campaign::Backend signature, bound to this
  /// pool. The pool must outlive the campaign using it.
  WorkerHandler backend();

  struct Stats {
    std::uint64_t spawned = 0;   ///< workers forked over the pool's lifetime
    std::uint64_t reaped = 0;    ///< pids collected via waitpid
    std::uint64_t restarts = 0;  ///< respawns after a failure
  };
  Stats stats() const;

  /// Pids of currently live workers (for tests asserting liveness/death).
  std::vector<int> worker_pids() const;

 private:
  /// One worker slot. `busy` hands a slot to exactly one run() call at a
  /// time; while busy, `buffer` belongs to that call alone. `pid`/`fd` are
  /// mutated only under `mutex_` so drain() and worker_pids() always see
  /// either a live worker or -1, never a reaped pid (kill-after-reuse is
  /// the race that matters — pids recycle).
  struct Slot {
    int pid = -1;
    int fd = -1;
    bool busy = false;
    bool had_worker = false;  ///< a respawn after this counts as a restart
    std::string buffer;       ///< unread tail of the channel byte stream
  };

  /// Block until a slot is free and claim it for one run() call. Throws
  /// SpawnFailure once the pool is being destroyed.
  std::size_t acquire_slot() EXPERT_EXCLUDES(mutex_);
  /// Free the slot: the last touch of the pool by the run() that held it.
  void release_slot(std::size_t index) EXPERT_EXCLUDES(mutex_);

  /// Refuse new runs, SIGKILL the workers of runs in flight, and wait
  /// until every run() has left the pool.
  void drain() EXPERT_EXCLUDES(mutex_);

  /// Fork + exec a worker into the slot. The argv block is assembled
  /// before fork so the child performs only async-signal-safe calls.
  void spawn(std::size_t index) EXPERT_EXCLUDES(mutex_);

  /// Take ownership of the slot's worker for reaping: clears pid/fd under
  /// the lock first so no other thread can signal a pid that is about to
  /// be (or was just) reaped and possibly recycled by the kernel.
  std::pair<int, int> detach_worker(std::size_t index)
      EXPERT_EXCLUDES(mutex_);

  /// Blocking waitpid on a detached worker; returns the raw wait status.
  int reap(int pid) EXPERT_EXCLUDES(mutex_);

  [[noreturn]] void fail_from_status(int status, std::uint64_t stream);

  /// Kill + reap the slot's worker and throw the given failure.
  [[noreturn]] void kill_and_fail(std::size_t index, FailureKind kind,
                                  const std::string& what)
      EXPERT_EXCLUDES(mutex_);

  trace::ExecutionTrace run_on_slot(std::size_t index,
                                    const workload::Bot& bot,
                                    const strategies::StrategyConfig& strategy,
                                    std::uint64_t stream)
      EXPERT_EXCLUDES(mutex_);

  /// Close every channel, then reap every worker: graceful window first,
  /// SIGKILL past shutdown_grace_s. Never leaks a child.
  void shutdown() EXPERT_EXCLUDES(mutex_);

  SupervisorOptions options_;
  mutable util::Mutex mutex_;
  util::CondVar slot_freed_;
  bool closing_ EXPERT_GUARDED_BY(mutex_) = false;  ///< the destructor runs
  /// run() calls blocked in acquire_slot().
  std::size_t waiting_ EXPERT_GUARDED_BY(mutex_) = 0;
  std::vector<Slot> slots_ EXPERT_GUARDED_BY(mutex_);
  Stats stats_ EXPERT_GUARDED_BY(mutex_);
};

}  // namespace expert::procexec
