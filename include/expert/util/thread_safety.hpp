#pragma once

// EXPERT_LINT_ALLOW(INC002): CondVar::wait_for needs a real-time duration;
// the header exposes no clock and simulated code never calls the timed wait.
#include <chrono>
#include <condition_variable>
#include <mutex>

// Clang thread-safety analysis annotations (-Wthread-safety). On compilers
// without the attribute (gcc, MSVC) every macro expands to nothing, so the
// annotations are documentation there and machine-checked on the clang CI
// jobs, which build with -Wthread-safety -Werror.
//
// libstdc++'s std::mutex carries no capability attributes, so locking it
// directly is invisible to the analysis. Library code uses the annotated
// expert::util::Mutex / MutexLock / CondVar wrappers below instead.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define EXPERT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef EXPERT_THREAD_ANNOTATION
#define EXPERT_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability (mutexes).
#define EXPERT_CAPABILITY(x) EXPERT_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define EXPERT_SCOPED_CAPABILITY EXPERT_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the given capability.
#define EXPERT_GUARDED_BY(x) EXPERT_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose pointee is protected by the given capability.
#define EXPERT_PT_GUARDED_BY(x) EXPERT_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function precondition: the listed capabilities must be held by the caller.
#define EXPERT_REQUIRES(...) \
  EXPERT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function precondition: the listed capabilities must NOT be held.
#define EXPERT_EXCLUDES(...) EXPERT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function acquires the listed capabilities and holds them on return.
#define EXPERT_ACQUIRE(...) \
  EXPERT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define EXPERT_RELEASE(...) \
  EXPERT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability when it returns the given value.
#define EXPERT_TRY_ACQUIRE(...) \
  EXPERT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Escape hatch: suppress analysis for one function. Requires a comment
/// justifying why the access pattern is safe.
#define EXPERT_NO_THREAD_SAFETY_ANALYSIS \
  EXPERT_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Marks a function that runs between fork() and exec() (or in another
/// signal-adjacent path) and therefore may only call the POSIX
/// async-signal-safe set — after fork the child's heap locks may be held
/// by threads that no longer exist, so even malloc can deadlock. The
/// compiler sees nothing; expert_lint's SIG001 enforces the allowlist on
/// every function carrying this marker.
#define EXPERT_SIGNAL_SAFE

namespace expert::util {

/// std::mutex with a capability annotation, so -Wthread-safety can track
/// which data each lock protects. Also a BasicLockable, so it works with
/// CondVar below.
class EXPERT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EXPERT_ACQUIRE() { mutex_.lock(); }
  void unlock() EXPERT_RELEASE() { mutex_.unlock(); }
  bool try_lock() EXPERT_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// RAII scoped lock over Mutex (std::lock_guard is not annotated, so the
/// analysis would not see the acquire).
class EXPERT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) EXPERT_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() EXPERT_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable usable with Mutex. Waits take the Mutex itself (not a
/// std::unique_lock), which lets the REQUIRES annotation express that the
/// caller holds the lock across the wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mutex`, block, and reacquire before returning.
  /// Subject to spurious wakeups: call in a `while (!condition)` loop.
  void wait(Mutex& mutex) EXPERT_REQUIRES(mutex) { cond_.wait(mutex); }

  /// Timed wait: like wait(), but gives up after `seconds` of wall-clock
  /// time. Returns false on timeout, true when notified (or woken
  /// spuriously) — re-check the condition either way. Only wall-clock
  /// consumers (the process pool's drain and the worker's heartbeat pump)
  /// use this; simulated time never flows through it.
  bool wait_for(Mutex& mutex, double seconds) EXPERT_REQUIRES(mutex) {
    return cond_.wait_for(mutex, std::chrono::duration<double>(seconds)) ==
           std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cond_.notify_one(); }
  void notify_all() noexcept { cond_.notify_all(); }

 private:
  std::condition_variable_any cond_;
};

}  // namespace expert::util
