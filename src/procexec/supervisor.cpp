#include "expert/procexec/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
// EXPERT_LINT_ALLOW(INC002): supervision deadlines (heartbeat gaps, per-BoT
// wall-clock caps, shutdown grace) are real time by definition — they bound
// a real OS process, not simulated work.
#include <chrono>
#include <cstring>
#include <utility>

#include "expert/obs/metrics.hpp"
#include "expert/procexec/codec.hpp"
#include "expert/procexec/wire.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/eintr.hpp"
#include "expert/util/thread_safety.hpp"

namespace expert::procexec {

namespace {

// EXPERT_LINT_ALLOW(ND003): wall-clock deadlines are the supervisor's
// contract; no simulated result ever flows through this clock.
using Clock = std::chrono::steady_clock;

/// Attempt outcomes land on one labeled series so a snapshot shows the
/// backend's health mix at a glance; spawn/restart counters track process
/// churn separately.
struct ProcExecObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter ok = reg.counter("core.backend.attempts",
                                obs::Labels{{"outcome", "ok"}});
  obs::Counter crash = reg.counter("core.backend.attempts",
                                   obs::Labels{{"outcome", "crash"}});
  obs::Counter timeout = reg.counter("core.backend.attempts",
                                     obs::Labels{{"outcome", "timeout"}});
  obs::Counter corrupt = reg.counter("core.backend.attempts",
                                     obs::Labels{{"outcome", "corrupt"}});
  obs::Counter handler_error = reg.counter("core.backend.attempts",
                                           obs::Labels{{"outcome", "error"}});
  obs::Counter spawned = reg.counter("core.backend.workers_spawned");
  obs::Counter restarts = reg.counter("core.backend.worker_restarts");

  void count_failure(FailureKind kind) {
    switch (kind) {
      case FailureKind::CleanExit:
      case FailureKind::NonzeroExit:
      case FailureKind::KilledBySignal:
      case FailureKind::SpawnFailure:
        crash.inc();
        return;
      case FailureKind::HeartbeatTimeout:
      case FailureKind::DeadlineExceeded:
        timeout.inc();
        return;
      case FailureKind::CorruptFrame:
        corrupt.inc();
        return;
      case FailureKind::HandlerError:
        handler_error.inc();
        return;
    }
  }
};

ProcExecObs& procexec_obs() {
  static ProcExecObs metrics;
  return metrics;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ::ssize_t n = util::retry_eintr([&] {
      return ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    });
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Child-side half of spawn(), running between fork() and exec. The
/// parent's other threads do not exist in the child, but whatever locks
/// they held at fork (including malloc's) stay locked forever — so this
/// function may only call the POSIX async-signal-safe set. expert_lint's
/// SIG001 machine-checks that via the EXPERT_SIGNAL_SAFE marker.
///
/// dup2 clears CLOEXEC on the worker's channel end; every other
/// descriptor (including siblings' channels) was opened CLOEXEC, so exec
/// leaves the worker holding exactly kWorkerChannelFd — a sibling must
/// not keep a copy of this slot's parent end alive, or closing it would
/// stop delivering EOF.
[[noreturn]] EXPERT_SIGNAL_SAFE void exec_worker_or_die(int channel_fd,
                                                        char* const* argv) {
  if (channel_fd == kWorkerChannelFd) {
    // dup2(fd, fd) would not clear CLOEXEC; strip it directly.
    const int fd_flags = ::fcntl(channel_fd, F_GETFD);
    if (fd_flags < 0 ||
        ::fcntl(channel_fd, F_SETFD, fd_flags & ~FD_CLOEXEC) < 0) {
      ::_exit(127);
    }
  } else if (::dup2(channel_fd, kWorkerChannelFd) < 0) {
    ::_exit(127);
  }
  ::execv(argv[0], argv);
  ::_exit(127);
}

using TimePoint =
    std::chrono::time_point<Clock, std::chrono::duration<double>>;

double seconds_until(TimePoint deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

}  // namespace

const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::CleanExit: return "clean-exit";
    case FailureKind::NonzeroExit: return "nonzero-exit";
    case FailureKind::KilledBySignal: return "killed-by-signal";
    case FailureKind::HeartbeatTimeout: return "heartbeat-timeout";
    case FailureKind::DeadlineExceeded: return "deadline-exceeded";
    case FailureKind::CorruptFrame: return "corrupt-frame";
    case FailureKind::HandlerError: return "handler-error";
    case FailureKind::SpawnFailure: return "spawn-failure";
  }
  return "?";
}

ProcessPool::ProcessPool(SupervisorOptions options)
    : options_(std::move(options)) {
  EXPERT_REQUIRE(options_.workers >= 1, "process pool needs >= 1 worker");
  EXPERT_REQUIRE(!options_.worker_program.empty(),
                 "process pool needs a worker program to exec");
  EXPERT_REQUIRE(options_.heartbeat_timeout_s > 0.0,
                 "heartbeat timeout must be positive");
  slots_.resize(static_cast<std::size_t>(options_.workers));
}

ProcessPool::~ProcessPool() {
  drain();
  shutdown();
}

std::size_t ProcessPool::acquire_slot() {
  util::MutexLock lock(mutex_);
  for (;;) {
    if (closing_) {
      throw WorkerFailure(FailureKind::SpawnFailure, 0,
                          "process pool is shutting down");
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy) {
        slots_[i].busy = true;
        return i;
      }
    }
    ++waiting_;
    slot_freed_.wait(mutex_);
    --waiting_;
  }
}

void ProcessPool::release_slot(std::size_t index) {
  // Notify under the lock: once this run unlocks, the destructor may free
  // the pool, condition variable included.
  util::MutexLock lock(mutex_);
  slots_[index].busy = false;
  slot_freed_.notify_all();
}

void ProcessPool::drain() {
  util::MutexLock lock(mutex_);
  closing_ = true;  // acquirers woken by the releases below give up
  for (;;) {
    bool in_flight = waiting_ > 0;
    for (const Slot& slot : slots_) {
      if (!slot.busy) continue;
      in_flight = true;
      if (slot.pid != -1) ::kill(static_cast<::pid_t>(slot.pid), SIGKILL);
    }
    if (!in_flight) return;
    // A run that spawns its worker after this pass is killed on the next.
    slot_freed_.wait_for(mutex_, 0.05);
  }
}

void ProcessPool::spawn(std::size_t index) {
  // The argv block is assembled before fork: the child may not allocate.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(options_.worker_program.c_str()));
  for (const std::string& arg : options_.worker_args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw WorkerFailure(FailureKind::SpawnFailure, 0,
                        std::string("socketpair failed: ") +
                            std::strerror(errno));
  }
  const ::pid_t pid = ::fork();
  if (pid < 0) {
    util::close_fd(sv[0]);
    util::close_fd(sv[1]);
    throw WorkerFailure(FailureKind::SpawnFailure, 0,
                        std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    exec_worker_or_die(sv[1], argv.data());
  }
  util::close_fd(sv[1]);
  {
    util::MutexLock lock(mutex_);
    Slot& slot = slots_[index];
    slot.pid = static_cast<int>(pid);
    slot.fd = sv[0];
    slot.buffer.clear();
    if (slot.had_worker) {
      ++stats_.restarts;
      procexec_obs().restarts.inc();
    }
    slot.had_worker = true;
    ++stats_.spawned;
  }
  procexec_obs().spawned.inc();
}

std::pair<int, int> ProcessPool::detach_worker(std::size_t index) {
  util::MutexLock lock(mutex_);
  Slot& slot = slots_[index];
  const std::pair<int, int> owned{slot.pid, slot.fd};
  slot.pid = -1;
  slot.fd = -1;
  slot.buffer.clear();
  return owned;
}

int ProcessPool::reap(int pid) {
  int status = 0;
  const ::pid_t got = util::retry_eintr(
      [&] { return ::waitpid(static_cast<::pid_t>(pid), &status, 0); });
  EXPERT_CHECK(got == pid, "waitpid lost track of a worker");
  util::MutexLock lock(mutex_);
  ++stats_.reaped;
  return status;
}

void ProcessPool::fail_from_status(int status, std::uint64_t stream) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    throw WorkerFailure(FailureKind::KilledBySignal, sig,
                        "worker killed by signal " + std::to_string(sig) +
                            " on stream " + std::to_string(stream));
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (code == 0) {
    throw WorkerFailure(FailureKind::CleanExit, 0,
                        "worker exited before answering stream " +
                            std::to_string(stream));
  }
  throw WorkerFailure(FailureKind::NonzeroExit, code,
                      "worker exited with status " + std::to_string(code) +
                          " on stream " + std::to_string(stream));
}

void ProcessPool::kill_and_fail(std::size_t index, FailureKind kind,
                                const std::string& what) {
  const auto [pid, fd] = detach_worker(index);
  if (pid != -1) {
    ::kill(static_cast<::pid_t>(pid), SIGKILL);
    reap(pid);
  }
  if (fd != -1) util::close_fd(fd);
  throw WorkerFailure(kind, 0, what);
}

trace::ExecutionTrace ProcessPool::run_on_slot(
    std::size_t index, const workload::Bot& bot,
    const strategies::StrategyConfig& strategy, std::uint64_t stream) {
  int fd = -1;
  {
    util::MutexLock lock(mutex_);
    fd = slots_[index].fd;
  }
  if (fd == -1) {
    spawn(index);
    util::MutexLock lock(mutex_);
    fd = slots_[index].fd;
  }

  const std::string request =
      encode_frame(FrameType::Request,
                   encode_request(bot, strategy, stream));
  if (!send_all(fd, request)) {
    // The worker died between requests; reap and classify its exit.
    const auto [pid, owned_fd] = detach_worker(index);
    if (owned_fd != -1) util::close_fd(owned_fd);
    if (pid != -1) fail_from_status(reap(pid), stream);
    throw WorkerFailure(FailureKind::SpawnFailure, 0,
                        "worker channel lost before request");
  }

  const auto started = Clock::now();
  auto heartbeat_deadline =
      started + std::chrono::duration<double>(options_.heartbeat_timeout_s);
  const bool has_bot_deadline = options_.bot_deadline_s > 0.0;
  const auto bot_deadline =
      started + std::chrono::duration<double>(options_.bot_deadline_s);

  std::string local;  // decoded against slot.buffer's content, owner-only
  {
    util::MutexLock lock(mutex_);
    local = std::move(slots_[index].buffer);
  }

  // A ~90 KB response frame arrives in two reads rather than ~23.
  char chunk[64 << 10];
  for (;;) {
    while (!local.empty()) {
      const DecodeResult decoded = decode_frame(local);
      if (decoded.status == DecodeStatus::Corrupt) {
        kill_and_fail(index, FailureKind::CorruptFrame,
                      "corrupt frame from worker on stream " +
                          std::to_string(stream) + ": " + decoded.error);
      }
      if (decoded.status == DecodeStatus::NeedMore) break;
      local.erase(0, decoded.consumed);
      switch (decoded.frame.type) {
        case FrameType::Heartbeat:
          heartbeat_deadline =
              Clock::now() +
              std::chrono::duration<double>(options_.heartbeat_timeout_s);
          continue;
        case FrameType::Response: {
          trace::ExecutionTrace result;
          try {
            result = decode_response(decoded.frame.payload);
          } catch (const std::exception& e) {
            kill_and_fail(index, FailureKind::CorruptFrame,
                          std::string("undecodable response payload: ") +
                              e.what());
          }
          util::MutexLock lock(mutex_);
          slots_[index].buffer = std::move(local);
          return result;
        }
        case FrameType::Error:
          // The worker's handler threw but the worker itself is healthy:
          // keep it for the retry instead of paying a respawn.
          {
            util::MutexLock lock(mutex_);
            slots_[index].buffer = std::move(local);
          }
          throw WorkerFailure(FailureKind::HandlerError, 0,
                              "worker handler failed on stream " +
                                  std::to_string(stream) + ": " +
                                  decoded.frame.payload);
        case FrameType::Request:
          kill_and_fail(index, FailureKind::CorruptFrame,
                        "worker sent a request frame to the supervisor");
      }
    }

    double wait_s = seconds_until(heartbeat_deadline);
    if (has_bot_deadline) {
      wait_s = std::min(wait_s, seconds_until(bot_deadline));
    }
    if (has_bot_deadline && seconds_until(bot_deadline) <= 0.0) {
      kill_and_fail(index, FailureKind::DeadlineExceeded,
                    "worker exceeded the " +
                        std::to_string(options_.bot_deadline_s) +
                        "s per-BoT deadline on stream " +
                        std::to_string(stream));
    }
    if (seconds_until(heartbeat_deadline) <= 0.0) {
      kill_and_fail(index, FailureKind::HeartbeatTimeout,
                    "no heartbeat from worker for " +
                        std::to_string(options_.heartbeat_timeout_s) +
                        "s on stream " + std::to_string(stream));
    }

    ::pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int timeout_ms =
        std::max(1, static_cast<int>(wait_s * 1000.0) + 1);
    const int ready =
        util::retry_eintr([&] { return ::poll(&pfd, 1, timeout_ms); });
    if (ready == 0) continue;  // a deadline expired; re-check above
    EXPERT_CHECK(ready > 0, "poll failed on a worker channel");

    const ::ssize_t n = util::retry_eintr(
        [&] { return ::read(fd, chunk, sizeof chunk); });
    if (n > 0) {
      local.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    // EOF (or a torn connection): the worker is gone; classify its exit.
    const auto [pid, owned_fd] = detach_worker(index);
    if (owned_fd != -1) util::close_fd(owned_fd);
    if (pid == -1) {
      throw WorkerFailure(FailureKind::CleanExit, 0,
                          "worker vanished on stream " +
                              std::to_string(stream));
    }
    fail_from_status(reap(pid), stream);
  }
}

void ProcessPool::shutdown() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const auto [pid, fd] = detach_worker(i);
    if (fd != -1) util::close_fd(fd);  // EOF tells the worker to exit 0
    if (pid == -1) continue;

    // Graceful window, then escalate: never leak a child.
    const auto deadline =
        Clock::now() +
        std::chrono::duration<double>(options_.shutdown_grace_s);
    bool reaped = false;
    for (;;) {
      int status = 0;
      const ::pid_t got = util::retry_eintr([&] {
        return ::waitpid(static_cast<::pid_t>(pid), &status, WNOHANG);
      });
      if (got == pid) {
        reaped = true;
        break;
      }
      if (Clock::now() >= deadline) break;
      ::timespec nap{0, 5 * 1000 * 1000};  // 5 ms
      util::retry_eintr([&] { return ::nanosleep(&nap, nullptr); });
    }
    if (!reaped) {
      ::kill(static_cast<::pid_t>(pid), SIGKILL);
      int status = 0;
      util::retry_eintr(
          [&] { return ::waitpid(static_cast<::pid_t>(pid), &status, 0); });
    }
    util::MutexLock lock(mutex_);
    ++stats_.reaped;
  }
}

trace::ExecutionTrace ProcessPool::run(
    const workload::Bot& bot, const strategies::StrategyConfig& strategy,
    std::uint64_t stream) {
  const std::size_t index = acquire_slot();
  try {
    trace::ExecutionTrace result = run_on_slot(index, bot, strategy, stream);
    release_slot(index);
    procexec_obs().ok.inc();
    return result;
  } catch (const WorkerFailure& failure) {
    release_slot(index);
    procexec_obs().count_failure(failure.kind());
    throw;
  } catch (...) {
    release_slot(index);
    throw;
  }
}

WorkerHandler ProcessPool::backend() {
  return [this](const workload::Bot& bot,
                const strategies::StrategyConfig& strategy,
                std::uint64_t stream) { return run(bot, strategy, stream); };
}

ProcessPool::Stats ProcessPool::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::vector<int> ProcessPool::worker_pids() const {
  util::MutexLock lock(mutex_);
  std::vector<int> pids;
  for (const Slot& slot : slots_) {
    if (slot.pid != -1) pids.push_back(slot.pid);
  }
  return pids;
}

}  // namespace expert::procexec
