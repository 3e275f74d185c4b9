#include "expert/procexec/worker.hpp"

// EXPERT_LINT_ALLOW(INC002): the heartbeat cadence is wall-clock by nature —
// the supervisor's liveness deadline is real time, not simulated time.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "expert/procexec/codec.hpp"
#include "expert/procexec/wire.hpp"
#include "expert/util/eintr.hpp"
#include "expert/util/thread_safety.hpp"

namespace expert::procexec {

namespace {

/// Writes the whole buffer or returns false. Uses send(MSG_NOSIGNAL) so a
/// supervisor that died mid-request surfaces as EPIPE instead of SIGPIPE —
/// the worker must not depend on process-global signal disposition.
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

/// Sends Heartbeat frames every interval while a request is being
/// evaluated. One thread serves the worker's whole life: a request only
/// flips a busy flag (waking a parked thread without waiting for it), so
/// no request waits for a thread to start, wake or exit. Between requests
/// the worker is silent — the thread parks once its current interval runs
/// out, so an idle pool neither fills the channel's socket buffer with
/// heartbeats nor wakes up on a timer.
class HeartbeatPump {
 public:
  HeartbeatPump(int fd, util::Mutex& write_mutex, double interval_s)
      : thread_([this, fd, &write_mutex, interval_s] {
          util::MutexLock lock(state_mutex_);
          while (!stop_) {
            if (!busy_) {
              parked_ = true;
              cond_.wait(state_mutex_);
              parked_ = false;
              continue;
            }
            // Woken early (stop) or the request ended: re-check above.
            if (cond_.wait_for(state_mutex_, interval_s) || stop_ || !busy_) {
              continue;
            }
            // Holding state_mutex_ while sending orders any heartbeat
            // before the reply: end() waits for it.
            const std::string frame = encode_frame(FrameType::Heartbeat, "");
            util::MutexLock write_lock(write_mutex);
            if (!send_all(fd, frame)) break;  // supervisor is gone
          }
        }) {}

  ~HeartbeatPump() {
    {
      util::MutexLock lock(state_mutex_);
      stop_ = true;
    }
    cond_.notify_all();
    thread_.join();
  }

  /// Heartbeats flow while one of these lives, around a request's handler.
  class Busy {
   public:
    explicit Busy(HeartbeatPump& pump) : pump_(pump) { pump_.begin(); }
    ~Busy() { pump_.end(); }
    Busy(const Busy&) = delete;
    Busy& operator=(const Busy&) = delete;

   private:
    HeartbeatPump& pump_;
  };

 private:
  /// Wakes the thread only if it is parked; a thread in its timed wait
  /// beats at most one interval after this call.
  void begin() {
    bool wake = false;
    {
      util::MutexLock lock(state_mutex_);
      busy_ = true;
      wake = parked_;
    }
    if (wake) cond_.notify_one();
  }

  void end() {
    util::MutexLock lock(state_mutex_);
    busy_ = false;
  }

  util::Mutex state_mutex_;
  util::CondVar cond_;
  bool stop_ EXPERT_GUARDED_BY(state_mutex_) = false;
  bool busy_ EXPERT_GUARDED_BY(state_mutex_) = false;
  bool parked_ EXPERT_GUARDED_BY(state_mutex_) = false;
  std::thread thread_;
};

}  // namespace

int worker_main(const WorkerHandler& handler, const WorkerOptions& options,
                int channel_fd) {
  // Serializes Response/Error frames against the heartbeat thread so frames
  // never interleave on the byte stream.
  util::Mutex write_mutex;
  HeartbeatPump pump(channel_fd, write_mutex, options.heartbeat_interval_s);
  std::string buffer;
  // A ~90 KB response frame arrives in two reads rather than ~23.
  char chunk[64 << 10];

  for (;;) {
    // Drain every complete frame already buffered before reading more.
    while (!buffer.empty()) {
      const DecodeResult decoded = decode_frame(buffer);
      if (decoded.status == DecodeStatus::Corrupt) return 2;
      if (decoded.status == DecodeStatus::NeedMore) break;
      buffer.erase(0, decoded.consumed);
      if (decoded.frame.type != FrameType::Request) return 2;

      std::string reply;
      try {
        const Request request = decode_request(decoded.frame.payload);
        trace::ExecutionTrace result;
        {
          const HeartbeatPump::Busy busy(pump);
          result = handler(request.bot, request.strategy, request.stream);
        }
        reply = encode_frame(FrameType::Response, encode_response(result));
      } catch (const std::exception& e) {
        reply = encode_frame(FrameType::Error, e.what());
      }
      util::MutexLock write_lock(write_mutex);
      if (!send_all(channel_fd, reply)) return 3;
    }

    const ::ssize_t n = util::retry_eintr(
        [&] { return ::read(channel_fd, chunk, sizeof chunk); });
    if (n == 0) return buffer.empty() ? 0 : 2;  // EOF mid-frame is corrupt
    if (n < 0) return 3;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace expert::procexec
