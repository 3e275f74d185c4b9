#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

namespace expert::sim {

/// Simulation time, in seconds since the start of the run.
using SimTime = double;

/// Event counts of a future-event queue since its last flush. Engine keeps
/// one; a simulator with its own queue (the Estimator's run) keeps another,
/// so both land in the same sim.engine.* metrics.
struct QueueStats {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;  ///< popped and skipped
  std::size_t max_depth = 0;    ///< queue size, cancelled events included

  /// Count one more finished run and add these counts to sim.engine.*
  /// (no-op when the global registry is disabled), then zero them.
  void flush();
};

/// Discrete-event simulation engine. Events fire in (time, insertion-order)
/// order, so simultaneous events are deterministic; events scheduled with
/// schedule_ahead_at fire before every ordinary event of their time, in
/// key order. Both kinds share one (time, seq) order: ordinary events draw
/// `seq` from a range above every key. Cancellation is lazy:
/// a cancelled node stays in the heap and is skipped when popped — cheap and
/// exactly matches the "cancel an enqueued instance" semantics the ExPERT
/// model needs.
class Engine {
 public:
  class EventHandle {
   public:
    EventHandle() = default;
    /// Cancel the event if it has not fired; no-op otherwise.
    void cancel();

   private:
    friend class Engine;
    struct Node;
    explicit EventHandle(std::shared_ptr<Node> node) : node_(std::move(node)) {}
    std::shared_ptr<Node> node_;
  };

  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now).
  EventHandle schedule_at(SimTime at, std::function<void()> fn);
  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, std::function<void()> fn);

  /// Keys of schedule_ahead_at lie in [0, kAheadKeys).
  static constexpr std::uint64_t kAheadKeys = std::uint64_t{1} << 32;
  /// Schedule `fn` at absolute time `at` (>= now) ahead of every ordinary
  /// event at that time, whenever either was scheduled. Such events fire
  /// among themselves in `key` order; two pending ones with the same time
  /// and key fire in an unspecified (but deterministic) order, so callers
  /// give each pending event its own key.
  EventHandle schedule_ahead_at(SimTime at, std::uint64_t key,
                                std::function<void()> fn);

  /// Run until the event queue drains. Returns the time of the last event.
  SimTime run();
  /// Run events with time <= horizon; clock ends at min(horizon, last event).
  SimTime run_until(SimTime horizon);
  /// Request the current run() / run_until() to return after the in-flight
  /// event finishes. Used to end a simulation at BoT completion without
  /// draining background processes (e.g. machine availability churn).
  void stop() noexcept { stop_requested_ = true; }

 private:
  struct EventHandle::Node {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    bool cancelled = false;
    std::function<void()> fn;
  };
  using NodePtr = std::shared_ptr<EventHandle::Node>;

  struct Later {
    bool operator()(const NodePtr& a, const NodePtr& b) const noexcept {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  EventHandle push(SimTime at, std::uint64_t seq, std::function<void()>&& fn);
  /// Pop the cancelled nodes off the top; the next live event, or null.
  const EventHandle::Node* next_live();
  /// Pop the top node, which must be live, and run it.
  void fire_next();

  std::priority_queue<NodePtr, std::vector<NodePtr>, Later> heap_;
  SimTime now_ = 0.0;
  bool stop_requested_ = false;
  std::uint64_t next_seq_ = kAheadKeys;  ///< ordinary events sort after keys

  /// Deltas since run_until last returned; plain members so the
  /// per-event cost of instrumentation is a few register increments.
  QueueStats stats_;
};

}  // namespace expert::sim
