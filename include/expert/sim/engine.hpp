#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "expert/sim/event_heap.hpp"

namespace expert::sim {

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

/// An event's callback: a move-only `void()` callable stored inline, so
/// scheduling an event allocates nothing for its closure. A closure larger
/// than kCapacity bytes does not compile; capture less (an index instead of
/// an object) rather than grow the storage.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 48;

  Callback() = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Callback> && std::is_invocable_r_v<void, Fn&>)
  Callback(F&& f) {  // implicit, so a lambda converts at schedule_at
    static_assert(sizeof(Fn) <= kCapacity,
                  "event closure exceeds Callback's inline storage");
    static_assert(alignof(Fn) <= alignof(std::uint64_t),
                  "event closure is over-aligned for Callback's storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event closure must move without throwing");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  /// Run the callable; it must be set.
  void operator()() { ops_->invoke(storage_); }

  /// Destroy the callable, releasing its captures.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  /// A trivially copyable closure has no `relocate` or `destroy`: it moves
  /// as raw bytes and needs no destructor.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* from, void* to) noexcept {
              ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
              static_cast<Fn*>(from)->~Fn();
            },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.storage_, storage_);
    } else {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    other.ops_ = nullptr;
  }

  alignas(std::uint64_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Discrete-event simulation engine. Events fire in (time, insertion-order)
/// order, so simultaneous events are deterministic; events scheduled with
/// schedule_ahead_at fire before every ordinary event of their time, in
/// key order. Both kinds share one (time, seq) order: ordinary events draw
/// `seq` from a range above every key.
///
/// The queue is an EventHeap over a slab of slots, one per pending event,
/// each holding the event's Callback and a generation; a popped event's
/// slot goes on a free list for the next one. Cancellation is lazy: a
/// cancelled event's callback is released at once, but its entry stays in
/// the heap and is skipped when popped, which is when its slot is freed —
/// cheap, and exactly the "cancel an enqueued instance" semantics the
/// ExPERT model needs.
class Engine {
 public:
  /// Names one scheduled event. Freeing a slot moves its generation on, so
  /// a handle to an event that has fired or been skipped cancels nothing,
  /// even once its slot holds another event. A handle must not outlive
  /// its Engine.
  class EventHandle {
   public:
    EventHandle() = default;
    /// Cancel the event if it has not fired; no-op otherwise.
    void cancel() noexcept {
      if (engine_ == nullptr) return;
      Slot& slot = engine_->slots_[slot_];
      if (slot.generation == generation_) slot.fn.reset();
    }

   private:
    friend class Engine;
    EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation)
        : engine_(engine), slot_(slot), generation_(generation) {}
    Engine* engine_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
  };

  Engine() = default;
  /// Handles point at their engine, so it stays where it was built.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now).
  EventHandle schedule_at(SimTime at, Callback fn);
  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, Callback fn);

  /// Keys of schedule_ahead_at lie in [0, kAheadKeys).
  static constexpr std::uint64_t kAheadKeys = std::uint64_t{1} << 32;
  /// Schedule `fn` at absolute time `at` (>= now) ahead of every ordinary
  /// event at that time, whenever either was scheduled. Such events fire
  /// among themselves in `key` order; two pending ones with the same time
  /// and key fire in an unspecified (but deterministic) order, so callers
  /// give each pending event its own key.
  EventHandle schedule_ahead_at(SimTime at, std::uint64_t key, Callback fn);

  /// Run until the event queue drains. Returns the time of the last event.
  SimTime run();
  /// Run events with time <= horizon; clock ends at min(horizon, last event).
  SimTime run_until(SimTime horizon);
  /// Request the current run() / run_until() to return after the in-flight
  /// event finishes. Used to end a simulation at BoT completion without
  /// draining background processes (e.g. machine availability churn).
  void stop() noexcept { stop_requested_ = true; }

 private:
  /// One pending event, or a free slot. The callback is empty once the
  /// event is cancelled; the slot is freed when its entry is popped.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
  };

  EventHandle push(SimTime at, std::uint64_t seq, Callback&& fn);
  /// Free the top entry's slot and pop it.
  void release_top() noexcept;

  EventHeap heap_;
  SlotSlab<Slot> slots_;
  SimTime now_ = 0.0;
  bool stop_requested_ = false;
  std::uint64_t next_seq_ = kAheadKeys;  ///< ordinary events sort after keys

  /// Deltas since run_until last returned; plain members so the
  /// per-event cost of instrumentation is a few register increments.
  QueueStats stats_;
};

}  // namespace expert::sim
