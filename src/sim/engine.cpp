#include "expert/sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "expert/obs/metrics.hpp"
#include "expert/util/assert.hpp"

namespace expert::sim {

namespace {

/// Handles into the global registry, resolved once per process.
struct EngineMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter runs = reg.counter("sim.engine.runs");
  obs::Counter scheduled = reg.counter("sim.engine.events_scheduled");
  obs::Counter fired = reg.counter("sim.engine.events_fired");
  obs::Counter cancelled = reg.counter("sim.engine.events_cancelled");
  obs::Histogram max_queue = reg.histogram(
      "sim.engine.max_queue_depth",
      obs::HistogramSpec::exponential(1.0, 1048576.0, 21));
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

}  // namespace

void QueueStats::flush() {
  if (obs::Registry::global().enabled()) {
    EngineMetrics& m = engine_metrics();
    m.runs.inc();
    m.scheduled.inc(scheduled);
    m.fired.inc(fired);
    m.cancelled.inc(cancelled);
    m.max_queue.observe(static_cast<double>(max_depth));
  }
  *this = QueueStats{};
}

Engine::EventHandle Engine::schedule_at(SimTime at, Callback fn) {
  return push(at, next_seq_++, std::move(fn));
}

Engine::EventHandle Engine::schedule_ahead_at(SimTime at, std::uint64_t key,
                                              Callback fn) {
  EXPERT_REQUIRE(key < kAheadKeys, "ahead-of-time event key out of range");
  return push(at, key, std::move(fn));
}

Engine::EventHandle Engine::schedule_in(SimTime delay, Callback fn) {
  EXPERT_REQUIRE(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

Engine::EventHandle Engine::push(SimTime at, std::uint64_t seq,
                                 Callback&& fn) {
  EXPERT_REQUIRE(at >= now_, "cannot schedule an event in the past");
  EXPERT_REQUIRE(static_cast<bool>(fn), "event callback must be callable");
  const std::uint32_t index = slots_.acquire();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  heap_.push(at, seq, index);
  ++stats_.scheduled;
  stats_.max_depth = std::max(stats_.max_depth, heap_.size());
  return EventHandle(this, index, slot.generation);
}

void Engine::release_top() noexcept {
  const std::uint32_t index = heap_.top().slot;
  ++slots_[index].generation;
  slots_.release(index);
  heap_.pop();
}

SimTime Engine::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

SimTime Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_ && !heap_.empty()) {
    const EventHeap::Entry next = heap_.top();
    Slot& slot = slots_[next.slot];
    if (!slot.fn) {  // cancelled: skip it
      release_top();
      ++stats_.cancelled;
      continue;
    }
    // The horizon is tested on the next live event: testing a cancelled
    // one on top would let the live event behind it fire past the horizon.
    if (next.time > horizon) {
      now_ = std::max(now_, horizon);
      break;
    }
    EXPERT_CHECK(next.time + 1e-9 >= now_, "event time went backwards");
    // The callback leaves its slot before it runs: it may schedule events,
    // which can reuse the slot or grow the slab under it.
    Callback fn = std::move(slot.fn);
    release_top();
    now_ = next.time;
    ++stats_.fired;
    fn();
  }
  stats_.flush();
  return now_;
}

}  // namespace expert::sim
