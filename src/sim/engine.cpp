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

void Engine::EventHandle::cancel() {
  if (node_ && !node_->cancelled) {
    node_->cancelled = true;
    node_->fn = nullptr;  // release captures promptly
  }
}

Engine::EventHandle Engine::schedule_at(SimTime at, std::function<void()> fn) {
  return push(at, next_seq_++, std::move(fn));
}

Engine::EventHandle Engine::schedule_ahead_at(SimTime at, std::uint64_t key,
                                              std::function<void()> fn) {
  EXPERT_REQUIRE(key < kAheadKeys, "ahead-of-time event key out of range");
  return push(at, key, std::move(fn));
}

Engine::EventHandle Engine::push(SimTime at, std::uint64_t seq,
                                 std::function<void()>&& fn) {
  EXPERT_REQUIRE(at >= now_, "cannot schedule an event in the past");
  EXPERT_REQUIRE(fn != nullptr, "event callback must be callable");
  auto node = std::make_shared<EventHandle::Node>();
  node->time = at;
  node->seq = seq;
  node->fn = std::move(fn);
  heap_.push(node);
  ++stats_.scheduled;
  stats_.max_depth = std::max(stats_.max_depth, heap_.size());
  return EventHandle(std::move(node));
}

Engine::EventHandle Engine::schedule_in(SimTime delay,
                                        std::function<void()> fn) {
  EXPERT_REQUIRE(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

const Engine::EventHandle::Node* Engine::next_live() {
  while (!heap_.empty() && heap_.top()->cancelled) {
    heap_.pop();
    ++stats_.cancelled;
  }
  return heap_.empty() ? nullptr : heap_.top().get();
}

void Engine::fire_next() {
  NodePtr node = heap_.top();
  heap_.pop();
  EXPERT_CHECK(node->time + 1e-9 >= now_, "event time went backwards");
  now_ = node->time;
  auto fn = std::move(node->fn);
  node->fn = nullptr;
  ++stats_.fired;
  fn();
}

SimTime Engine::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

SimTime Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_) {
    // The horizon is tested on the next live event: testing a cancelled
    // one on top would let the live event behind it fire past the horizon.
    const EventHandle::Node* next = next_live();
    if (!next) break;
    if (next->time > horizon) {
      now_ = std::max(now_, horizon);
      break;
    }
    fire_next();
  }
  stats_.flush();
  return now_;
}

}  // namespace expert::sim
