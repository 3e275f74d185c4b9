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

void Engine::EventHandle::cancel() {
  if (node_ && !node_->cancelled) {
    node_->cancelled = true;
    node_->fn = nullptr;  // release captures promptly
  }
}

bool Engine::EventHandle::pending() const {
  return node_ && !node_->cancelled && node_->fn != nullptr;
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
  ++live_events_;
  ++obs_scheduled_;
  obs_max_queue_ = std::max(obs_max_queue_, heap_.size());
  return EventHandle(std::move(node));
}

Engine::EventHandle Engine::schedule_in(SimTime delay,
                                        std::function<void()> fn) {
  EXPERT_REQUIRE(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

Engine::NodePtr Engine::pop_next() {
  while (!heap_.empty()) {
    NodePtr node = heap_.top();
    heap_.pop();
    --live_events_;
    if (!node->cancelled) return node;
    ++obs_cancelled_;
  }
  return nullptr;
}

SimTime Engine::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

SimTime Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!heap_.empty() && !stop_requested_) {
    if (heap_.top()->time > horizon) {
      now_ = std::max(now_, std::min(horizon, heap_.top()->time));
      flush_metrics();
      return now_;
    }
    NodePtr node = pop_next();
    if (!node) break;
    EXPERT_CHECK(node->time + 1e-9 >= now_, "event time went backwards");
    now_ = node->time;
    auto fn = std::move(node->fn);
    node->fn = nullptr;
    ++processed_;
    ++obs_fired_;
    fn();
  }
  flush_metrics();
  return now_;
}

std::size_t Engine::run_some(std::size_t count) {
  std::size_t done = 0;
  while (done < count) {
    NodePtr node = pop_next();
    if (!node) break;
    now_ = node->time;
    auto fn = std::move(node->fn);
    node->fn = nullptr;
    ++processed_;
    ++obs_fired_;
    ++done;
    fn();
  }
  flush_metrics();
  return done;
}

bool Engine::empty() const { return live_events_ == 0; }

void Engine::flush_metrics() {
  if (obs::Registry::global().enabled()) {
    EngineMetrics& m = engine_metrics();
    m.runs.inc();
    m.scheduled.inc(obs_scheduled_);
    m.fired.inc(obs_fired_);
    m.cancelled.inc(obs_cancelled_);
    m.max_queue.observe(static_cast<double>(obs_max_queue_));
  }
  obs_scheduled_ = obs_fired_ = obs_cancelled_ = 0;
  obs_max_queue_ = 0;
}

}  // namespace expert::sim
