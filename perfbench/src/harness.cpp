#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - process_start())
      .count();
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

long Tracer::begin(const char* name) {
  if (!on_) return -1;
  spans_.push_back({name, now_ns(), 0, open_, op_});
  open_ = static_cast<long>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(long index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  open_ = span.parent;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(const char* name) : index_(Tracer::get().begin(name)) {}

ScopedSpan::~ScopedSpan() { Tracer::get().end(index_); }

void Counters::take_before() {
  before_ = expert::obs::Registry::global().snapshot();
}

void Counters::take_after() {
  after_ = expert::obs::Registry::global().snapshot();
}

std::uint64_t Counters::delta(const std::string& counter) const {
  return after_.counter_total(counter) - before_.counter_total(counter);
}

std::pair<std::uint64_t, double> Counters::histogram_delta(
    const std::string& name) const {
  auto totals = [&](const expert::obs::Snapshot& snap) {
    std::pair<std::uint64_t, double> t{0, 0.0};
    for (const auto& h : snap.histograms) {
      if (h.name == name) {
        t.first += h.count;
        t.second += h.sum;
      }
    }
    return t;
  };
  const auto a = totals(before_);
  const auto b = totals(after_);
  return {b.first - a.first, b.second - a.second};
}

void RunRecord::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

void RunRecord::add_op(double ms, bool traced) {
  ++ops;
  ++attempted;
  (traced ? traced_op_ms : op_ms).push_back(ms);
}

void mix_point(expert::util::HashState& h, const expert::core::StrategyPoint& p) {
  const auto& m = p.metrics;
  h.mix(static_cast<std::uint64_t>(p.params.n ? *p.params.n + 1 : 0));
  h.mix(p.params.timeout_t).mix(p.params.deadline_d).mix(p.params.mr);
  h.mix(p.makespan).mix(p.cost);
  h.mix(m.finished).mix(m.makespan).mix(m.t_tail).mix(m.tail_makespan);
  h.mix(m.total_cost_cents).mix(m.cost_per_task_cents);
  h.mix(m.tail_cost_per_tail_task_cents).mix(m.tail_tasks);
  h.mix(m.reliable_instances_sent).mix(m.unreliable_instances_sent);
  h.mix(m.duplicate_results).mix(m.used_mr).mix(m.max_reliable_queue);
  h.mix(m.max_reliable_queue_fraction);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double host_ref_ms() {
  // xorshift64 over a fixed iteration count: pure integer ALU work with a
  // loop-carried dependency, so neither memory nor the optimizer moves it.
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return ms_between(t0, Clock::now());
}

}  // namespace perfbench
