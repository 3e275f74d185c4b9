#pragma once

// Frozen reference copy of the text codec as it stood before the codec
// moved to std::to_chars/std::from_chars: snprintf("%a") and
// std::to_string formatting, strtod/strtoull parsing, split() into one
// std::string per field. The differential codec tests hold the library's
// encoders to these bytes and its decoders to these values. Do not
// "improve" this file; it is the oracle.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "expert/procexec/codec.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/trace/trace.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/bot.hpp"

namespace expert::serial_oracle {

inline std::string fmt_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

inline std::string fmt_u64(std::uint64_t value) {
  return std::to_string(static_cast<unsigned long long>(value));
}

/// The original escape set: '%', space, comma, newline.
inline std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '%': out += "%25"; break;
      case ' ': out += "%20"; break;
      case ',': out += "%2C"; break;
      case '\n': out += "%0A"; break;
      default: out += c;
    }
  }
  return out;
}

inline double parse_double(const std::string& text) {
  EXPERT_REQUIRE(!text.empty(), "serial: empty number");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  EXPERT_REQUIRE(end == text.c_str() + text.size(),
                 "serial: bad number '" + text + "'");
  return value;
}

inline std::uint64_t parse_u64(const std::string& text, int base = 10) {
  EXPERT_REQUIRE(!text.empty(), "serial: empty integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  EXPERT_REQUIRE(errno == 0 && end == text.c_str() + text.size(),
                 "serial: bad integer '" + text + "'");
  return static_cast<std::uint64_t>(value);
}

inline std::string unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%') {
      EXPERT_REQUIRE(i + 2 < text.size(), "serial: truncated escape");
      const std::string hex = text.substr(i + 1, 2);
      out += static_cast<char>(parse_u64(hex, 16));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

inline std::string n_to_text(const std::optional<unsigned>& n) {
  return n.has_value() ? fmt_u64(*n) : "inf";
}

inline std::optional<unsigned> n_from_text(const std::string& text) {
  if (text == "inf") return std::nullopt;
  return static_cast<unsigned>(parse_u64(text));
}

inline std::string serialize_strategy(const strategies::StrategyConfig& s) {
  std::ostringstream os;
  os << escape(s.name) << ',' << static_cast<int>(s.throughput) << ','
     << static_cast<int>(s.tail_mode) << ',' << n_to_text(s.ntdmr.n) << ','
     << fmt_double(s.ntdmr.timeout_t) << ',' << fmt_double(s.ntdmr.deadline_d)
     << ',' << fmt_double(s.ntdmr.mr) << ',' << fmt_double(s.budget_cents);
  return os.str();
}

inline strategies::StrategyConfig parse_strategy(const std::string& text) {
  const auto parts = split(text, ',');
  EXPERT_REQUIRE(parts.size() == 8, "serial: bad strategy field");
  strategies::StrategyConfig s;
  s.name = unescape(parts[0]);
  s.throughput =
      static_cast<strategies::ThroughputPolicy>(parse_u64(parts[1]));
  s.tail_mode = static_cast<strategies::TailMode>(parse_u64(parts[2]));
  s.ntdmr.n = n_from_text(parts[3]);
  s.ntdmr.timeout_t = parse_double(parts[4]);
  s.ntdmr.deadline_d = parse_double(parts[5]);
  s.ntdmr.mr = parse_double(parts[6]);
  s.budget_cents = parse_double(parts[7]);
  return s;
}

inline std::string serialize_trace(const trace::ExecutionTrace& t) {
  std::ostringstream os;
  os << fmt_u64(t.task_count()) << ',' << fmt_double(t.t_tail()) << ','
     << fmt_double(t.makespan()) << ',' << (t.truncated() ? 1 : 0) << ','
     << fmt_u64(t.records().size());
  for (const auto& r : t.records()) {
    os << ';' << fmt_u64(r.task) << ':' << static_cast<int>(r.pool) << ':'
       << fmt_double(r.send_time) << ':' << fmt_double(r.turnaround) << ':'
       << static_cast<int>(r.outcome) << ':' << fmt_double(r.cost_cents)
       << ':' << (r.tail_phase ? 1 : 0);
  }
  return os.str();
}

inline trace::ExecutionTrace parse_trace(const std::string& text) {
  const auto chunks = split(text, ';');
  EXPERT_REQUIRE(!chunks.empty(), "serial: bad history field");
  const auto head = split(chunks[0], ',');
  EXPERT_REQUIRE(head.size() == 5, "serial: bad history header");
  const auto task_count = static_cast<std::size_t>(parse_u64(head[0]));
  const double t_tail = parse_double(head[1]);
  const double completion = parse_double(head[2]);
  const bool truncated = parse_u64(head[3]) != 0;
  const auto n_records = static_cast<std::size_t>(parse_u64(head[4]));
  EXPERT_REQUIRE(chunks.size() == n_records + 1,
                 "serial: history record count mismatch");
  std::vector<trace::InstanceRecord> records;
  records.reserve(n_records);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    const auto f = split(chunks[i], ':');
    EXPERT_REQUIRE(f.size() == 7, "serial: bad history record");
    trace::InstanceRecord r;
    r.task = static_cast<workload::TaskId>(parse_u64(f[0]));
    r.pool = static_cast<trace::PoolKind>(parse_u64(f[1]));
    r.send_time = parse_double(f[2]);
    r.turnaround = parse_double(f[3]);
    r.outcome = static_cast<trace::InstanceOutcome>(parse_u64(f[4]));
    r.cost_cents = parse_double(f[5]);
    r.tail_phase = parse_u64(f[6]) != 0;
    records.push_back(r);
  }
  return trace::ExecutionTrace(task_count, std::move(records), t_tail,
                               completion, truncated);
}

inline std::string encode_request(const workload::Bot& bot,
                                  const strategies::StrategyConfig& strategy,
                                  std::uint64_t stream) {
  std::ostringstream os;
  os << "req v1 stream=" << fmt_u64(stream)
     << " strategy=" << serialize_strategy(strategy)
     << " bot=" << escape(bot.name()) << " tasks=";
  bool first = true;
  for (const auto& task : bot.tasks()) {
    if (!first) os << ';';
    first = false;
    os << fmt_u64(task.id) << ':' << fmt_double(task.cpu_seconds);
  }
  return os.str();
}

inline procexec::Request decode_request(const std::string& payload) {
  std::istringstream in(payload);
  std::string magic, version, stream_kv, strategy_kv, bot_kv, tasks_kv;
  in >> magic >> version >> stream_kv >> strategy_kv >> bot_kv >> tasks_kv;
  EXPERT_REQUIRE(magic == "req" && version == "v1",
                 "procexec: not a v1 request payload");
  EXPERT_REQUIRE(stream_kv.rfind("stream=", 0) == 0 &&
                     strategy_kv.rfind("strategy=", 0) == 0 &&
                     bot_kv.rfind("bot=", 0) == 0 &&
                     tasks_kv.rfind("tasks=", 0) == 0,
                 "procexec: malformed request fields");
  std::string trailing;
  EXPERT_REQUIRE(!(in >> trailing),
                 "procexec: trailing data after request fields");

  procexec::Request request;
  request.stream = parse_u64(stream_kv.substr(7));
  request.strategy = parse_strategy(strategy_kv.substr(9));
  const std::string name = unescape(bot_kv.substr(4));

  std::vector<workload::Task> tasks;
  const std::string task_list = tasks_kv.substr(6);
  if (!task_list.empty()) {
    for (const std::string& chunk : split(task_list, ';')) {
      const auto fields = split(chunk, ':');
      EXPERT_REQUIRE(fields.size() == 2, "procexec: malformed task entry");
      workload::Task task;
      task.id = static_cast<workload::TaskId>(parse_u64(fields[0]));
      task.cpu_seconds = parse_double(fields[1]);
      tasks.push_back(task);
    }
  }
  request.bot = workload::Bot(name, std::move(tasks));
  return request;
}

inline std::string encode_response(const trace::ExecutionTrace& trace) {
  return "trace " + serialize_trace(trace);
}

}  // namespace expert::serial_oracle
