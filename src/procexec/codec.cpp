#include "expert/procexec/codec.hpp"

#include <limits>
#include <string_view>

#include "expert/resilience/serial.hpp"
#include "expert/util/assert.hpp"

namespace expert::procexec {

namespace ser = resilience::serial;

// Request payload:
//   req v1 stream=<u64> strategy=<serial strategy> bot=<escaped name>
//   tasks=<id:cpu_hexfloat>[;...]
// Response payload:
//   trace <serial trace>
// Field order and single-space separators are fixed; the decoder rejects
// anything it does not expect — wire payloads come from a process we
// forked ourselves, so leniency only hides corruption.

namespace {
/// Typical bytes per "id:cpu;" task entry, to size the payload once.
constexpr std::size_t kTaskBytesHint = 28;
/// Longest ";id:cpu" task entry.
constexpr std::size_t kMaxTaskChars =
    ser::kMaxU64Chars + ser::kMaxDoubleChars + 2;
}  // namespace

std::string encode_request(const workload::Bot& bot,
                           const strategies::StrategyConfig& strategy,
                           std::uint64_t stream) {
  std::string out;
  out.reserve(128 + 3 * (bot.name().size() + strategy.name.size()) +
              kTaskBytesHint * bot.size());
  out += "req v1 stream=";
  ser::append_u64(out, stream);
  out += " strategy=";
  ser::append_strategy(out, strategy);
  out += " bot=";
  ser::append_escaped(out, bot.name());
  out += " tasks=";
  char buf[kMaxTaskChars];
  bool first = true;
  for (const auto& task : bot.tasks()) {
    char* p = buf;
    if (!first) *p++ = ';';
    first = false;
    p = ser::write_u64(p, task.id);
    *p++ = ':';
    p = ser::write_double(p, task.cpu_seconds);
    out.append(buf, p);
  }
  return out;
}

Request decode_request(const std::string& payload) {
  ser::Reader in(payload);
  EXPERT_REQUIRE(in.consume("req v1 "), "procexec: not a v1 request payload");
  Request request;
  in.expect("stream=");
  request.stream = in.u64();
  in.expect(" strategy=");
  request.strategy = ser::parse_strategy(in.until(' '));
  in.expect(" bot=");
  std::string name = ser::unescape(in.until(' '));
  in.expect(" tasks=");

  // The entry count bounds the reservation by the payload's own size.
  std::vector<workload::Task> tasks;
  tasks.reserve(in.count(';') + 1);
  for (;;) {
    workload::Task task;
    task.id = static_cast<workload::TaskId>(
        in.u64(std::numeric_limits<workload::TaskId>::max()));
    in.expect(':');
    task.cpu_seconds = in.real();
    tasks.push_back(task);
    if (in.done()) break;
    in.expect(';');
  }
  request.bot = workload::Bot(std::move(name), std::move(tasks));
  return request;
}

std::string encode_response(const trace::ExecutionTrace& trace) {
  std::string out = "trace ";
  ser::append_trace(out, trace);
  return out;
}

trace::ExecutionTrace decode_response(const std::string& payload) {
  EXPERT_REQUIRE(payload.rfind("trace ", 0) == 0,
                 "procexec: not a trace response payload");
  return ser::parse_trace(std::string_view(payload).substr(6));
}

}  // namespace expert::procexec
