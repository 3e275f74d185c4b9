#include "expert/resilience/serial.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>

#include "expert/util/assert.hpp"

namespace expert::resilience::serial {

namespace {
using core::Campaign;
using core::DegradationReason;

// IEEE 754 binary64 layout.
constexpr int kFractionBits = 52;
constexpr int kBias = 1023;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kFractionMask =
    (std::uint64_t{1} << kFractionBits) - 1;
constexpr std::uint64_t kInfExponent = 0x7FF;
constexpr char kHexDigits[] = "0123456789abcdef";
/// Each byte's value as a lowercase hex digit; kNotHex for every other
/// byte.
constexpr std::uint8_t kNotHex = 0xFF;
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotHex);
  for (std::uint8_t d = 0; d < 16; ++d) {
    table[static_cast<unsigned char>(kHexDigits[d])] = d;
  }
  return table;
}();
/// Bytes per serialized trace record to reserve, so the payload is sized
/// once: WL1 traces on the five reference environments take 56-66 bytes
/// per record.
constexpr std::size_t kRecordBytesHint = 72;
/// Longest serialized trace record: ";task:pool:send:turnaround:outcome:
/// cost:flag".
constexpr std::size_t kMaxRecordChars =
    3 * kMaxU64Chars + 3 * kMaxDoubleChars + 8;

std::string_view snippet(std::string_view text) { return text.substr(0, 24); }
}  // namespace

char* write_double(char* out, double value) {
  EXPERT_REQUIRE(!std::isnan(value), "serial: NaN is not a valid field");
  const auto bits = std::bit_cast<std::uint64_t>(value);
  char* p = out;
  if ((bits & kSignBit) != 0) *p++ = '-';
  const std::uint64_t biased = (bits & ~kSignBit) >> kFractionBits;
  std::uint64_t fraction = bits & kFractionMask;
  if (biased == kInfExponent) return std::copy_n("inf", 3, p);
  // glibc's "%a": a leading 1 for normal values, 0 with exponent -1022 for
  // subnormals, "0p+0" for zero; the fraction without trailing zeros.
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  int exponent = 0;
  if (biased != 0) {
    exponent = static_cast<int>(biased) - kBias;
  } else if (fraction != 0) {
    exponent = 1 - kBias;
  }
  if (fraction != 0) {
    *p++ = '.';
    do {
      *p++ = kHexDigits[fraction >> (kFractionBits - 4)];
      fraction = (fraction << 4) & kFractionMask;
    } while (fraction != 0);
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  const int magnitude = exponent < 0 ? -exponent : exponent;
  return std::to_chars(p, out + kMaxDoubleChars, magnitude).ptr;
}

char* write_u64(char* out, std::uint64_t value) {
  return std::to_chars(out, out + kMaxU64Chars, value).ptr;
}

void append_double(std::string& out, double value) {
  char buf[kMaxDoubleChars];
  out.append(buf, write_double(buf, value));
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[kMaxU64Chars];
  out.append(buf, write_u64(buf, value));
}

std::string fmt_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string fmt_u64(std::uint64_t value) {
  std::string out;
  append_u64(out, value);
  return out;
}

std::string fmt_hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void append_escaped(std::string& out, std::string_view text) {
  constexpr std::string_view kSplitBytes = "%, \t\n\v\f\r";
  constexpr char kUpperHex[] = "0123456789ABCDEF";
  for (const char c : text) {
    if (kSplitBytes.find(c) == std::string_view::npos) {
      out += c;
      continue;
    }
    const auto byte = static_cast<unsigned char>(c);
    out += '%';
    out += kUpperHex[byte >> 4];
    out += kUpperHex[byte & 0xF];
  }
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%') {
      EXPERT_REQUIRE(i + 2 < text.size(), "serial: truncated escape");
      out += static_cast<char>(parse_u64(text.substr(i + 1, 2), 16));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
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

// ---- Reader ---------------------------------------------------------------

void Reader::fail(const char* what) const {
  throw util::ContractViolation(std::string("serial: ") + what + " at '" +
                                std::string(snippet(rest_)) + "'");
}

std::uint64_t Reader::u64(std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(rest_.data(), rest_.data() + rest_.size(), value);
  if (ec != std::errc() || value > max) fail("bad integer");
  rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
  return value;
}

double Reader::real() {
  const char* p = rest_.data();
  const char* const end = p + rest_.size();
  std::uint64_t bits = 0;
  if (p != end && *p == '-') {
    bits = kSignBit;
    ++p;
  }
  if (end - p >= 3 && p[0] == 'i' && p[1] == 'n' && p[2] == 'f') {
    rest_ = std::string_view(p + 3, static_cast<std::size_t>(end - p - 3));
    return std::bit_cast<double>(bits | kInfExponent << kFractionBits);
  }
  // Exactly the form append_double writes, so every accepted field is the
  // encoding of its value: "0x", the leading digit, an optional fraction of
  // 1-13 lowercase hex digits not ending in 0, "p", and a signed exponent
  // without leading zeros.
  if (end - p < 3 || p[0] != '0' || p[1] != 'x' || (p[2] != '0' && p[2] != '1'))
    fail("bad number");
  const bool normal = p[2] == '1';
  p += 3;
  std::uint64_t fraction = 0;
  if (p != end && *p == '.') {
    ++p;
    int free_bits = kFractionBits;
    std::uint64_t digit = 0;
    for (; p != end && free_bits > 0; ++p) {
      const std::uint8_t value = kHexValue[static_cast<unsigned char>(*p)];
      if (value == kNotHex) break;
      digit = value;
      free_bits -= 4;
      fraction |= digit << free_bits;
    }
    if (free_bits == kFractionBits || digit == 0) fail("bad number");
  }
  if (p == end || *p != 'p' || ++p == end || (*p != '+' && *p != '-'))
    fail("bad number");
  const bool negative_exponent = *p++ == '-';
  const char* const digits = p;
  int magnitude = 0;
  while (p != end && *p >= '0' && *p <= '9' && p - digits < 5) {
    magnitude = 10 * magnitude + (*p++ - '0');
  }
  if (p == digits || (*digits == '0' && p - digits > 1) ||
      (negative_exponent && magnitude == 0) || magnitude > kBias)
    fail("bad number");
  const int exponent = negative_exponent ? -magnitude : magnitude;
  if (normal) {
    if (exponent < 1 - kBias) fail("bad number");
    bits |= static_cast<std::uint64_t>(exponent + kBias) << kFractionBits;
  } else if (exponent != (fraction != 0 ? 1 - kBias : 0)) {
    fail("bad number");
  }
  rest_ = std::string_view(p, static_cast<std::size_t>(end - p));
  return std::bit_cast<double>(bits | fraction);
}

bool Reader::flag() {
  if (consume('0')) return false;
  if (consume('1')) return true;
  fail("bad flag");
}

std::string_view Reader::until(char sep) noexcept {
  const std::string_view field = rest_.substr(0, rest_.find(sep));
  rest_.remove_prefix(field.size());
  return field;
}

std::size_t Reader::count(char c) const noexcept {
  return static_cast<std::size_t>(std::count(rest_.begin(), rest_.end(), c));
}

void Reader::finish() const {
  if (!done()) fail("trailing data");
}

double parse_double(std::string_view text) {
  Reader in(text);
  const double value = in.real();
  in.finish();
  return value;
}

std::uint64_t parse_u64(std::string_view text, int base) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  EXPERT_REQUIRE(ec == std::errc() && end == text.data() + text.size(),
                 "serial: bad integer '" + std::string(snippet(text)) + "'");
  return value;
}

DegradationReason degradation_from_string(const std::string& name) {
  constexpr DegradationReason kAll[] = {
      DegradationReason::NoHistory,
      DegradationReason::NoThroughputPhase,
      DegradationReason::NoUnreliableInstances,
      DegradationReason::NoObservedSuccesses,
      DegradationReason::InsufficientSamples,
      DegradationReason::CharacterizationError,
      DegradationReason::RecommendationInfeasible,
      DegradationReason::BackendFailure,
      DegradationReason::HorizonTruncated,
      DegradationReason::ModelDrift,
  };
  for (const DegradationReason r : kAll) {
    if (name == core::to_string(r)) return r;
  }
  EXPERT_REQUIRE(false, "serial: unknown degradation '" + name + "'");
  return DegradationReason::NoHistory;  // unreachable
}

Campaign::BotOutcome outcome_from_string(const std::string& name) {
  constexpr Campaign::BotOutcome kAll[] = {
      Campaign::BotOutcome::Completed,
      Campaign::BotOutcome::CompletedAfterRetry,
      Campaign::BotOutcome::Quarantined,
  };
  for (const Campaign::BotOutcome o : kAll) {
    if (name == core::to_string(o)) return o;
  }
  EXPERT_REQUIRE(false, "serial: unknown outcome '" + name + "'");
  return Campaign::BotOutcome::Completed;  // unreachable
}

namespace {

void append_n(std::string& out, const std::optional<unsigned>& n) {
  if (n.has_value()) {
    append_u64(out, *n);
  } else {
    out += "inf";
  }
}

std::optional<unsigned> read_n(Reader& in) {
  if (in.consume("inf")) return std::nullopt;
  return static_cast<unsigned>(in.u64(std::numeric_limits<unsigned>::max()));
}

/// ",<value>" for each value.
void append_fields(std::string& out, std::initializer_list<double> values) {
  for (const double v : values) {
    out += ',';
    append_double(out, v);
  }
}

/// Read ",<value>" into each field.
void read_fields(Reader& in, std::initializer_list<double*> fields) {
  for (double* field : fields) {
    in.expect(',');
    *field = in.real();
  }
}

/// An enum written as its underlying value; `last` is its largest.
template <typename Enum>
Enum read_enum(Reader& in, Enum last) {
  return static_cast<Enum>(in.u64(static_cast<std::uint64_t>(last)));
}

template <typename Enum>
void append_enum(std::string& out, Enum value) {
  append_u64(out, static_cast<std::uint64_t>(value));
}

constexpr std::uint64_t kMaxTaskId =
    std::numeric_limits<workload::TaskId>::max();

}  // namespace

void append_strategy(std::string& out, const strategies::StrategyConfig& s) {
  append_escaped(out, s.name);
  out += ',';
  append_enum(out, s.throughput);
  out += ',';
  append_enum(out, s.tail_mode);
  out += ',';
  append_n(out, s.ntdmr.n);
  append_fields(out, {s.ntdmr.timeout_t, s.ntdmr.deadline_d, s.ntdmr.mr,
                      s.budget_cents});
}

std::string serialize_strategy(const strategies::StrategyConfig& s) {
  std::string out;
  append_strategy(out, s);
  return out;
}

strategies::StrategyConfig parse_strategy(std::string_view text) {
  Reader in(text);
  strategies::StrategyConfig s;
  s.name = unescape(in.until(','));
  in.expect(',');
  s.throughput = read_enum(in, strategies::ThroughputPolicy::Combined);
  in.expect(',');
  s.tail_mode = read_enum(in, strategies::TailMode::BudgetTriggered);
  in.expect(',');
  s.ntdmr.n = read_n(in);
  read_fields(in, {&s.ntdmr.timeout_t, &s.ntdmr.deadline_d, &s.ntdmr.mr,
                   &s.budget_cents});
  in.finish();
  return s;
}

std::string serialize_point(const core::StrategyPoint& p) {
  const core::RunMetrics& m = p.metrics;
  std::string out;
  append_n(out, p.params.n);
  append_fields(out, {p.params.timeout_t, p.params.deadline_d, p.params.mr,
                      p.makespan, p.cost});
  out += m.finished ? ",1" : ",0";
  append_fields(out, {m.makespan, m.t_tail, m.tail_makespan,
                      m.total_cost_cents, m.cost_per_task_cents,
                      m.tail_cost_per_tail_task_cents, m.tail_tasks,
                      m.reliable_instances_sent, m.unreliable_instances_sent,
                      m.duplicate_results, m.used_mr, m.max_reliable_queue,
                      m.max_reliable_queue_fraction});
  return out;
}

core::StrategyPoint parse_point(std::string_view text) {
  Reader in(text);
  core::StrategyPoint p;
  core::RunMetrics& m = p.metrics;
  p.params.n = read_n(in);
  read_fields(in, {&p.params.timeout_t, &p.params.deadline_d, &p.params.mr,
                   &p.makespan, &p.cost});
  in.expect(',');
  m.finished = in.flag();
  read_fields(in, {&m.makespan, &m.t_tail, &m.tail_makespan,
                   &m.total_cost_cents, &m.cost_per_task_cents,
                   &m.tail_cost_per_tail_task_cents, &m.tail_tasks,
                   &m.reliable_instances_sent, &m.unreliable_instances_sent,
                   &m.duplicate_results, &m.used_mr, &m.max_reliable_queue,
                   &m.max_reliable_queue_fraction});
  in.finish();
  return p;
}

std::string serialize_quality(const core::CharacterizationQuality& q) {
  std::string out;
  append_u64(out, q.unreliable_instances);
  out += ',';
  append_u64(out, q.observed_successes);
  append_fields(out, {q.censored_fraction});
  out += ',';
  append_u64(out, q.epoch1_instances);
  out += ',';
  append_u64(out, q.epoch2_instances);
  out += q.sufficient ? ",1" : ",0";
  return out;
}

core::CharacterizationQuality parse_quality(std::string_view text) {
  Reader in(text);
  core::CharacterizationQuality q;
  q.unreliable_instances = static_cast<std::size_t>(in.u64());
  in.expect(',');
  q.observed_successes = static_cast<std::size_t>(in.u64());
  read_fields(in, {&q.censored_fraction});
  in.expect(',');
  q.epoch1_instances = static_cast<std::size_t>(in.u64());
  in.expect(',');
  q.epoch2_instances = static_cast<std::size_t>(in.u64());
  in.expect(',');
  q.sufficient = in.flag();
  in.finish();
  return q;
}

void append_trace(std::string& out, const trace::ExecutionTrace& t) {
  out.reserve(out.size() + kRecordBytesHint * (t.records().size() + 1));
  append_u64(out, t.task_count());
  append_fields(out, {t.t_tail(), t.makespan()});
  out += t.truncated() ? ",1," : ",0,";
  append_u64(out, t.records().size());
  char buf[kMaxRecordChars];
  for (const auto& r : t.records()) {
    char* p = buf;
    *p++ = ';';
    p = write_u64(p, r.task);
    *p++ = ':';
    p = write_u64(p, static_cast<std::uint64_t>(r.pool));
    *p++ = ':';
    p = write_double(p, r.send_time);
    *p++ = ':';
    p = write_double(p, r.turnaround);
    *p++ = ':';
    p = write_u64(p, static_cast<std::uint64_t>(r.outcome));
    *p++ = ':';
    p = write_double(p, r.cost_cents);
    *p++ = ':';
    *p++ = r.tail_phase ? '1' : '0';
    out.append(buf, p);
  }
}

std::string serialize_trace(const trace::ExecutionTrace& t) {
  std::string out;
  append_trace(out, t);
  return out;
}

trace::ExecutionTrace parse_trace(std::string_view text) {
  Reader in(text);
  const auto task_count = static_cast<std::size_t>(in.u64());
  double t_tail = 0.0;
  double completion = 0.0;
  read_fields(in, {&t_tail, &completion});
  in.expect(',');
  const bool truncated = in.flag();
  in.expect(',');
  const std::uint64_t n_records = in.u64();
  // Count the records before sizing anything by the header's claim.
  EXPERT_REQUIRE(in.count(';') == n_records,
                 "serial: history record count mismatch");
  std::vector<trace::InstanceRecord> records(
      static_cast<std::size_t>(n_records));
  for (trace::InstanceRecord& r : records) {
    in.expect(';');
    r.task = static_cast<workload::TaskId>(in.u64(kMaxTaskId));
    in.expect(':');
    r.pool = read_enum(in, trace::PoolKind::Reliable);
    in.expect(':');
    r.send_time = in.real();
    in.expect(':');
    r.turnaround = in.real();
    in.expect(':');
    r.outcome = read_enum(in, trace::InstanceOutcome::OutOfBid);
    in.expect(':');
    r.cost_cents = in.real();
    in.expect(':');
    r.tail_phase = in.flag();
  }
  in.finish();
  return trace::ExecutionTrace(task_count, std::move(records), t_tail,
                               completion, truncated);
}

}  // namespace expert::resilience::serial
