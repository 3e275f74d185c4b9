#include "expert/trace/csv_io.hpp"

#include <ostream>
#include <stdexcept>
#include <string>

#include "expert/util/csv.hpp"

namespace expert::trace {

namespace {

PoolKind pool_from_string(const std::string& s) {
  if (s == "unreliable") return PoolKind::Unreliable;
  if (s == "reliable") return PoolKind::Reliable;
  throw std::runtime_error("unknown pool '" + s + "'");
}

InstanceOutcome outcome_from_string(const std::string& s) {
  if (s == "success") return InstanceOutcome::Success;
  if (s == "timeout") return InstanceOutcome::Timeout;
  if (s == "cancelled") return InstanceOutcome::Cancelled;
  if (s == "dispatch_failed") return InstanceOutcome::DispatchFailed;
  if (s == "blackout") return InstanceOutcome::Blackout;
  if (s == "out_of_bid") return InstanceOutcome::OutOfBid;
  throw std::runtime_error("unknown outcome '" + s + "'");
}

double parse_turnaround(const std::string& s) {
  if (s == "inf") return kNeverReturns;
  return std::stod(s);
}

/// Parse one data row. Throws std::runtime_error (without location —
/// read_csv attaches the line number) on any malformed field.
InstanceRecord parse_record(const std::vector<std::string>& row) {
  if (row.size() != 7)
    throw std::runtime_error("row has " + std::to_string(row.size()) +
                             " fields, expected 7");
  InstanceRecord r;
  r.task = static_cast<workload::TaskId>(std::stoul(row[0]));
  r.pool = pool_from_string(row[1]);
  r.send_time = std::stod(row[2]);
  r.turnaround = parse_turnaround(row[3]);
  r.outcome = outcome_from_string(row[4]);
  r.cost_cents = std::stod(row[5]);
  r.tail_phase = row[6] == "1";
  return r;
}

[[noreturn]] void fail_at_line(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace csv line " + std::to_string(line) + ": " +
                           what);
}

struct Meta {
  std::size_t task_count = 0;
  double t_tail = 0.0;
  double completion = 0.0;
  bool truncated = false;
};

Meta parse_meta(const std::vector<std::vector<std::string>>& rows) {
  if (rows.size() < 2 || rows[0].empty() || rows[0][0] != "#meta")
    throw std::runtime_error("trace csv line 1: missing #meta line");
  const auto& m = rows[0];
  // 4 fields is the pre-truncation format; 5 adds the truncated flag.
  if (m.size() != 4 && m.size() != 5)
    fail_at_line(1, "#meta has " + std::to_string(m.size()) +
                        " fields, expected 4 or 5");
  Meta meta;
  try {
    meta.task_count = static_cast<std::size_t>(std::stoull(m[1]));
    meta.t_tail = std::stod(m[2]);
    meta.completion = std::stod(m[3]);
    if (m.size() == 5) meta.truncated = m[4] == "1";
  } catch (const std::exception& e) {
    fail_at_line(1, std::string("bad #meta value — ") + e.what());
  }
  return meta;
}

}  // namespace

void write_csv(const ExecutionTrace& trace, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.field(std::string("#meta"))
      .field(static_cast<unsigned long long>(trace.task_count()))
      .field(trace.t_tail())
      .field(trace.makespan())
      .field(static_cast<long long>(trace.truncated() ? 1 : 0));
  csv.end_row();
  csv.row({"task", "pool", "send_time", "turnaround", "outcome", "cost_cents",
           "tail_phase"});
  for (const auto& r : trace.records()) {
    csv.field(static_cast<unsigned long long>(r.task))
        .field(std::string(to_string(r.pool)))
        .field(r.send_time);
    if (r.turnaround == kNeverReturns)
      csv.field(std::string("inf"));
    else
      csv.field(r.turnaround);
    csv.field(std::string(to_string(r.outcome)))
        .field(r.cost_cents)
        .field(static_cast<long long>(r.tail_phase ? 1 : 0));
    csv.end_row();
  }
}

ExecutionTrace read_csv(std::istream& in) {
  const auto rows = util::parse_csv(in);
  const Meta meta = parse_meta(rows);
  std::vector<InstanceRecord> records;
  records.reserve(rows.size() - 2);
  for (std::size_t i = 2; i < rows.size(); ++i) {
    try {
      records.push_back(parse_record(rows[i]));
    } catch (const std::exception& e) {
      fail_at_line(i + 1, e.what());
    }
  }
  return ExecutionTrace(meta.task_count, std::move(records), meta.t_tail,
                        meta.completion, meta.truncated);
}

}  // namespace expert::trace
