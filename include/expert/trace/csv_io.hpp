#pragma once

#include <iosfwd>

#include "expert/trace/trace.hpp"

namespace expert::trace {

/// Write a trace as CSV with a header row:
///   task,pool,send_time,turnaround,outcome,cost_cents,tail_phase
/// plus a metadata comment line
/// "#meta,<task_count>,<t_tail>,<completion>,<truncated>".
void write_csv(const ExecutionTrace& trace, std::ostream& out);

/// Parse a trace written by write_csv. Throws std::runtime_error on
/// malformed input; every parse error names the 1-based line of the
/// offending row. Traces written before the truncated flag existed (4-field
/// #meta line) load as non-truncated.
ExecutionTrace read_csv(std::istream& in);

}  // namespace expert::trace
