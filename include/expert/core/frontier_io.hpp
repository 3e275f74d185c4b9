#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "expert/core/pareto.hpp"

namespace expert::core {

/// Persistence for evaluated strategy points. The paper notes that "once
/// created, the same frontier can be used by different users with
/// different utility functions" — these helpers let a frontier outlive the
/// process that computed it.
///
/// CSV schema (header included):
///   n,t_s,d_s,mr,makespan_s,cost_cents,
///   bot_makespan_s,t_tail_s,tail_tasks,total_cost_cents,
///   reliable_instances,unreliable_instances,used_mr,max_reliable_queue
/// `n` is an integer or "inf".
void write_points_csv(const std::vector<StrategyPoint>& points,
                      std::ostream& out);

/// Parse points written by write_points_csv. Throws std::runtime_error on
/// malformed input.
std::vector<StrategyPoint> read_points_csv(std::istream& in);

/// File-path convenience over write_points_csv, landing the CSV through
/// util::atomic_write so a crash never leaves a truncated frontier file.
void write_points_csv_file(const std::vector<StrategyPoint>& points,
                           const std::string& path);

}  // namespace expert::core
