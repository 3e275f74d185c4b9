#include "expert/core/frontier_io.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "expert/util/atomic_write.hpp"
#include "expert/util/csv.hpp"

namespace expert::core {

namespace {

const std::vector<std::string> kHeader = {
    "n",
    "t_s",
    "d_s",
    "mr",
    "makespan_s",
    "cost_cents",
    "bot_makespan_s",
    "t_tail_s",
    "tail_tasks",
    "total_cost_cents",
    "reliable_instances",
    "unreliable_instances",
    "used_mr",
    "max_reliable_queue",
};

}  // namespace

void write_points_csv(const std::vector<StrategyPoint>& points,
                      std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row(kHeader);
  for (const auto& p : points) {
    if (p.params.n.has_value()) {
      csv.field(static_cast<unsigned long long>(*p.params.n));
    } else {
      csv.field(std::string("inf"));
    }
    csv.field(p.params.timeout_t)
        .field(p.params.deadline_d)
        .field(p.params.mr)
        .field(p.makespan)
        .field(p.cost)
        .field(p.metrics.makespan)
        .field(p.metrics.t_tail)
        .field(p.metrics.tail_tasks)
        .field(p.metrics.total_cost_cents)
        .field(p.metrics.reliable_instances_sent)
        .field(p.metrics.unreliable_instances_sent)
        .field(p.metrics.used_mr)
        .field(p.metrics.max_reliable_queue);
    csv.end_row();
  }
}

std::vector<StrategyPoint> read_points_csv(std::istream& in) {
  const auto rows = util::parse_csv(in);
  if (rows.empty() || rows[0] != kHeader)
    throw std::runtime_error("frontier csv: missing or wrong header");
  std::vector<StrategyPoint> points;
  points.reserve(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != kHeader.size())
      throw std::runtime_error("frontier csv: bad row width");
    StrategyPoint p;
    if (row[0] == "inf") {
      p.params.n.reset();
    } else {
      p.params.n = static_cast<unsigned>(std::stoul(row[0]));
    }
    p.params.timeout_t = std::stod(row[1]);
    p.params.deadline_d = std::stod(row[2]);
    p.params.mr = std::stod(row[3]);
    p.makespan = std::stod(row[4]);
    p.cost = std::stod(row[5]);
    p.metrics.finished = true;
    p.metrics.makespan = std::stod(row[6]);
    p.metrics.t_tail = std::stod(row[7]);
    p.metrics.tail_makespan = p.metrics.makespan - p.metrics.t_tail;
    p.metrics.tail_tasks = std::stod(row[8]);
    p.metrics.total_cost_cents = std::stod(row[9]);
    p.metrics.reliable_instances_sent = std::stod(row[10]);
    p.metrics.unreliable_instances_sent = std::stod(row[11]);
    p.metrics.used_mr = std::stod(row[12]);
    p.metrics.max_reliable_queue = std::stod(row[13]);
    points.push_back(p);
  }
  return points;
}

void write_points_csv_file(const std::vector<StrategyPoint>& points,
                           const std::string& path) {
  std::ostringstream os;
  write_points_csv(points, os);
  util::atomic_write(path, os.str());
}

}  // namespace expert::core
