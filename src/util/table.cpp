#include "expert/util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "expert/util/assert.hpp"

namespace expert::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  EXPERT_REQUIRE(!headers_.empty(), "table needs at least one column");
}

Table& Table::add_row(std::vector<std::string> cells) {
  EXPERT_REQUIRE(cells.size() == headers_.size(),
                 "row width must match header width");
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ") << std::left
          << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    out << " |\n";
  };
  auto print_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out << (c == 0 ? "|" : "|") << std::string(widths[c] + 2, '-');
    }
    out << "|\n";
  };

  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string fmt_signed_pct(double fraction, int decimals) {
  std::ostringstream os;
  os << (fraction >= 0 ? "+" : "") << std::fixed
     << std::setprecision(decimals) << fraction * 100.0 << "%";
  return os.str();
}

}  // namespace expert::util
