#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace expert::util {

/// Console table with aligned columns — used by the bench binaries to print
/// paper-style tables. Numeric formatting helpers keep bench code terse.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);
  void print(std::ostream& out) const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision decimal string, e.g. fmt(3.14159, 2) == "3.14".
std::string fmt(double value, int decimals = 2);
/// Percentage with sign, e.g. fmt_pct(0.33) == "+33%".
std::string fmt_signed_pct(double fraction, int decimals = 0);

}  // namespace expert::util
