#include "expert/stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "expert/util/assert.hpp"

namespace expert::stats {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double relative_deviation(double simulated, double real) {
  // EXPERT_LINT_ALLOW(FLT001): exact zero test guards the division below;
  // any nonzero baseline, however small, is a legal denominator.
  EXPERT_REQUIRE(real != 0.0, "relative deviation against zero baseline");
  return (simulated - real) / real;
}

}  // namespace expert::stats
