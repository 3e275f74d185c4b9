#pragma once

#include <cstddef>

namespace expert::stats {

/// Streaming mean/variance accumulator (Welford). Numerically stable for
/// long simulation runs.
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Relative deviation (a - b) / b, the paper's Table V deviation metric.
double relative_deviation(double simulated, double real);

}  // namespace expert::stats
