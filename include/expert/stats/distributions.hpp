#pragma once

#include "expert/util/rng.hpp"

namespace expert::stats {

/// Lognormal truncated to [lo, hi], calibrated so that the *truncated*
/// distribution has (approximately) a requested mean. Used to synthesize
/// task CPU times matching the per-workload (mean, min, max) statistics the
/// paper publishes in Table III.
class TruncatedLognormal {
 public:
  /// Direct construction from log-space parameters and bounds.
  TruncatedLognormal(double mu, double sigma, double lo, double hi);

  /// Calibrate to observed statistics: lo/hi become the truncation bounds
  /// (treated as the observed extremes), sigma spans the [lo, hi] range at
  /// roughly +-2 sigma in log space, and mu is then adjusted by bisection so
  /// the truncated mean matches `mean`.
  static TruncatedLognormal from_stats(double mean, double lo, double hi);

  double sample(util::Rng& rng) const;
  /// Monte-Carlo estimate of the truncated mean (deterministic seed).
  double approximate_mean() const;

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

 private:
  double mu_;
  double sigma_;
  double lo_;
  double hi_;
};

/// Two-state availability process: a machine alternates between UP periods
/// and DOWN periods (exponential, mean `mean_down`). Up periods are
/// Weibull with shape `up_shape` and mean `mean_up_seconds` (shape 1 =
/// exponential; shape < 1 reproduces the heavy-tailed, bursty failures the
/// Failure Trace Archive literature reports for desktop grids). Long-run
/// availability = mean_up / (mean_up + mean_down).
struct AvailabilityModel {
  double mean_up_seconds;
  double mean_down_seconds;
  double up_shape = 1.0;

  double long_run_availability() const noexcept {
    return mean_up_seconds / (mean_up_seconds + mean_down_seconds);
  }

  /// Weibull scale parameter yielding the requested mean up-time.
  double up_scale() const;

  /// Draw one up-period duration.
  double sample_up(util::Rng& rng) const;
  /// Draw one down-period duration (0 when mean_down is 0).
  double sample_down(util::Rng& rng) const;
};

}  // namespace expert::stats
