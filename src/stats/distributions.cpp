#include "expert/stats/distributions.hpp"

#include <cmath>

#include "expert/util/assert.hpp"

namespace expert::stats {

namespace {

double truncated_mean(double mu, double sigma, double lo, double hi) {
  // Monte-Carlo with a fixed seed, using the same rejection scheme as
  // sample() so the calibrated mean matches what sampling produces.
  // EXPERT_LINT_ALLOW(RNG001): the fixed seed is the point — this is a
  // calibration constant that must be identical across every run and user
  // seed, not a simulation stream.
  util::Rng rng(0xec0ffeeULL);
  constexpr int kAccepted = 100'000;
  constexpr int kMaxDraws = 20 * kAccepted;
  double sum = 0.0;
  int accepted = 0;
  for (int i = 0; i < kMaxDraws && accepted < kAccepted; ++i) {
    const double x = rng.lognormal(mu, sigma);
    if (x < lo || x > hi) continue;
    sum += x;
    ++accepted;
  }
  if (accepted == 0) {
    // Degenerate parameters: everything rejects; report the nearer bound.
    return std::exp(mu) < lo ? lo : hi;
  }
  return sum / accepted;
}

}  // namespace

TruncatedLognormal::TruncatedLognormal(double mu, double sigma, double lo,
                                       double hi)
    : mu_(mu), sigma_(sigma), lo_(lo), hi_(hi) {
  EXPERT_REQUIRE(lo > 0.0, "truncation bounds must be positive");
  EXPERT_REQUIRE(hi > lo, "upper bound must exceed lower bound");
  EXPERT_REQUIRE(sigma > 0.0, "sigma must be positive");
}

TruncatedLognormal TruncatedLognormal::from_stats(double mean, double lo,
                                                  double hi) {
  EXPERT_REQUIRE(lo > 0.0 && hi > lo, "invalid [lo, hi] range");
  EXPERT_REQUIRE(mean > 0.0, "mean must be positive");
  // Observed extremes sit at roughly +-2 sigma of the log-space spread.
  const double sigma = std::log(hi / lo) / 4.0;
  // Bisect mu so that the truncated mean matches the target. The truncated
  // mean is monotone increasing in mu.
  double mu_lo = std::log(lo) - 2.0;
  double mu_hi = std::log(hi) + 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (mu_lo + mu_hi);
    double& bound = truncated_mean(mid, sigma, lo, hi) < mean ? mu_lo : mu_hi;
    // A step that leaves both bounds unchanged repeats exactly in every
    // later step (the Monte-Carlo mean has a fixed seed), so stopping here
    // returns the 60-step result.
    if (bound == mid) break;
    bound = mid;
  }
  return TruncatedLognormal(0.5 * (mu_lo + mu_hi), sigma, lo, hi);
}

double TruncatedLognormal::sample(util::Rng& rng) const {
  // Rejection sampling with a clamp fallback: calibrated parameters keep the
  // acceptance rate high, so the loop almost always exits immediately.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = rng.lognormal(mu_, sigma_);
    if (x >= lo_ && x <= hi_) return x;
  }
  const double x = rng.lognormal(mu_, sigma_);
  return x < lo_ ? lo_ : (x > hi_ ? hi_ : x);
}

double TruncatedLognormal::approximate_mean() const {
  return truncated_mean(mu_, sigma_, lo_, hi_);
}

TruncatedLognormal TruncatedLognormal::scaled(double factor) const {
  EXPERT_REQUIRE(factor > 0.0, "scale factor must be positive");
  return TruncatedLognormal(mu_ + std::log(factor), sigma_, lo_ * factor,
                            hi_ * factor);
}

double AvailabilityModel::up_scale() const {
  EXPERT_REQUIRE(up_shape > 0.0, "Weibull shape must be positive");
  // mean = scale * Gamma(1 + 1/shape)  =>  scale = mean / Gamma(1 + 1/shape)
  return mean_up_seconds / std::tgamma(1.0 + 1.0 / up_shape);
}

double AvailabilityModel::sample_up(util::Rng& rng) const {
  // EXPERT_LINT_ALLOW(FLT001): exact dispatch on the preset constant 1.0
  // (Weibull(1) == exponential); a tolerance would silently change which
  // sampler nearby shapes draw from and break replay of stored presets.
  if (up_shape == 1.0) return rng.exponential(1.0 / mean_up_seconds);
  return rng.weibull(up_shape, up_scale());
}

double AvailabilityModel::sample_down(util::Rng& rng) const {
  if (mean_down_seconds <= 0.0) return 0.0;
  return rng.exponential(1.0 / mean_down_seconds);
}

AvailabilityModel AvailabilityModel::from_availability(double availability,
                                                       double mean_up_seconds,
                                                       double up_shape) {
  EXPERT_REQUIRE(availability > 0.0 && availability < 1.0,
                 "availability must be in (0,1)");
  EXPERT_REQUIRE(mean_up_seconds > 0.0, "mean up-time must be positive");
  EXPERT_REQUIRE(up_shape > 0.0, "Weibull shape must be positive");
  const double mean_down =
      mean_up_seconds * (1.0 - availability) / availability;
  return AvailabilityModel{mean_up_seconds, mean_down, up_shape};
}

}  // namespace expert::stats
