#include "expert/stats/distributions.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "expert/util/assert.hpp"

namespace expert::stats {
namespace {

TEST(TruncatedLognormal, SamplesRespectBounds) {
  const auto dist = TruncatedLognormal::from_stats(1597.0, 1019.0, 3558.0);
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 1019.0);
    ASSERT_LE(x, 3558.0);
  }
}

TEST(TruncatedLognormal, CalibratedMeanMatches) {
  const auto dist = TruncatedLognormal::from_stats(1597.0, 1019.0, 3558.0);
  util::Rng rng(2);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / kN, 1597.0, 1597.0 * 0.02);
}

// Calibration works across the whole Table III range of shapes.
struct StatTriple {
  double mean, lo, hi;
};

class TruncatedLognormalSweep : public ::testing::TestWithParam<StatTriple> {};

TEST_P(TruncatedLognormalSweep, MeanWithinTwoPercent) {
  const auto [mean, lo, hi] = GetParam();
  const auto dist = TruncatedLognormal::from_stats(mean, lo, hi);
  util::Rng rng(3);
  double sum = 0.0;
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / kN, mean, mean * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, TruncatedLognormalSweep,
    ::testing::Values(StatTriple{1597.0, 1019.0, 3558.0},
                      StatTriple{1911.0, 1484.0, 6435.0},
                      StatTriple{2232.0, 1643.0, 4517.0},
                      StatTriple{1571.0, 878.0, 4947.0},
                      StatTriple{1512.0, 729.0, 3534.0},
                      StatTriple{1542.0, 987.0, 3250.0},
                      StatTriple{2066.0, 500.0, 6000.0}));

TEST(TruncatedLognormal, RejectsInvalidRanges) {
  EXPECT_THROW(TruncatedLognormal::from_stats(10.0, 0.0, 20.0),
               util::ContractViolation);
  EXPECT_THROW(TruncatedLognormal::from_stats(10.0, 20.0, 5.0),
               util::ContractViolation);
  EXPECT_THROW(TruncatedLognormal::from_stats(-1.0, 1.0, 5.0),
               util::ContractViolation);
}

TEST(TruncatedLognormal, ScaledIsExactRescaling) {
  const auto unit = TruncatedLognormal::from_stats(1.0, 0.4, 2.5);
  const auto big = unit.scaled(1000.0);
  EXPECT_DOUBLE_EQ(big.lo(), 400.0);
  EXPECT_DOUBLE_EQ(big.hi(), 2500.0);
  EXPECT_DOUBLE_EQ(big.sigma(), unit.sigma());
  // Identical RNG stream: each draw is exactly 1000x the unit draw.
  util::Rng a(5);
  util::Rng b(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(big.sample(a), 1000.0 * unit.sample(b), 1e-9);
  }
  EXPECT_NEAR(big.approximate_mean(), 1000.0, 15.0);
}

TEST(TruncatedLognormal, ScaledRejectsNonPositiveFactor) {
  const auto unit = TruncatedLognormal::from_stats(1.0, 0.4, 2.5);
  EXPECT_THROW(unit.scaled(0.0), util::ContractViolation);
}

TEST(TruncatedLognormal, ApproximateMeanAgreesWithSampling) {
  const auto dist = TruncatedLognormal::from_stats(1000.0, 200.0, 4000.0);
  EXPECT_NEAR(dist.approximate_mean(), 1000.0, 20.0);
}

/// from_stats as it was before its bisection stopped early: always 60
/// steps. approximate_mean() is the same fixed-seed Monte-Carlo mean.
TruncatedLognormal sixty_step_from_stats(double mean, double lo, double hi) {
  const double sigma = std::log(hi / lo) / 4.0;
  double mu_lo = std::log(lo) - 2.0;
  double mu_hi = std::log(hi) + 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (mu_lo + mu_hi);
    if (TruncatedLognormal(mid, sigma, lo, hi).approximate_mean() < mean)
      mu_lo = mid;
    else
      mu_hi = mid;
  }
  return TruncatedLognormal(0.5 * (mu_lo + mu_hi), sigma, lo, hi);
}

TEST(TruncatedLognormal, EarlyStopMatchesTheSixtyStepBisection) {
  // WL1, the service's default tenant BoT and the synthetic Exp-11 model.
  for (const StatTriple& t : {StatTriple{1597.0, 1019.0, 3558.0},
                              StatTriple{1000.0, 400.0, 2500.0},
                              StatTriple{2066.0, 300.0, 6000.0}}) {
    const auto fast = TruncatedLognormal::from_stats(t.mean, t.lo, t.hi);
    const auto frozen = sixty_step_from_stats(t.mean, t.lo, t.hi);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.mu()),
              std::bit_cast<std::uint64_t>(frozen.mu()))
        << "mean " << t.mean;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.sigma()),
              std::bit_cast<std::uint64_t>(frozen.sigma()))
        << "mean " << t.mean;
  }
}

TEST(AvailabilityModel, LongRunAvailability) {
  const auto model = AvailabilityModel::from_availability(0.8, 8000.0);
  EXPECT_NEAR(model.long_run_availability(), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(model.mean_up_seconds, 8000.0);
  EXPECT_NEAR(model.mean_down_seconds, 2000.0, 1e-9);
}

TEST(AvailabilityModel, WeibullUpScalePreservesMean) {
  for (double shape : {0.5, 0.7, 1.0, 2.0}) {
    auto model = AvailabilityModel::from_availability(0.8, 5000.0, shape);
    util::Rng rng(3);
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) sum += model.sample_up(rng);
    EXPECT_NEAR(sum / kN, 5000.0, 5000.0 * 0.03) << "shape " << shape;
  }
}

TEST(AvailabilityModel, ExponentialShapeMatchesPlainExponential) {
  AvailabilityModel model{1000.0, 100.0, 1.0};
  util::Rng a(9);
  util::Rng b(9);
  // shape 1 takes the exponential fast path and must be distributionally
  // identical to a direct exponential draw.
  EXPECT_DOUBLE_EQ(model.sample_up(a), b.exponential(1.0 / 1000.0));
}

TEST(AvailabilityModel, HeavyTailedShapeHasMoreShortUps) {
  // Shape < 1: more mass below the mean (burstier failures).
  util::Rng rng(4);
  AvailabilityModel heavy{1000.0, 100.0, 0.5};
  AvailabilityModel expo{1000.0, 100.0, 1.0};
  int heavy_short = 0, expo_short = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (heavy.sample_up(rng) < 200.0) ++heavy_short;
    if (expo.sample_up(rng) < 200.0) ++expo_short;
  }
  EXPECT_GT(heavy_short, expo_short);
}

TEST(AvailabilityModel, SampleDownZeroWhenNoDowntime) {
  AvailabilityModel model{1000.0, 0.0, 1.0};
  util::Rng rng(5);
  EXPECT_DOUBLE_EQ(model.sample_down(rng), 0.0);
}

TEST(AvailabilityModel, RejectsDegenerateAvailability) {
  EXPECT_THROW(AvailabilityModel::from_availability(0.0, 100.0),
               util::ContractViolation);
  EXPECT_THROW(AvailabilityModel::from_availability(1.0, 100.0),
               util::ContractViolation);
}

}  // namespace
}  // namespace expert::stats
