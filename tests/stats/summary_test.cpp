#include "expert/stats/summary.hpp"

#include <gtest/gtest.h>

#include "expert/util/assert.hpp"

namespace expert::stats {
namespace {

TEST(Accumulator, MeanAndVariance) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.add(42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, StableForLargeOffsets) {
  Accumulator acc;
  for (int i = 0; i < 10000; ++i) acc.add(1.0e9 + (i % 2));
  EXPECT_NEAR(acc.mean(), 1.0e9 + 0.5, 1e-3);
  EXPECT_NEAR(acc.variance(), 0.25, 1e-3);
}

TEST(RelativeDeviation, MatchesTableVConvention) {
  EXPECT_NEAR(relative_deviation(108.0, 100.0), 0.08, 1e-12);
  EXPECT_NEAR(relative_deviation(96.0, 100.0), -0.04, 1e-12);
  EXPECT_THROW(relative_deviation(1.0, 0.0), util::ContractViolation);
}

}  // namespace
}  // namespace expert::stats
