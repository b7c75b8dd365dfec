#include "util/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace tint {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.spread(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.spread(), 7.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Percentile, EdgesAndMiddle) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 9.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50), 0.0);
}

}  // namespace
}  // namespace tint
