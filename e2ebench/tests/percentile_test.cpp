#include "e2ebench/src/percentile.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ThousandSamplesResolveP99WithTenBeyond) {
  const auto s = e2e::summarize(one_to(1000), 0);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.p50.value, 500);
  EXPECT_DOUBLE_EQ(s.tail.value, 990);
  EXPECT_EQ(s.tail.beyond, 10u);
  EXPECT_TRUE(s.tail.resolved);
  EXPECT_DOUBLE_EQ(s.reported.value, 990);
}

TEST(Percentile, NineBeyondIsUnresolvedAndSaysSo) {
  const auto s = e2e::summarize(one_to(999), 0);
  EXPECT_DOUBLE_EQ(s.tail.value, 990);  // rank ceil(0.99 * 999) = 990
  EXPECT_EQ(s.tail.beyond, 9u);
  EXPECT_FALSE(s.tail.resolved);
  // The highest percentile with ten samples beyond it stands in.
  EXPECT_DOUBLE_EQ(s.reported.value, 989);
  EXPECT_EQ(s.reported.beyond, 10u);
  const std::string text = s.describe("us");
  EXPECT_NE(text.find("p99 unresolved"), std::string::npos) << text;
  EXPECT_NE(text.find("p98.9"), std::string::npos) << text;
  EXPECT_NE(text.find("n=999"), std::string::npos) << text;
}

TEST(Percentile, FiftyPassesReportTheirEightiethPercentile) {
  const auto s = e2e::summarize(one_to(50), 0);
  EXPECT_FALSE(s.tail.resolved);
  EXPECT_DOUBLE_EQ(s.reported.q, 0.8);
  EXPECT_DOUBLE_EQ(s.reported.value, 40);
  EXPECT_EQ(s.reported.beyond, 10u);
}

TEST(Percentile, TenOrFewerSamplesHaveOnlyAMedian) {
  auto s = e2e::summarize({5.0, 3.0}, 0);
  EXPECT_DOUBLE_EQ(s.p50.value, 3);
  EXPECT_FALSE(s.tail.resolved);
  EXPECT_DOUBLE_EQ(s.reported.value, 3);
  EXPECT_NE(s.describe("s").find("the median"), std::string::npos);
  s = e2e::summarize(one_to(10), 0);
  EXPECT_DOUBLE_EQ(s.reported.value, s.p50.value);
}

TEST(Percentile, FailuresRankBeyondEveryLimit) {
  // 990 answered + 10 failed: the failures are the ten beyond p99.
  auto s = e2e::summarize(one_to(990), 10);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.tail.value, 990);
  EXPECT_EQ(s.tail.beyond, 10u);
  EXPECT_TRUE(s.tail.resolved);

  // 985 answered + 15 failed: the p99 rank lands on a failure.
  s = e2e::summarize(one_to(985), 15);
  EXPECT_TRUE(std::isinf(s.tail.value));
  EXPECT_TRUE(std::isinf(s.reported.value));

  // Failures also push the median up: 10 fast answers, 11 failures.
  s = e2e::summarize(one_to(10), 11);
  EXPECT_TRUE(std::isinf(s.p50.value));
}

TEST(Percentile, DropsCannotImproveTheTail) {
  // Dropping the slowest requests instead of answering them slowly must
  // not lower the reported tail.
  std::vector<double> answered = one_to(990);
  for (int i = 0; i < 10; ++i) answered.push_back(10000);
  const auto slow = e2e::summarize(answered, 0);
  const auto dropped = e2e::summarize(one_to(990), 10);
  EXPECT_GE(dropped.tail.value, slow.tail.value);
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(e2e::median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(e2e::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(e2e::median({}), 0);
}

}  // namespace
