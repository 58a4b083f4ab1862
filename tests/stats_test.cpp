// SPDX-License-Identifier: MIT
//
// Statistics module tests: Welford moments, quantiles, summaries, z-test,
// regression.
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "rand/rng.hpp"
#include "stats/online.hpp"
#include "stats/quantile.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "stats/ztest.hpp"

namespace cobra {
namespace {

TEST(OnlineStatsTest, MeanAndVariance) {
  OnlineStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_NEAR(stats.mean(), 5.0, 1e-12);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats stats;
  stats.add(3.5);
  EXPECT_EQ(stats.mean(), 3.5);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  OnlineStats left;
  OnlineStats right;
  OnlineStats all;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 10;
    if (i % 2) {
      left.add(v);
    } else {
      right.add(v);
    }
    all.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(Quantile, MedianOddEven) {
  EXPECT_NEAR(quantile({1, 2, 3, 4, 5}, 0.5), 3.0, 1e-12);
  EXPECT_NEAR(quantile({1, 2, 3, 4}, 0.5), 2.5, 1e-12);
}

TEST(Quantile, Extremes) {
  const std::vector<double> values{5, 1, 3, 2, 4};
  EXPECT_EQ(quantile(values, 0.0), 1.0);
  EXPECT_EQ(quantile(values, 1.0), 5.0);
}

TEST(Quantile, InterpolatesType7) {
  // numpy.quantile([1,2,3,4], 0.75) == 3.25
  EXPECT_NEAR(quantile({1, 2, 3, 4}, 0.75), 3.25, 1e-12);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(SummaryTest, FieldsConsistent) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 50.5, 1e-12);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 0.2);
  EXPECT_GT(s.p99, s.p90);
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(ZTest, IdenticalProportionsGiveZeroZ) {
  const auto result = two_proportion_ztest(50, 100, 500, 1000);
  EXPECT_NEAR(result.z, 0.0, 1e-12);
  EXPECT_NEAR(result.p_value, 1.0, 1e-12);
}

TEST(ZTest, AllZeroOrAllOne) {
  EXPECT_NEAR(two_proportion_ztest(0, 100, 0, 100).p_value, 1.0, 1e-12);
  EXPECT_NEAR(two_proportion_ztest(100, 100, 100, 100).p_value, 1.0, 1e-12);
}

TEST(ZTest, LargeDifferenceIsSignificant) {
  const auto result = two_proportion_ztest(90, 100, 10, 100);
  EXPECT_GT(std::fabs(result.z), 5.0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(ZTest, KnownValue) {
  // p1=0.6 (60/100), p2=0.5 (50/100): pooled=0.55,
  // se=sqrt(0.55*0.45*0.02)=0.070356, z=1.4213.
  const auto result = two_proportion_ztest(60, 100, 50, 100);
  EXPECT_NEAR(result.z, 1.4213, 1e-3);
}

TEST(ZTest, RejectsBadInput) {
  EXPECT_THROW(two_proportion_ztest(1, 0, 1, 2), std::invalid_argument);
  EXPECT_THROW(two_proportion_ztest(5, 2, 1, 2), std::invalid_argument);
}

TEST(Regression, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Regression, NoisyLineHighR2) {
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0 + (rng.next_double() - 0.5));
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(Regression, SemilogRecoversLogCoefficient) {
  // y = 5 ln(x) + 2
  std::vector<double> x;
  std::vector<double> y;
  for (double v = 10; v <= 100000; v *= 10) {
    x.push_back(v);
    y.push_back(5.0 * std::log(v) + 2.0);
  }
  const auto fit = fit_semilogx(x, y);
  EXPECT_NEAR(fit.slope, 5.0, 1e-10);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
}

TEST(Regression, LoglogRecoversExponent) {
  // y = 3 x^0.5
  std::vector<double> x;
  std::vector<double> y;
  for (double v = 4; v <= 4096; v *= 2) {
    x.push_back(v);
    y.push_back(3.0 * std::sqrt(v));
  }
  const auto fit = fit_loglog(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 1e-10);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
}

TEST(Regression, RejectsBadInput) {
  EXPECT_THROW(fit_linear(std::vector<double>{1},
                          std::vector<double>{2}),
               std::invalid_argument);
  EXPECT_THROW(fit_linear(std::vector<double>{1, 1},
                          std::vector<double>{2, 3}),
               std::invalid_argument);
  EXPECT_THROW(fit_loglog(std::vector<double>{-1, 2},
                          std::vector<double>{1, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cobra
