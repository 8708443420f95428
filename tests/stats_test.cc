// Tests for stats/: histograms, running stats, HT estimation, CIs.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "stats/column_histogram.h"
#include "stats/estimators.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeRelation;

TEST(ColumnHistogramTest, DegreesAndSummary) {
  auto rel =
      MakeRelation("r", {"a"}, {{1}, {1}, {2}, {3}, {3}, {3}}).value();
  auto hist = ColumnHistogram::Build(rel, "a");
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ((*hist)->Degree(Value::Int64(1)), 2u);
  EXPECT_EQ((*hist)->Degree(Value::Int64(3)), 3u);
  EXPECT_EQ((*hist)->Degree(Value::Int64(9)), 0u);
  EXPECT_EQ((*hist)->MaxDegree(), 3u);
  EXPECT_EQ((*hist)->NumDistinct(), 3u);
  EXPECT_EQ((*hist)->NumRows(), 6u);
  EXPECT_DOUBLE_EQ((*hist)->AvgDegree(), 2.0);
}

TEST(ColumnHistogramTest, MissingAttributeFails) {
  auto rel = MakeRelation("r", {"a"}, {{1}}).value();
  EXPECT_FALSE(ColumnHistogram::Build(rel, "b").ok());
}

TEST(HistogramCatalogTest, CachesAndNameLookup) {
  HistogramCatalog catalog;
  auto rel = MakeRelation("r", {"a"}, {{1}, {2}}).value();
  auto h1 = catalog.GetOrBuild(rel, "a");
  auto h2 = catalog.GetOrBuild(rel, "a");
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(h1.value().get(), h2.value().get());
  auto by_name = catalog.Get("r", "a");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name.value().get(), h1.value().get());
  EXPECT_FALSE(catalog.Get("r", "zz").ok());
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  RunningStats stats;
  std::vector<double> xs = {1.0, 4.0, 9.0, 16.0, 25.0};
  for (double x : xs) stats.Add(x);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 11.0);
  // Unbiased sample variance: sum((x - 11)^2) / 4 = (100+49+4+25+196)/4.
  EXPECT_DOUBLE_EQ(stats.variance(), 374.0 / 4.0);
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  Rng rng(11);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    double x = rng.UniformDouble() * 10;
    a.Add(x);
    all.Add(x);
  }
  for (int i = 0; i < 300; ++i) {
    double x = rng.Gaussian();
    b.Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStatsTest, DegenerateCases) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(ZCriticalTest, StandardLevels) {
  EXPECT_NEAR(ZCritical(0.90), 1.6449, 1e-3);
  EXPECT_NEAR(ZCritical(0.95), 1.9600, 1e-3);
  EXPECT_NEAR(ZCritical(0.99), 2.5758, 1e-3);
}

TEST(ConfidenceTest, HalfWidthShrinksWithSamples) {
  Rng rng(12);
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.Add(rng.Gaussian());
  double hw100 = ConfidenceHalfWidth(s, 0.95);
  for (int i = 0; i < 9900; ++i) s.Add(rng.Gaussian());
  double hw10000 = ConfidenceHalfWidth(s, 0.95);
  EXPECT_LT(hw10000, hw100);
  EXPECT_NEAR(hw10000 * std::sqrt(10000.0 / 100.0), hw100, hw100 * 0.5);
}

TEST(ConfidenceTest, InfiniteWithoutData) {
  RunningStats s;
  EXPECT_TRUE(std::isinf(ConfidenceHalfWidth(s, 0.9)));
  s.Add(1.0);
  EXPECT_TRUE(std::isinf(ConfidenceHalfWidth(s, 0.9)));
}

TEST(HorvitzThompsonTest, UnbiasedOnKnownPopulation) {
  // Population of 1000 items sampled with per-item probability p_i
  // proportional to (i % 5 + 1); the HT estimate of the population size
  // must converge to 1000.
  const int population = 1000;
  std::vector<double> weights(population);
  double total_weight = 0;
  for (int i = 0; i < population; ++i) {
    weights[i] = static_cast<double>(i % 5 + 1);
    total_weight += weights[i];
  }
  Rng rng(13);
  HorvitzThompsonEstimator ht;
  for (int draw = 0; draw < 50000; ++draw) {
    size_t item = rng.Categorical(weights);
    ht.AddSuccess(weights[item] / total_weight);
  }
  EXPECT_NEAR(ht.Estimate(), population, population * 0.03);
}

TEST(HorvitzThompsonTest, FailuresLowerTheEstimate) {
  HorvitzThompsonEstimator ht;
  for (int i = 0; i < 50; ++i) ht.AddSuccess(0.01);  // each contributes 100
  EXPECT_DOUBLE_EQ(ht.Estimate(), 100.0);
  for (int i = 0; i < 50; ++i) ht.AddFailure();
  EXPECT_DOUBLE_EQ(ht.Estimate(), 50.0);
  EXPECT_EQ(ht.num_draws(), 100u);
}

TEST(HorvitzThompsonTest, RelativeHalfWidth) {
  HorvitzThompsonEstimator ht;
  EXPECT_TRUE(std::isinf(ht.RelativeHalfWidth(0.9)));
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) {
    ht.AddSuccess(0.009 + 0.002 * rng.UniformDouble());
  }
  EXPECT_LT(ht.RelativeHalfWidth(0.9), 0.05);
}

}  // namespace
}  // namespace suj
