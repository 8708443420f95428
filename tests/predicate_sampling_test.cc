// §8.3 integration: the two selection-predicate paradigms (pushdown vs
// on-the-fly) must produce the same sampling distribution over the same
// filtered union.

#include <gtest/gtest.h>

#include "core/exact_overlap.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "stats/uniformity.h"
#include "workloads/synthetic.h"
#include "workloads/tpch_workloads.h"

namespace suj {
namespace {

using workloads::MakeRelation;

// A small two-join union with a predicate attribute.
struct PredicateFixture {
  std::vector<JoinSpecPtr> pushdown_joins;
  std::vector<JoinSpecPtr> lazy_joins;
};

PredicateFixture MakeFixture() {
  auto r0 = MakeRelation("R0", {"A", "B"},
                         {{1, 10}, {2, 10}, {3, 20}, {4, 20}, {5, 30}})
                .value();
  auto s0 = MakeRelation("S0", {"B", "C"},
                         {{10, 1}, {10, 2}, {20, 3}, {30, 4}})
                .value();
  auto r1 = MakeRelation("R1", {"A", "B"},
                         {{1, 10}, {3, 20}, {6, 20}, {7, 30}})
                .value();
  auto s1 = MakeRelation("S1", {"B", "C"},
                         {{10, 1}, {20, 3}, {20, 5}, {30, 4}})
                .value();
  std::vector<Predicate> preds = {
      Predicate("A", CompareOp::kLe, Value::Int64(5)),
      Predicate("C", CompareOp::kNe, Value::Int64(4))};

  PredicateFixture f;
  // Pushdown: filter the base relations before building the joins.
  auto fr0 = FilterRelation(r0, preds).value();
  auto fs0 = FilterRelation(s0, preds).value();
  auto fr1 = FilterRelation(r1, preds).value();
  auto fs1 = FilterRelation(s1, preds).value();
  f.pushdown_joins = {JoinSpec::Create("J0", {fr0, fs0}).value(),
                      JoinSpec::Create("J1", {fr1, fs1}).value()};
  // On-the-fly: unfiltered relations, predicates on the join outputs.
  f.lazy_joins = {JoinSpec::Create("J0", {r0, s0}, {}, preds).value(),
                  JoinSpec::Create("J1", {r1, s1}, {}, preds).value()};
  return f;
}

std::vector<Tuple> SampleUnion(const std::vector<JoinSpecPtr>& joins,
                               size_t n, uint64_t seed) {
  auto exact = ExactOverlapCalculator::Create(joins).value();
  auto estimates = ComputeUnionEstimates(exact.get()).value();
  CompositeIndexCache cache;
  std::vector<std::unique_ptr<JoinSampler>> samplers;
  for (const auto& join : joins) {
    samplers.push_back(ExactWeightSampler::Create(join, &cache).value());
  }
  auto probers = BuildProbers(joins).value();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  auto sampler = UnionSampler::Create(joins, std::move(samplers), estimates,
                                      probers, opts)
                     .value();
  Rng rng(seed);
  return sampler->Sample(n, rng).value();
}

TEST(PredicateSamplingTest, ParadigmsShareTheFilteredUniverse) {
  PredicateFixture f = MakeFixture();
  auto exact_pushdown =
      ExactOverlapCalculator::Create(f.pushdown_joins).value();
  auto exact_lazy = ExactOverlapCalculator::Create(f.lazy_joins).value();
  ASSERT_GT(exact_pushdown->UnionSize(), 2u);
  // Identical filtered result sets.
  EXPECT_EQ(exact_pushdown->UnionSize(), exact_lazy->UnionSize());
  for (const auto& [enc, mask] : exact_pushdown->membership()) {
    auto it = exact_lazy->membership().find(enc);
    ASSERT_NE(it, exact_lazy->membership().end());
    EXPECT_EQ(mask, it->second);
  }
}

// The membership oracle applies the join's output predicates: (A=5, B=30,
// C=4) has its projection in both R0 and S0, but fails C != 4.
TEST(PredicateSamplingTest, ProberRejectsTupleFailingOutputPredicate) {
  PredicateFixture f = MakeFixture();
  const JoinSpecPtr& lazy = f.lazy_joins[0];
  auto unfiltered =
      JoinSpec::Create("J0_all", lazy->relations()).value();  // no predicate
  ASSERT_EQ(unfiltered->output_schema(), lazy->output_schema());
  auto with_predicate = JoinMembershipProber::Build(lazy).value();
  auto without_predicate = JoinMembershipProber::Build(unfiltered).value();

  const Tuple failing({Value::Int64(5), Value::Int64(30), Value::Int64(4)});
  EXPECT_TRUE(without_predicate->Contains(failing));
  EXPECT_FALSE(lazy->SatisfiesPredicates(failing));
  EXPECT_FALSE(with_predicate->Contains(failing));

  const Tuple passing({Value::Int64(1), Value::Int64(10), Value::Int64(1)});
  EXPECT_TRUE(with_predicate->Contains(passing));
  EXPECT_TRUE(without_predicate->Contains(passing));
}

TEST(PredicateSamplingTest, BothParadigmsSampleUniformly) {
  PredicateFixture f = MakeFixture();
  auto exact = ExactOverlapCalculator::Create(f.pushdown_joins).value();
  size_t u = exact->UnionSize();
  size_t n = 50 * u;

  auto pushdown_samples = SampleUnion(f.pushdown_joins, n, 301);
  auto lazy_samples = SampleUnion(f.lazy_joins, n, 302);

  auto v1 = ChiSquareUniformityTest(pushdown_samples, u);
  auto v2 = ChiSquareUniformityTest(lazy_samples, u);
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_TRUE(v1->ConsistentWithUniform(1e-6)) << "pushdown";
  EXPECT_TRUE(v2->ConsistentWithUniform(1e-6)) << "on-the-fly";
  // Every lazy sample satisfies the predicates.
  const Schema& schema = f.lazy_joins[0]->output_schema();
  int a = schema.FieldIndex("A"), c = schema.FieldIndex("C");
  for (const auto& t : lazy_samples) {
    ASSERT_LE(t.value(a).int64(), 5);
    ASSERT_NE(t.value(c).int64(), 4);
  }
}

TEST(PredicateSamplingTest, OnTheFlyCostsMoreRejections) {
  // The on-the-fly paradigm pays an extra rejection factor (§8.3).
  PredicateFixture f = MakeFixture();
  CompositeIndexCache cache;
  auto lazy_sampler =
      ExactWeightSampler::Create(f.lazy_joins[0], &cache).value();
  auto pushdown_sampler =
      ExactWeightSampler::Create(f.pushdown_joins[0], &cache).value();
  Rng rng(303);
  for (int i = 0; i < 2000; ++i) {
    lazy_sampler->TrySample(rng);
    pushdown_sampler->TrySample(rng);
  }
  EXPECT_GT(lazy_sampler->stats().rejections,
            pushdown_sampler->stats().rejections);
}

TEST(PredicateSamplingTest, UQ2OnTheFlySamplingWorks) {
  tpch::TpchConfig config;
  config.scale_factor = 0.2;
  auto lazy = workloads::BuildUQ2(config, /*pushdown=*/false).value();
  auto exact = ExactOverlapCalculator::Create(lazy.joins).value();
  if (exact->UnionSize() == 0) GTEST_SKIP() << "empty filtered union";
  auto estimates = ComputeUnionEstimates(exact.get()).value();
  CompositeIndexCache cache;
  std::vector<std::unique_ptr<JoinSampler>> samplers;
  for (const auto& join : lazy.joins) {
    samplers.push_back(ExactWeightSampler::Create(join, &cache).value());
  }
  auto probers = BuildProbers(lazy.joins).value();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  auto sampler = UnionSampler::Create(lazy.joins, std::move(samplers),
                                      estimates, probers, opts)
                     .value();
  Rng rng(304);
  auto samples = sampler->Sample(1000, rng);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  for (const auto& t : *samples) {
    ASSERT_TRUE(exact->membership().count(t.Encode()));
  }
}

}  // namespace
}  // namespace suj
