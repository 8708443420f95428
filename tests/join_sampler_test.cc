// Tests for the uniform join samplers: exact-weight (EW) and extended
// Olken (EO), across chain / acyclic / cyclic joins.

#include <gtest/gtest.h>

#include <map>

#include "join/exact_weight.h"
#include "join/full_join.h"
#include "join/join_size_bound.h"
#include "join/olken_sampler.h"
#include "test_util.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeRelation;
using workloads::MakeStarJoin;
using workloads::MakeTriangleJoin;

// Draws `n` samples and chi-square-tests them against the uniform
// distribution over the join's exact result.
void ExpectUniform(JoinSampler* sampler, const JoinSpecPtr& join, size_t n,
                   uint64_t seed) {
  FullJoinExecutor executor;
  auto full = executor.Execute(join);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 0u);

  Rng rng(seed);
  std::vector<Tuple> samples;
  for (size_t i = 0; i < n; ++i) {
    auto t = sampler->Sample(rng);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    samples.push_back(std::move(t).value());
  }
  auto counts = testing::CountByValue(samples);
  // Every sampled tuple must be a genuine result tuple.
  std::set<std::string> universe;
  for (const auto& t : full->tuples) universe.insert(t.Encode());
  for (const auto& [key, c] : counts) {
    ASSERT_TRUE(universe.count(key)) << "sampler produced a non-result tuple";
  }
  double chi2 = testing::ChiSquareUniform(counts, universe.size(), n);
  EXPECT_LT(chi2, testing::ChiSquareThreshold(universe.size() - 1));
}

JoinSpecPtr SmallChain() {
  auto r = MakeRelation("r", {"a", "b"},
                        {{1, 10}, {2, 10}, {3, 20}, {4, 30}, {5, 20}})
               .value();
  auto s = MakeRelation("s", {"b", "c"},
                        {{10, 1}, {10, 2}, {20, 3}, {40, 4}, {10, 5}})
               .value();
  auto t = MakeRelation("t", {"c", "d"},
                        {{1, 7}, {2, 7}, {3, 7}, {3, 8}, {5, 9}})
               .value();
  return JoinSpec::Create("chain", {r, s, t}).value();
}

TEST(ExactWeightTest, TotalWeightEqualsJoinSizeOnChain) {
  auto join = SmallChain();
  CompositeIndexCache cache;
  auto index = ExactWeightIndex::Build(join, &cache);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->exact());
  FullJoinExecutor executor;
  auto count = executor.Count(join);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ((*index)->TotalWeight(), static_cast<double>(*count));
}

TEST(ExactWeightTest, TotalWeightEqualsJoinSizeOnStar) {
  auto join = MakeStarJoin(14, 21).value();
  CompositeIndexCache cache;
  auto index = ExactWeightIndex::Build(join, &cache);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->exact());
  FullJoinExecutor executor;
  auto count = executor.Count(join);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ((*index)->TotalWeight(), static_cast<double>(*count));
}

TEST(ExactWeightTest, TriangleWeightIsUpperBound) {
  auto join = MakeTriangleJoin(18, 4).value();
  CompositeIndexCache cache;
  auto index = ExactWeightIndex::Build(join, &cache);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->exact());
  FullJoinExecutor executor;
  auto count = executor.Count(join);
  ASSERT_TRUE(count.ok());
  EXPECT_GE((*index)->TotalWeight(), static_cast<double>(*count));
}

TEST(ExactWeightSamplerTest, UniformOnChainNoRejections) {
  auto join = SmallChain();
  CompositeIndexCache cache;
  auto sampler = ExactWeightSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  ExpectUniform(sampler->get(), join, 30000, 100);
  EXPECT_EQ((*sampler)->stats().rejections, 0u);
  EXPECT_EQ((*sampler)->stats().dead_ends, 0u);
}

TEST(ExactWeightSamplerTest, UniformOnStar) {
  auto join = MakeStarJoin(12, 22).value();
  CompositeIndexCache cache;
  auto sampler = ExactWeightSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  ExpectUniform(sampler->get(), join, 30000, 101);
  EXPECT_EQ((*sampler)->stats().rejections, 0u);
}

TEST(ExactWeightSamplerTest, UniformOnTriangleWithRejections) {
  auto join = MakeTriangleJoin(20, 5).value();
  FullJoinExecutor executor;
  auto count = executor.Count(join);
  ASSERT_TRUE(count.ok() && *count > 0) << "need a non-empty triangle";
  CompositeIndexCache cache;
  auto sampler = ExactWeightSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  ExpectUniform(sampler->get(), join, 20000, 102);
}

TEST(ExactWeightSamplerTest, EmptyJoin) {
  auto r = MakeRelation("r", {"a", "b"}, {{1, 1}}).value();
  auto s = MakeRelation("s", {"b", "c"}, {{2, 2}}).value();
  auto join = JoinSpec::Create("empty", {r, s}).value();
  CompositeIndexCache cache;
  auto sampler = ExactWeightSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  EXPECT_TRUE((*sampler)->IsEmpty());
  Rng rng(1);
  EXPECT_FALSE((*sampler)->Sample(rng).ok());
}

TEST(ExactWeightSamplerTest, PredicateRejectionKeepsUniformity) {
  auto r = MakeRelation("r", {"a", "b"},
                        {{1, 10}, {2, 10}, {3, 20}, {4, 20}})
               .value();
  auto s = MakeRelation("s", {"b", "c"}, {{10, 1}, {20, 2}, {20, 3}}).value();
  auto join = JoinSpec::Create(
                  "j", {r, s}, {},
                  {Predicate("a", CompareOp::kGe, Value::Int64(2))})
                  .value();
  CompositeIndexCache cache;
  auto sampler = ExactWeightSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  EXPECT_FALSE((*sampler)->weight_index()->exact());
  ExpectUniform(sampler->get(), join, 20000, 103);
  EXPECT_GT((*sampler)->stats().rejections, 0u);
}

// True iff some tree edge probes an attribute whose first assigner in tree
// order is not the child's tree parent: the descent then probes with the
// parent's value, which only the parent's materialization check ties to
// the assigned one.
bool ProbesFromNonFirstAssigner(const JoinSpec& join) {
  const JoinGraph& graph = join.graph();
  std::map<std::string, int> first_assigner;
  for (int r : graph.tree_order()) {
    for (const auto& f : join.relation(r)->schema().fields()) {
      first_assigner.emplace(f.name, r);
    }
  }
  for (int r : graph.tree_order()) {
    const int parent = graph.tree_parent()[r];
    if (parent < 0) continue;
    for (const auto& a : graph.tree_edge_attrs()[r]) {
      if (first_assigner.at(a) != parent) return true;
    }
  }
  return false;
}

TEST(ExactWeightSamplerTest, UniformWhenTreeParentIsNotFirstAssigner) {
  auto z = MakeRelation("z", {"k1", "k2"},
                        {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3}})
               .value();
  auto q = MakeRelation("q", {"k1", "x"},
                        {{1, 10}, {1, 20}, {2, 10}, {2, 30}, {3, 20}})
               .value();
  auto p = MakeRelation("p", {"k2", "x"},
                        {{1, 10}, {1, 30}, {2, 20}, {2, 10}, {3, 20}})
               .value();
  auto c = MakeRelation("c", {"x", "y"},
                        {{10, 1}, {10, 2}, {20, 3}, {30, 4}, {30, 5}})
               .value();
  auto d = MakeRelation("d", {"y", "k2"},
                        {{1, 1}, {2, 2}, {3, 2}, {4, 1}, {5, 3}, {3, 3}})
               .value();
  // Tree c->p->{z, q}: q is probed on x from p, but the root c assigns x.
  auto four = JoinSpec::Create("four", {z, q, p, c},
                               {{0, 1}, {0, 2}, {2, 3}, {1, 2}})
                  .value();
  // Tree z->{q, p, d}, p->c: c is probed on x from p, but q assigns x
  // first, so p's x can disagree with the assigned one mid-descent.
  auto five = JoinSpec::Create("five", {z, q, p, c, d},
                               {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4},
                                {0, 4}})
                  .value();
  ASSERT_EQ(five->graph().tree_parent()[3], 2);
  uint64_t seed = 106;
  for (const JoinSpecPtr& join : {four, five}) {
    SCOPED_TRACE(join->name());
    ASSERT_FALSE(join->graph().tree_captures_all_constraints());
    ASSERT_TRUE(ProbesFromNonFirstAssigner(*join));
    CompositeIndexCache cache;
    auto sampler = ExactWeightSampler::Create(join, &cache);
    ASSERT_TRUE(sampler.ok());
    ExpectUniform(sampler->get(), join, 20000, seed++);
    EXPECT_GT((*sampler)->stats().rejections, 0u);
  }
}

TEST(ExactWeightSamplerTest, ZeroWeightTailRowsAreNeverDrawn) {
  // End-to-end regression shape: the ROOT relation's trailing rows are
  // dangling (no matching s rows), so their exact weights are zero and
  // the root CDF is flat at its tail. Every drawn sample must be a
  // genuine result tuple — a CDF boundary clamp could select row "r4"/"r5"
  // and descend into an empty candidate set.
  auto r = MakeRelation("r", {"a", "b"},
                        {{1, 10}, {2, 10}, {3, 20}, {4, 99}, {5, 99}})
               .value();
  auto s = MakeRelation("s", {"b", "c"}, {{10, 1}, {20, 2}, {20, 3}}).value();
  auto join = JoinSpec::Create("zero_tail", {r, s}).value();
  CompositeIndexCache cache;
  auto index = ExactWeightIndex::Build(join, &cache).value();
  const auto& root_weights = index->weights(0);
  ASSERT_EQ(root_weights.back(), 0.0) << "fixture must have a zero tail";
  ASSERT_EQ(root_weights[3], 0.0);

  auto sampler = ExactWeightSampler::Create(index).value();
  ExpectUniform(sampler.get(), join, 20000, 104);
  EXPECT_EQ(sampler->stats().dead_ends, 0u)
      << "drew a zero-weight root row";
}

TEST(OlkenSamplerTest, BoundMatchesExtendedOlkenFormula) {
  auto join = SmallChain();
  CompositeIndexCache cache;
  auto sampler = OlkenJoinSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  auto bound = ComputeExtendedOlkenBound(join, &cache);
  ASSERT_TRUE(bound.ok());
  EXPECT_DOUBLE_EQ((*sampler)->SizeUpperBound(), bound->bound);
  FullJoinExecutor executor;
  auto count = executor.Count(join);
  ASSERT_TRUE(count.ok());
  EXPECT_GE(bound->bound, static_cast<double>(*count));
}

TEST(OlkenSamplerTest, UniformOnChain) {
  auto join = SmallChain();
  CompositeIndexCache cache;
  auto sampler = OlkenJoinSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  ExpectUniform(sampler->get(), join, 30000, 104);
  // The chain has degree skew, so EO must reject sometimes.
  EXPECT_GT((*sampler)->stats().rejections + (*sampler)->stats().dead_ends,
            0u);
}

TEST(OlkenSamplerTest, UniformOnTriangle) {
  auto join = MakeTriangleJoin(20, 5).value();
  CompositeIndexCache cache;
  auto sampler = OlkenJoinSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  ExpectUniform(sampler->get(), join, 20000, 105);
}

TEST(OlkenSamplerTest, DeadEndsOnDanglingTuples) {
  // Half of r's tuples have no match in s: walks from them must dead-end,
  // realizing the zero-weight extension for non-key-FK joins.
  auto r = MakeRelation("r", {"a", "b"}, {{1, 10}, {2, 99}}).value();
  auto s = MakeRelation("s", {"b", "c"}, {{10, 1}}).value();
  auto join = JoinSpec::Create("j", {r, s}).value();
  CompositeIndexCache cache;
  auto sampler = OlkenJoinSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  Rng rng(2);
  for (int i = 0; i < 200; ++i) (*sampler)->TrySample(rng);
  EXPECT_GT((*sampler)->stats().dead_ends, 0u);
  EXPECT_GT((*sampler)->stats().successes, 0u);
}

TEST(OlkenSamplerTest, EmptyJoinWithLiveKeysOnlyDeadEnds) {
  // Max-degree information alone cannot prove this join empty (each side
  // has keys of degree 1), so the bound is positive and every walk
  // dead-ends -- the documented EO behavior on disjoint key sets.
  auto r = MakeRelation("r", {"a", "b"}, {{1, 1}}).value();
  auto s = MakeRelation("s", {"b", "c"}, {{2, 2}}).value();
  auto join = JoinSpec::Create("empty", {r, s}).value();
  CompositeIndexCache cache;
  auto sampler = OlkenJoinSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ((*sampler)->SizeUpperBound(), 1.0);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE((*sampler)->TrySample(rng).has_value());
  }
  EXPECT_EQ((*sampler)->stats().dead_ends, 50u);
}

TEST(OlkenSamplerTest, EmptyRelationBoundZero) {
  auto r = MakeRelation("r", {"a", "b"}, {{1, 1}}).value();
  auto s = MakeRelation("s", {"b", "c"}, {}).value();
  auto join = JoinSpec::Create("empty", {r, s}).value();
  CompositeIndexCache cache;
  auto sampler = OlkenJoinSampler::Create(join, &cache);
  ASSERT_TRUE(sampler.ok());
  EXPECT_TRUE((*sampler)->IsEmpty());
  EXPECT_DOUBLE_EQ((*sampler)->SizeUpperBound(), 0.0);
}

TEST(ExactWeightTest, PerRowWeightsCountCompletions) {
  // w(t) for a root row must equal the number of join results that row
  // yields -- checked against per-row brute force.
  auto join = SmallChain();
  CompositeIndexCache cache;
  auto index = ExactWeightIndex::Build(join, &cache);
  ASSERT_TRUE(index.ok());
  int root = join->graph().tree_order()[0];
  const RelationPtr& root_rel = join->relation(root);
  FullJoinExecutor executor(&cache);
  auto full = executor.Execute(join);
  ASSERT_TRUE(full.ok());
  const Schema& out = join->output_schema();
  for (size_t row = 0; row < root_rel->num_rows(); ++row) {
    // Count results whose projection onto the root relation equals row.
    std::vector<int> fields;
    for (const auto& f : root_rel->schema().fields()) {
      fields.push_back(out.FieldIndex(f.name));
    }
    std::string row_enc = root_rel->GetTuple(row).Encode();
    size_t completions = 0;
    for (const auto& t : full->tuples) {
      if (t.Project(fields).Encode() == row_enc) ++completions;
    }
    EXPECT_DOUBLE_EQ((*index)->weights(root)[row],
                     static_cast<double>(completions))
        << "root row " << row;
  }
}

TEST(JoinSizeBoundTest, HistogramBoundAtLeastIndexBound) {
  auto join = SmallChain();
  CompositeIndexCache cache;
  HistogramCatalog histograms;
  auto index_bound = ComputeExtendedOlkenBound(join, &cache);
  auto hist_bound = ComputeOlkenBoundFromHistograms(join, &histograms);
  ASSERT_TRUE(index_bound.ok() && hist_bound.ok());
  // The histogram bound uses per-attribute max degrees (a superset of the
  // composite-key information), so it can only be looser or equal.
  EXPECT_GE(hist_bound->bound, index_bound->bound);
}

TEST(JoinSampleStatsTest, RejectionRatio) {
  JoinSampleStats stats;
  EXPECT_DOUBLE_EQ(stats.RejectionRatio(), 0.0);
  stats.attempts = 10;
  stats.successes = 7;
  EXPECT_NEAR(stats.RejectionRatio(), 0.3, 1e-12);
}

}  // namespace
}  // namespace suj
