// Tests for stats/uniformity: the public chi-square diagnostics, plus the
// statistical conformance suite for the parallel revision-mode sampler —
// uniformity over the union is the correctness contract, so the
// epoch-reconciled protocol is validated with the same public machinery
// downstream users get, including a skew-rejection negative control.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exact_overlap.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
#include "service/prepared_union.h"
#include "service/session.h"
#include "shard/shard_coordinator.h"
#include "shard/shard_plan.h"
#include "stats/uniformity.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

Tuple T(int64_t v) { return Tuple({Value::Int64(v)}); }

std::vector<Tuple> UniformSamples(size_t universe, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(T(static_cast<int64_t>(rng.UniformInt(universe))));
  }
  return out;
}

TEST(UniformityTest, AcceptsGenuinelyUniformSamples) {
  auto samples = UniformSamples(50, 20000, 1);
  auto result = ChiSquareUniformityTest(samples, 50);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ConsistentWithUniform());
  EXPECT_EQ(result->degrees_of_freedom, 49u);
  EXPECT_EQ(result->num_samples, 20000u);
  EXPECT_GT(result->p_value, 0.001);
}

TEST(UniformityTest, RejectsSkewedSamples) {
  // Value 0 drawn 3x as often as the others.
  Rng rng(2);
  std::vector<Tuple> samples;
  for (size_t i = 0; i < 20000; ++i) {
    uint64_t v = rng.UniformInt(52);
    samples.push_back(T(static_cast<int64_t>(v >= 50 ? 0 : v)));
  }
  auto result = ChiSquareUniformityTest(samples, 50);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ConsistentWithUniform());
}

TEST(UniformityTest, RejectsMissingMass) {
  // Samples cover only half the claimed universe.
  auto samples = UniformSamples(25, 10000, 3);
  auto result = ChiSquareUniformityTest(samples, 50);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ConsistentWithUniform());
}

TEST(UniformityTest, InputValidation) {
  auto samples = UniformSamples(10, 100, 4);
  EXPECT_FALSE(ChiSquareUniformityTest(samples, 1).ok());
  EXPECT_FALSE(ChiSquareUniformityTest({}, 10).ok());
  // More distinct values than the universe claims.
  EXPECT_FALSE(ChiSquareUniformityTest(samples, 2).ok());
}

TEST(UniformityTest, ExplicitProportions) {
  // 2:1 distribution tested against matching expectations.
  Rng rng(5);
  std::vector<Tuple> samples;
  for (size_t i = 0; i < 15000; ++i) {
    samples.push_back(T(rng.UniformInt(3) < 2 ? 1 : 2));
  }
  std::unordered_map<std::string, double> expected = {
      {T(1).Encode(), 2.0 / 3.0}, {T(2).Encode(), 1.0 / 3.0}};
  auto good = ChiSquareTest(samples, expected);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ConsistentWithUniform());

  std::unordered_map<std::string, double> wrong = {
      {T(1).Encode(), 0.5}, {T(2).Encode(), 0.5}};
  auto bad = ChiSquareTest(samples, wrong);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ConsistentWithUniform());
}

TEST(UniformityTest, UnexpectedValueFailsImmediately) {
  std::vector<Tuple> samples = {T(1), T(2), T(99)};
  std::unordered_map<std::string, double> expected = {
      {T(1).Encode(), 0.5}, {T(2).Encode(), 0.5}};
  auto result = ChiSquareTest(samples, expected);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->p_value, 0.0);
}

TEST(UniformityTest, SurvivalFunctionSanity) {
  // Chi-square with df degrees of freedom has mean df: survival at the
  // mean should be mid-range, far tails near 0/1.
  EXPECT_GT(ChiSquareSurvival(50.0, 50), 0.3);
  EXPECT_LT(ChiSquareSurvival(50.0, 50), 0.7);
  EXPECT_LT(ChiSquareSurvival(200.0, 50), 1e-6);
  EXPECT_GT(ChiSquareSurvival(10.0, 50), 0.999);
}

TEST(UniformityTest, CountSamples) {
  std::vector<Tuple> samples = {T(1), T(1), T(2)};
  auto counts = CountSamples(samples);
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[T(1).Encode()], 2u);
  EXPECT_EQ(counts[T(2).Encode()], 1u);
}

// ---------------------------------------------------------------------------
// Statistical conformance of the parallel revision-mode sampler: a union
// of chain joins with known (exactly computed) overlap, sampled on the
// epoch-reconciled executor path, checked with the public chi-square API.

struct ConformanceFixture {
  std::vector<JoinSpecPtr> joins;
  std::unique_ptr<ExactOverlapCalculator> exact;
  UnionEstimates estimates;
  CompositeIndexCache cache;

  UnionSampler::JoinSamplerFactory Factory() {
    return [this]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
      std::vector<std::unique_ptr<JoinSampler>> out;
      for (const auto& join : joins) {
        auto sampler = ExactWeightSampler::Create(join, &cache);
        if (!sampler.ok()) return sampler.status();
        out.push_back(std::move(*sampler));
      }
      return out;
    };
  }
};

ConformanceFixture MakeConformanceSetup(uint64_t seed) {
  ConformanceFixture s;
  workloads::SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 20;
  options.seed = seed;
  s.joins = workloads::MakeOverlappingChains(options).value();
  s.exact = ExactOverlapCalculator::Create(s.joins).value();
  s.estimates = ComputeUnionEstimates(s.exact.get()).value();
  return s;
}

TEST(UniformityTest, ParallelRevisionModeIsUniformOverUnion) {
  ConformanceFixture s = MakeConformanceSetup(600);
  // Verify the workload genuinely overlaps — otherwise the revision
  // protocol is never exercised and the test proves nothing.
  double overlap = s.exact->EstimateOverlap(0b11).value();
  ASSERT_GT(overlap, 0.0);

  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = 4;
  opts.batch_size = 64;
  opts.sampler_factory = s.Factory();
  auto sampler =
      UnionSampler::Create(s.joins, {}, s.estimates, {}, opts).value();
  Rng rng(601);
  const size_t universe = s.exact->UnionSize();
  const size_t n = 80 * universe;
  auto samples = sampler->Sample(n, rng);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(samples->size(), n);
  EXPECT_GT(sampler->stats().revisions, 0u);

  // Nothing outside the union may ever be delivered.
  for (const auto& [key, c] : CountSamples(*samples)) {
    ASSERT_TRUE(s.exact->membership().count(key))
        << "sampled tuple outside the union";
  }
  auto result = ChiSquareUniformityTest(*samples, universe);
  ASSERT_TRUE(result.ok());
  // The revision protocol learns the cover online, so the distribution
  // carries a small transient bias until every overlap value is claimed;
  // at this sample size the chi-square must still be comfortably
  // consistent with uniformity.
  EXPECT_TRUE(result->ConsistentWithUniform(/*alpha=*/1e-4))
      << "chi2=" << result->statistic << " df="
      << result->degrees_of_freedom << " p=" << result->p_value;
}

TEST(UniformityTest, SessionResumedRevisionPathIsUniformOverUnion) {
  // The session-lived protocol (core/revision_state.h): many chunked
  // Sample calls on ONE kRevision session, whose learned cover, epoch
  // schedule, and buffered surplus persist across calls. Treating the
  // whole multi-call sequence as one sample set, it must be just as
  // consistent with uniformity as the one-shot draws above — the
  // epoch-confined purge horizon only ever leaves the same
  // constant-NUMBER-of-draws learning transient standing. The skew
  // negative control below keeps guarding this harness too: the same
  // machinery must still reject a genuinely biased sampler.
  ConformanceFixture s = MakeConformanceSetup(604);
  double overlap = s.exact->EstimateOverlap(0b11).value();
  ASSERT_GT(overlap, 0.0);

  auto plan = PreparedUnion::Build("uniformity", /*plan_id=*/11, s.joins,
                                   PreparedQueryOptions())
                  .value();
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kRevision;
  opts.worker_threads = 4;
  opts.batch_size = 64;
  auto session =
      SamplingSession::Create(1, plan, opts, Rng(605)).value();

  const size_t universe = s.exact->UnionSize();
  const size_t n = 80 * universe;
  // Uneven chunking on purpose: crossing epoch boundaries mid-call and
  // serving calls from the buffered surplus are the resumed path's
  // distinctive code paths.
  std::vector<Tuple> samples;
  samples.reserve(n);
  const size_t chunks[] = {97, 1, 500, 13, 1024};
  size_t next = 0;
  while (samples.size() < n) {
    size_t take = std::min(chunks[next++ % 5], n - samples.size());
    auto chunk = session->Sample(take);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    for (auto& t : *chunk) samples.push_back(std::move(t));
  }
  ASSERT_EQ(samples.size(), n);
  auto stats = session->stats();
  EXPECT_GT(stats.sampler.revisions, 0u);
  EXPECT_GT(stats.sampler.revision_epochs, 1u);

  for (const auto& [key, c] : CountSamples(samples)) {
    ASSERT_TRUE(s.exact->membership().count(key))
        << "sampled tuple outside the union";
  }
  auto result = ChiSquareUniformityTest(samples, universe);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ConsistentWithUniform(/*alpha=*/1e-4))
      << "chi2=" << result->statistic << " df="
      << result->degrees_of_freedom << " p=" << result->p_value;
}

TEST(UniformityTest, SkewedUnionSamplingFailsConformance) {
  // Negative control for the conformance harness: DISJOINT-union sampling
  // (Definition 1) over an OVERLAPPING union over-represents the overlap
  // values — the exact bias Example 2 warns about — and the same
  // chi-square machinery must reject it decisively.
  ConformanceFixture s = MakeConformanceSetup(602);
  double overlap = s.exact->EstimateOverlap(0b11).value();
  ASSERT_GT(overlap, 2.0) << "need overlap for the negative control";

  auto factory = s.Factory();
  auto samplers = factory();
  ASSERT_TRUE(samplers.ok());
  auto sampler = DisjointUnionSampler::Create(s.joins, std::move(*samplers),
                                              s.estimates.join_sizes)
                     .value();
  Rng rng(603);
  const size_t universe = s.exact->UnionSize();
  auto samples = sampler->Sample(80 * universe, rng);
  ASSERT_TRUE(samples.ok());
  auto result = ChiSquareUniformityTest(*samples, universe);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ConsistentWithUniform(/*alpha=*/1e-4))
      << "disjoint-union sampling of an overlapping union must not look "
         "uniform (p=" << result->p_value << ")";
}

TEST(UniformityTest, ColumnarSequentialAndBatchedDrawsAreUniform) {
  // The exact-weight descent in both of its RNG orders — one walk at a
  // time (TrySample) and level-major batched walks (TrySampleBatch) —
  // chi-square-tested against one join's exact result.
  ConformanceFixture s = MakeConformanceSetup(606);
  const JoinSpecPtr& join = s.joins[0];
  const size_t universe = s.exact->JoinSize(0);
  ASSERT_GT(universe, 1u);
  const size_t n = 80 * universe;

  auto columnar = ExactWeightSampler::Create(join, &s.cache).value();
  {
    Rng rng(607);
    std::vector<Tuple> samples;
    samples.reserve(n);
    while (samples.size() < n) {
      auto t = columnar->Sample(rng);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      samples.push_back(std::move(t).value());
    }
    for (const auto& [key, c] : CountSamples(samples)) {
      ASSERT_TRUE(s.exact->join_set(0).count(key))
          << "sequential descent produced a non-result tuple";
    }
    auto result = ChiSquareUniformityTest(samples, universe);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->ConsistentWithUniform(/*alpha=*/1e-4))
        << "sequential chi2=" << result->statistic
        << " df=" << result->degrees_of_freedom << " p=" << result->p_value;
  }

  // The batched walk (level-major RNG order) targets the same distribution.
  Rng rng(609);
  std::vector<Tuple> batched;
  batched.reserve(n);
  while (batched.size() < n) {
    columnar->TrySampleBatch(std::min<size_t>(64, n - batched.size()), rng,
                             &batched);
  }
  batched.resize(n);
  auto result = ChiSquareUniformityTest(batched, universe);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ConsistentWithUniform(/*alpha=*/1e-4))
      << "batched chi2=" << result->statistic << " p=" << result->p_value;
}

// ---------------------------------------------------------------------------
// Sharded conformance: routed draws target the same uniform distribution
// over the union, and the harness still rejects a sampler whose shard
// routing ignores the weight ledger.

TEST(UniformityTest, ShardedRevisionSamplingIsUniformOverUnion) {
  // Sharding changes WHERE a root draw is resolved, never its
  // probability: the 4-shard coordinator path (revision mode, 4 worker
  // threads, per-shard exact-weight samplers behind the routed facade)
  // is held to the same chi-square bar as the unsharded suites above.
  ConformanceFixture s = MakeConformanceSetup(610);
  double overlap = s.exact->EstimateOverlap(0b11).value();
  ASSERT_GT(overlap, 0.0);

  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto plan = ShardPlanner::Plan(s.joins, shard_options).value();
  CompositeIndexCache cache;
  auto coord = ShardCoordinator::Build(plan, &cache).value();
  auto merged = ShardMergedOverlapEstimator::Create(plan).value();
  auto estimates = ComputeUnionEstimates(merged.get()).value();

  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = 4;
  opts.batch_size = 64;
  opts.sampler_factory = [coord]() { return coord->MakeSamplers(); };
  auto sampler =
      UnionSampler::Create(coord->joins(), {}, estimates, {}, opts).value();
  Rng rng(611);
  const size_t universe = s.exact->UnionSize();
  const size_t n = 80 * universe;
  auto samples = sampler->Sample(n, rng);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(samples->size(), n);

  // The canonical specs reorder root rows but never change content, so
  // the union universe is the input calculator's.
  for (const auto& [key, c] : CountSamples(*samples)) {
    ASSERT_TRUE(s.exact->membership().count(key))
        << "sharded sampling left the union";
  }
  auto result = ChiSquareUniformityTest(*samples, universe);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ConsistentWithUniform(/*alpha=*/1e-4))
      << "chi2=" << result->statistic << " df="
      << result->degrees_of_freedom << " p=" << result->p_value;
}

TEST(UniformityTest, ShardSkewedRoutingFailsConformance) {
  // Negative control for the sharded harness: route every root draw to
  // a UNIFORMLY chosen shard instead of weight-proportionally. Light
  // shards' tuples get over-represented — exactly the bias the
  // coordinator's weight ledger exists to prevent — and the same
  // chi-square machinery must reject it decisively.
  ConformanceFixture s = MakeConformanceSetup(612);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto plan = ShardPlanner::Plan(s.joins, shard_options).value();
  const ShardedJoinPlan& jp = plan->join_plan(0);

  CompositeIndexCache cache;
  std::vector<std::unique_ptr<ExactWeightSampler>> shard_samplers;
  for (int shard = 0; shard < shard_options.num_shards; ++shard) {
    const Relation& slice = *jp.shard_specs[shard]->relations()[jp.root];
    if (slice.num_rows() == 0) continue;
    shard_samplers.push_back(
        ExactWeightSampler::Create(jp.shard_specs[shard], &cache).value());
  }
  ASSERT_GT(shard_samplers.size(), 1u) << "need >1 populated shard";
  // The control only bites when shard weights genuinely differ.
  double min_w = shard_samplers.front()->weight_index()->TotalWeight();
  double max_w = min_w;
  for (const auto& sampler : shard_samplers) {
    double w = sampler->weight_index()->TotalWeight();
    min_w = std::min(min_w, w);
    max_w = std::max(max_w, w);
  }
  ASSERT_GT(max_w, min_w) << "hash partition produced equal shard weights";

  const size_t universe = s.exact->JoinSize(0);
  ASSERT_GT(universe, 1u);
  const size_t n = 60 * universe;
  Rng rng(613);
  std::vector<Tuple> samples;
  samples.reserve(n);
  while (samples.size() < n) {
    auto& sampler = *shard_samplers[rng.UniformInt(shard_samplers.size())];
    auto t = sampler.Sample(rng);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    samples.push_back(std::move(t).value());
  }
  for (const auto& [key, c] : CountSamples(samples)) {
    ASSERT_TRUE(s.exact->join_set(0).count(key))
        << "skew control produced a non-result tuple";
  }
  auto result = ChiSquareUniformityTest(samples, universe);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ConsistentWithUniform(/*alpha=*/1e-4))
      << "uniform-shard routing of a skewed partition must not look "
         "uniform (p=" << result->p_value << ")";
}

}  // namespace
}  // namespace suj
