// Tests for exec/parallel_executor and the batched-executor paths of
// UnionSampler / OnlineUnionSampler: thread-count-independent determinism
// (the per-batch seeding contract), uniformity of the parallel samplers,
// per-worker stats aggregation, and option validation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/exact_overlap.h"
#include "core/online_union_sampler.h"
#include "core/union_sampler.h"
#include "exec/parallel_executor.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "test_util.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeOverlappingChains;
using workloads::SyntheticChainOptions;

std::vector<std::string> Encodings(const std::vector<Tuple>& samples) {
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& t : samples) out.push_back(t.Encode());
  return out;
}

// ---------------------------------------------------------------------------
// Executor-level tests with a synthetic batch sampler.

// Emits tuples whose values come straight from the batch RNG: any
// scheduling dependence would show up as a changed sequence.
class RngEchoBatchSampler : public BatchSampler {
 public:
  Result<std::vector<Tuple>> SampleBatch(size_t, size_t count,
                                         Rng& rng) override {
    std::vector<Tuple> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(
          Tuple({Value::Int64(static_cast<int64_t>(rng.UniformInt(1000)))}));
    }
    stats_.accepted += count;
    ++stats_.rounds;
    return out;
  }
  UnionSampleStats stats() const override { return stats_; }

 private:
  UnionSampleStats stats_;
};

Result<std::unique_ptr<BatchSampler>> MakeRngEcho(size_t /*worker*/) {
  return std::unique_ptr<BatchSampler>(new RngEchoBatchSampler());
}

TEST(ParallelExecutorTest, DeterministicAcrossThreadCounts) {
  const size_t n = 103;  // deliberately not a batch multiple
  std::vector<std::string> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    ParallelUnionExecutor::Options opts;
    opts.num_threads = threads;
    opts.batch_size = 10;
    ParallelUnionExecutor executor(opts);
    auto result = executor.Execute(n, /*seed=*/77, MakeRngEcho);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), n);
    auto encodings = Encodings(*result);
    if (reference.empty()) {
      reference = encodings;
    } else {
      EXPECT_EQ(encodings, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelExecutorTest, SeedChangesSequence) {
  ParallelUnionExecutor executor({/*num_threads=*/2, /*batch_size=*/16});
  auto a = executor.Execute(64, 1, MakeRngEcho);
  auto b = executor.Execute(64, 2, MakeRngEcho);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(Encodings(*a), Encodings(*b));
}

TEST(ParallelExecutorTest, StatsAggregation) {
  ParallelUnionExecutor::Options opts;
  opts.num_threads = 4;
  opts.batch_size = 10;
  ParallelUnionExecutor executor(opts);
  UnionSampleStats stats;
  auto result = executor.Execute(95, 5, MakeRngEcho, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.accepted, 95u);          // summed over workers
  EXPECT_EQ(stats.rounds, 10u);            // one per batch here
  EXPECT_EQ(stats.parallel_batches, 10u);  // ceil(95 / 10)
  EXPECT_EQ(stats.parallel_workers, 4u);
  EXPECT_GE(stats.parallel_seconds, 0.0);
}

TEST(ParallelExecutorTest, WorkerErrorPropagates) {
  class Failing : public BatchSampler {
   public:
    Result<std::vector<Tuple>> SampleBatch(size_t, size_t, Rng&) override {
      return Status::Internal("boom");
    }
    UnionSampleStats stats() const override { return {}; }
  };
  ParallelUnionExecutor executor({/*num_threads=*/2, /*batch_size=*/8});
  auto result = executor.Execute(
      32, 9, [](size_t) -> Result<std::unique_ptr<BatchSampler>> {
        return std::unique_ptr<BatchSampler>(new Failing());
      });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("boom"), std::string::npos);
}

TEST(ParallelExecutorTest, ShortBatchIsAnError) {
  class Short : public BatchSampler {
   public:
    Result<std::vector<Tuple>> SampleBatch(size_t, size_t count,
                                           Rng&) override {
      return std::vector<Tuple>(count > 0 ? count - 1 : 0);
    }
    UnionSampleStats stats() const override { return {}; }
  };
  ParallelUnionExecutor executor({/*num_threads=*/1, /*batch_size=*/8});
  auto result = executor.Execute(
      16, 9, [](size_t) -> Result<std::unique_ptr<BatchSampler>> {
        return std::unique_ptr<BatchSampler>(new Short());
      });
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// UnionSampler parallel path.

struct Fixture {
  std::vector<JoinSpecPtr> joins;
  std::unique_ptr<ExactOverlapCalculator> exact;
  UnionEstimates estimates;
  std::vector<JoinMembershipProberPtr> probers;
  CompositeIndexCache cache;
};

Fixture MakeSetup(uint64_t seed, int num_joins = 3) {
  Fixture s;
  SyntheticChainOptions options;
  options.num_joins = num_joins;
  options.master_rows = 20;
  options.seed = seed;
  s.joins = MakeOverlappingChains(options).value();
  s.exact = ExactOverlapCalculator::Create(s.joins).value();
  s.estimates = ComputeUnionEstimates(s.exact.get()).value();
  s.probers = BuildProbers(s.joins).value();
  return s;
}

// Factory building one worker's exact-weight samplers; the shared cache is
// only touched on the calling thread (executor contract), and the weight
// indexes it holds are immutable once built.
UnionSampler::JoinSamplerFactory EwFactory(Fixture& s) {
  return [&s]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
    std::vector<std::unique_ptr<JoinSampler>> out;
    for (const auto& join : s.joins) {
      auto sampler = ExactWeightSampler::Create(join, &s.cache);
      if (!sampler.ok()) return sampler.status();
      out.push_back(std::move(*sampler));
    }
    return out;
  };
}

std::unique_ptr<UnionSampler> MakeParallelUnionSampler(Fixture& s,
                                                       size_t threads,
                                                       size_t batch_size) {
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  opts.num_threads = threads;
  opts.batch_size = batch_size;
  opts.sampler_factory = EwFactory(s);
  return UnionSampler::Create(s.joins, {}, s.estimates, s.probers, opts)
      .value();
}

TEST(ParallelUnionSamplerTest, DeterministicAcrossThreadCounts) {
  Fixture s = MakeSetup(200);
  const size_t n = 999;
  std::vector<std::string> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    auto sampler = MakeParallelUnionSampler(s, threads, /*batch_size=*/64);
    Rng rng(201);
    auto samples = sampler->Sample(n, rng);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    ASSERT_EQ(samples->size(), n);
    auto encodings = Encodings(*samples);
    if (reference.empty()) {
      reference = encodings;
    } else {
      EXPECT_EQ(encodings, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelUnionSamplerTest, ParallelSamplesAreUniform) {
  Fixture s = MakeSetup(202);
  auto sampler = MakeParallelUnionSampler(s, /*threads=*/4, /*batch_size=*/64);
  Rng rng(203);
  size_t n = 40 * s.exact->UnionSize();
  auto samples = sampler->Sample(n, rng);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  auto counts = testing::CountByValue(*samples);
  for (const auto& [key, c] : counts) {
    ASSERT_TRUE(s.exact->membership().count(key))
        << "sampled tuple outside the union";
  }
  double chi2 =
      testing::ChiSquareUniform(counts, s.exact->UnionSize(), samples->size());
  EXPECT_LT(chi2, testing::ChiSquareThreshold(s.exact->UnionSize() - 1));
}

TEST(ParallelUnionSamplerTest, StatsAggregateAcrossWorkers) {
  Fixture s = MakeSetup(204);
  auto sampler = MakeParallelUnionSampler(s, /*threads=*/4, /*batch_size=*/50);
  Rng rng(205);
  auto samples = sampler->Sample(500, rng);
  ASSERT_TRUE(samples.ok());
  const auto& stats = sampler->stats();
  EXPECT_EQ(stats.accepted, 500u);
  EXPECT_EQ(stats.rounds, 500u);  // oracle rounds end in exactly one accept
  EXPECT_GE(stats.join_draws, stats.accepted);
  EXPECT_EQ(stats.parallel_batches, 10u);
  EXPECT_EQ(stats.parallel_workers, 4u);
}

TEST(ParallelUnionSamplerTest, CallerRngAdvancesIdenticallyForAnyThreadCount) {
  // Sample() consumes exactly one caller draw on the parallel path, so
  // downstream draws are thread-count independent too.
  Fixture s = MakeSetup(206);
  std::vector<uint64_t> next_draws;
  for (size_t threads : {1u, 8u}) {
    auto sampler = MakeParallelUnionSampler(s, threads, 32);
    Rng rng(207);
    ASSERT_TRUE(sampler->Sample(100, rng).ok());
    next_draws.push_back(rng.Next());
  }
  EXPECT_EQ(next_draws[0], next_draws[1]);
}

// The documented abandonment boundary on the batched executor path: a
// cover abandoned DURING a call keeps its call-start selection weight for
// every batch of that call (so batch contents never depend on which worker
// discovered the dead cover), and only the NEXT call excludes the join.
// SampleParallel additionally SUJ_CHECKs that the exclusion set is
// untouched until its post-fan-out fold.
TEST(ParallelUnionSamplerTest, AbandonmentTakesEffectNextCall) {
  Fixture s = MakeSetup(230);
  // Append an empty join (the middle relation's key never matches) whose
  // estimates falsely claim a big cover: every round that selects it
  // exhausts the draw budget and must be abandoned.
  auto empty_r =
      workloads::MakeRelation("er", {"A0", "A1"}, {{1, 2}}).value();
  auto empty_s =
      workloads::MakeRelation("es", {"A1", "A2"}, {{99, 3}}).value();
  auto empty_t =
      workloads::MakeRelation("et", {"A2", "A3"}, {{3, 4}}).value();
  s.joins.push_back(
      JoinSpec::Create("empty", {empty_r, empty_s, empty_t}).value());
  s.exact = ExactOverlapCalculator::Create(s.joins).value();
  s.estimates = ComputeUnionEstimates(s.exact.get()).value();
  s.probers = BuildProbers(s.joins).value();
  ASSERT_DOUBLE_EQ(s.estimates.cover_sizes.back(), 0.0);
  s.estimates.cover_sizes.back() = s.estimates.cover_sizes[0];  // the lie

  std::vector<std::string> first_call, second_call;
  for (size_t threads : {1u, 4u}) {
    UnionSampler::Options opts;
    opts.mode = UnionSampler::Mode::kMembershipOracle;
    opts.num_threads = threads;
    opts.batch_size = 32;
    opts.max_draws_per_round = 200;
    opts.sampler_factory = EwFactory(s);
    auto sampler =
        UnionSampler::Create(s.joins, {}, s.estimates, s.probers, opts)
            .value();
    Rng rng(231);
    auto call1 = sampler->Sample(300, rng);
    ASSERT_TRUE(call1.ok()) << call1.status().ToString();
    ASSERT_EQ(call1->size(), 300u);
    // The dead cover was discovered (and paid for) in this call...
    uint64_t abandoned_after_call1 = sampler->stats().abandoned_rounds;
    EXPECT_GE(abandoned_after_call1, 1u);
    auto call2 = sampler->Sample(300, rng);
    ASSERT_TRUE(call2.ok()) << call2.status().ToString();
    // ...and from the next call the join is excluded from selection
    // outright: no further rounds can be abandoned on it.
    EXPECT_EQ(sampler->stats().abandoned_rounds, abandoned_after_call1);
    auto enc1 = Encodings(*call1);
    auto enc2 = Encodings(*call2);
    if (threads == 1) {
      first_call = enc1;
      second_call = enc2;
    } else {
      // Abandonment mid-call must not perturb thread-count determinism.
      EXPECT_EQ(enc1, first_call);
      EXPECT_EQ(enc2, second_call);
    }
  }
}

TEST(ParallelUnionSamplerTest, CreateValidation) {
  Fixture s = MakeSetup(208, /*num_joins=*/2);
  // Revision mode runs the batched path too (epoch-reconciled ownership,
  // core/ownership_map.h; covered in revision_parallel_test.cc) — and
  // needs no probers.
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.sampler_factory = EwFactory(s);
  EXPECT_TRUE(UnionSampler::Create(s.joins, {}, s.estimates, {}, opts).ok());
  // num_threads != 1 without a factory.
  UnionSampler::Options no_factory;
  no_factory.mode = UnionSampler::Mode::kMembershipOracle;
  no_factory.num_threads = 4;
  EXPECT_FALSE(UnionSampler::Create(s.joins, EwFactory(s)().value(),
                                    s.estimates, s.probers, no_factory)
                   .ok());
  // Zero batch size.
  UnionSampler::Options zero_batch;
  zero_batch.mode = UnionSampler::Mode::kMembershipOracle;
  zero_batch.batch_size = 0;
  zero_batch.sampler_factory = EwFactory(s);
  EXPECT_FALSE(UnionSampler::Create(s.joins, {}, s.estimates, s.probers,
                                    zero_batch)
                   .ok());
}

// ---------------------------------------------------------------------------
// OnlineUnionSampler parallel fresh-walk phase.

struct OnlineFixture {
  std::vector<JoinSpecPtr> joins;
  std::unique_ptr<ExactOverlapCalculator> exact;
  std::shared_ptr<CompositeIndexCache> cache =
      std::make_shared<CompositeIndexCache>();
  std::unique_ptr<RandomWalkOverlapEstimator> walker;
  UnionEstimates estimates;
};

// Small walk budget: pools drain quickly, so the parallel tail engages.
OnlineFixture MakeOnlineSetup(uint64_t seed, uint64_t walk_budget = 50) {
  OnlineFixture s;
  SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 20;
  options.seed = seed;
  s.joins = MakeOverlappingChains(options).value();
  s.exact = ExactOverlapCalculator::Create(s.joins).value();
  RandomWalkOverlapEstimator::Options rw_opts;
  rw_opts.min_walks = walk_budget;
  rw_opts.max_walks = walk_budget;
  s.walker =
      RandomWalkOverlapEstimator::Create(s.joins, s.cache.get(), rw_opts)
          .value();
  Rng warmup_rng(seed + 1);
  EXPECT_TRUE(s.walker->Warmup(warmup_rng).ok());
  s.estimates = ComputeUnionEstimates(s.exact.get()).value();
  return s;
}

TEST(ParallelOnlineUnionSamplerTest, DeterministicAcrossThreadCounts) {
  const size_t n = 600;
  std::vector<std::string> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    // A fresh fixture per run: the walker accumulates records, so reusing
    // one would change the sequential prefix between runs.
    OnlineFixture s = MakeOnlineSetup(220);
    OnlineUnionSampler::Options opts;
    opts.enable_reuse = true;
    opts.num_threads = threads;
    opts.batch_size = 64;
    opts.index_cache = s.cache;
    auto sampler =
        OnlineUnionSampler::Create(s.joins, s.walker.get(), s.estimates, opts)
            .value();
    Rng rng(221);
    auto samples = sampler->Sample(n, rng);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    ASSERT_EQ(samples->size(), n);
    // The tail must actually have fanned out for this test to mean much.
    EXPECT_GT(sampler->stats().parallel_batches, 0u);
    auto encodings = Encodings(*samples);
    if (reference.empty()) {
      reference = encodings;
    } else {
      EXPECT_EQ(encodings, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelOnlineUnionSamplerTest, ParallelTailStaysUniform) {
  OnlineFixture s = MakeOnlineSetup(222);
  OnlineUnionSampler::Options opts;
  opts.enable_reuse = false;  // all samples from the parallel walk phase
  opts.num_threads = 4;
  opts.batch_size = 64;
  opts.index_cache = s.cache;
  auto sampler =
      OnlineUnionSampler::Create(s.joins, s.walker.get(), s.estimates, opts)
          .value();
  Rng rng(223);
  size_t n = 40 * s.exact->UnionSize();
  auto samples = sampler->Sample(n, rng);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  auto counts = testing::CountByValue(*samples);
  for (const auto& [key, c] : counts) {
    ASSERT_TRUE(s.exact->membership().count(key))
        << "sampled tuple outside the union";
  }
  double chi2 =
      testing::ChiSquareUniform(counts, s.exact->UnionSize(), samples->size());
  // Same slack as the sequential online tests: multi-instance accepts add
  // small correlation.
  EXPECT_LT(chi2,
            3.0 * testing::ChiSquareThreshold(s.exact->UnionSize() - 1));
  EXPECT_EQ(sampler->stats().reuse_accepted, 0u);
  EXPECT_GT(sampler->stats().fresh_accepted, 0u);
}

TEST(ParallelOnlineUnionSamplerTest, ReusePhaseStaysSequential) {
  OnlineFixture s = MakeOnlineSetup(224, /*walk_budget=*/800);
  OnlineUnionSampler::Options opts;
  opts.enable_reuse = true;
  opts.num_threads = 4;
  opts.batch_size = 32;
  opts.index_cache = s.cache;
  auto sampler =
      OnlineUnionSampler::Create(s.joins, s.walker.get(), s.estimates, opts)
          .value();
  Rng rng(225);
  // Small n against a large pool: everything should come from reuse, and
  // the executor must never engage.
  auto samples = sampler->Sample(100, rng);
  ASSERT_TRUE(samples.ok());
  EXPECT_GT(sampler->stats().reuse_accepted, 0u);
  EXPECT_EQ(sampler->stats().parallel_batches, 0u);
}

TEST(ParallelOnlineUnionSamplerTest, CreateValidation) {
  OnlineFixture s = MakeOnlineSetup(226);
  // num_threads != 1 without an index cache.
  OnlineUnionSampler::Options no_cache;
  no_cache.num_threads = 2;
  EXPECT_FALSE(OnlineUnionSampler::Create(s.joins, s.walker.get(),
                                          s.estimates, no_cache)
                   .ok());
  // Revision mode cannot run the batched tail.
  OnlineUnionSampler::Options revision;
  revision.mode = UnionSampler::Mode::kRevision;
  revision.index_cache = s.cache;
  EXPECT_FALSE(OnlineUnionSampler::Create(s.joins, s.walker.get(),
                                          s.estimates, revision)
                   .ok());
}

}  // namespace
}  // namespace suj
