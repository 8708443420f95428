// Tests for the revision-mode epoch driver's per-call entry point
// (epoch-reconciled ownership, core/ownership_map.h, run by
// UnionSampler::Sample(n, rng) over a call-local RevisionState):
// byte-identical samples across thread counts, revision/purge counter
// invariants, resume-across-Sample()-calls equivalence, the epoch-boundary
// abandonment fold, and Create validation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/exact_overlap.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
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

struct Fixture {
  std::vector<JoinSpecPtr> joins;
  std::unique_ptr<ExactOverlapCalculator> exact;
  UnionEstimates estimates;
  CompositeIndexCache cache;
};

Fixture MakeSetup(uint64_t seed, int num_joins = 3, int master_rows = 20) {
  Fixture s;
  SyntheticChainOptions options;
  options.num_joins = num_joins;
  options.master_rows = master_rows;
  options.seed = seed;
  s.joins = MakeOverlappingChains(options).value();
  s.exact = ExactOverlapCalculator::Create(s.joins).value();
  s.estimates = ComputeUnionEstimates(s.exact.get()).value();
  return s;
}

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

std::unique_ptr<UnionSampler> MakeRevisionParallelSampler(
    Fixture& s, size_t threads, size_t batch_size = 64) {
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = threads;
  opts.batch_size = batch_size;
  opts.sampler_factory = EwFactory(s);
  // No probers: the decentralized protocol never probes membership.
  return UnionSampler::Create(s.joins, {}, s.estimates, {}, opts).value();
}

// The deterministic (non-timing, non-scheduling) counters of a stats
// block, for cross-thread-count equality checks.
std::vector<uint64_t> DeterministicCounters(const UnionSampleStats& s) {
  return {s.rounds,           s.join_draws,        s.accepted,
          s.rejected_cover,   s.revisions,         s.removed_by_revision,
          s.abandoned_rounds, s.parallel_batches,  s.revision_epochs,
          s.reconcile_dropped};
}

TEST(RevisionParallelTest, ByteIdenticalAcrossThreadCounts) {
  Fixture s = MakeSetup(300);
  const size_t n = 999;  // deliberately not a batch multiple
  std::vector<std::string> reference;
  std::vector<uint64_t> reference_counters;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto sampler = MakeRevisionParallelSampler(s, threads);
    Rng rng(301);
    auto samples = sampler->Sample(n, rng);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    ASSERT_EQ(samples->size(), n);
    auto encodings = Encodings(*samples);
    auto counters = DeterministicCounters(sampler->stats());
    if (reference.empty()) {
      reference = encodings;
      reference_counters = counters;
    } else {
      EXPECT_EQ(encodings, reference) << "threads=" << threads;
      // Epoch layout, claims, and reconciliation are schedule-independent
      // too, so every counter (not just the sample bytes) must agree.
      EXPECT_EQ(counters, reference_counters) << "threads=" << threads;
    }
  }
}

TEST(RevisionParallelTest, RevisionAndPurgeCountInvariants) {
  Fixture s = MakeSetup(302);
  auto sampler = MakeRevisionParallelSampler(s, /*threads=*/4,
                                             /*batch_size=*/32);
  Rng rng(303);
  const size_t n = 60 * s.exact->UnionSize();
  auto samples = sampler->Sample(n, rng);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(samples->size(), n);
  const auto& stats = sampler->stats();
  // Every locally accepted tuple either stands in the delivered result,
  // was purged by a (batch-local or reconciliation) revision, or was
  // dropped by reconciliation — nothing else can happen to it.
  EXPECT_EQ(stats.accepted - stats.removed_by_revision -
                stats.reconcile_dropped,
            n);
  // An overlapping workload must actually exercise the revision path.
  EXPECT_GT(stats.revisions, 0u);
  EXPECT_GE(stats.revision_epochs, 1u);
  EXPECT_GE(stats.parallel_batches, stats.revision_epochs);
  EXPECT_GE(stats.reconciliation_seconds, 0.0);
  // Everything delivered lies inside the union.
  for (const auto& t : *samples) {
    ASSERT_TRUE(s.exact->membership().count(t.Encode()))
        << "sampled tuple outside the union";
  }
}

TEST(RevisionParallelTest, ResumeAcrossCallsMatchesEveryThreadCount) {
  // The protocol is resumable: repeated Sample calls continue it. The
  // guarantee under resumption is thread-count independence — the SAME
  // call pattern delivers the SAME bytes at every thread count (the
  // per-call revision state and per-call epoch seeds make the sequence a
  // function of the call pattern, which is the caller's contract).
  Fixture s = MakeSetup(304);
  std::vector<std::string> reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto sampler = MakeRevisionParallelSampler(s, threads,
                                               /*batch_size=*/32);
    Rng rng(305);
    std::vector<std::string> concatenated;
    for (int call = 0; call < 3; ++call) {
      auto batch = sampler->Sample(40, rng);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      for (const auto& t : *batch) concatenated.push_back(t.Encode());
    }
    if (reference.empty()) {
      reference = concatenated;
    } else {
      EXPECT_EQ(concatenated, reference) << "threads=" << threads;
    }
  }
}

TEST(RevisionParallelTest, AbandonmentFoldsAtEpochBoundaries) {
  // A join whose lying estimate is exposed during an epoch keeps its
  // weight for every batch of that epoch and is excluded from the next
  // epoch on — in the rest of the call and in every later call, which
  // therefore abandons nothing new. The fold point is part of the epoch
  // schedule, so the bytes agree across thread counts.
  Fixture s = MakeSetup(306);
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
  ASSERT_DOUBLE_EQ(s.estimates.cover_sizes.back(), 0.0);
  s.estimates.cover_sizes.back() = s.estimates.cover_sizes[0];  // the lie

  std::vector<std::string> first_call, second_call;
  for (size_t threads : {1u, 4u}) {
    UnionSampler::Options opts;
    opts.mode = UnionSampler::Mode::kRevision;
    opts.num_threads = threads;
    opts.batch_size = 32;
    opts.max_draws_per_round = 200;
    opts.sampler_factory = EwFactory(s);
    auto sampler =
        UnionSampler::Create(s.joins, {}, s.estimates, {}, opts).value();
    Rng rng(307);
    auto call1 = sampler->Sample(300, rng);
    ASSERT_TRUE(call1.ok()) << call1.status().ToString();
    ASSERT_EQ(call1->size(), 300u);
    uint64_t abandoned_after_call1 = sampler->stats().abandoned_rounds;
    EXPECT_GE(abandoned_after_call1, 1u);
    auto call2 = sampler->Sample(300, rng);
    ASSERT_TRUE(call2.ok()) << call2.status().ToString();
    EXPECT_EQ(sampler->stats().abandoned_rounds, abandoned_after_call1);
    auto enc1 = Encodings(*call1);
    auto enc2 = Encodings(*call2);
    if (threads == 1) {
      first_call = enc1;
      second_call = enc2;
    } else {
      EXPECT_EQ(enc1, first_call);
      EXPECT_EQ(enc2, second_call);
    }
  }
}

TEST(RevisionParallelTest, StatsMergeCarriesEpochCounters) {
  UnionSampleStats a;
  a.revision_epochs = 2;
  a.reconcile_dropped = 5;
  a.reconciliation_seconds = 0.25;
  UnionSampleStats b;
  b.revision_epochs = 3;
  b.reconcile_dropped = 1;
  b.reconciliation_seconds = 0.5;
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.revision_epochs, 5u);
  EXPECT_EQ(a.reconcile_dropped, 6u);
  EXPECT_DOUBLE_EQ(a.reconciliation_seconds, 0.75);
}

TEST(RevisionParallelTest, CreateValidation) {
  Fixture s = MakeSetup(308, /*num_joins=*/2);
  // Revision + factory + no probers: the lifted restriction.
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.sampler_factory = EwFactory(s);
  EXPECT_TRUE(UnionSampler::Create(s.joins, {}, s.estimates, {}, opts).ok());
  // Create-time samplers are still rejected alongside a factory.
  auto samplers = EwFactory(s)();
  ASSERT_TRUE(samplers.ok());
  EXPECT_FALSE(UnionSampler::Create(s.joins, std::move(*samplers),
                                    s.estimates, {}, opts)
                   .ok());
  // Zero batch size is still invalid.
  UnionSampler::Options zero_batch = opts;
  zero_batch.sampler_factory = EwFactory(s);
  zero_batch.batch_size = 0;
  EXPECT_FALSE(
      UnionSampler::Create(s.joins, {}, s.estimates, {}, zero_batch).ok());
}

}  // namespace
}  // namespace suj
