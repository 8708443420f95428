// Cross-shard determinism & conformance suite for src/shard/ — the
// contract that makes horizontal sharding invisible to clients:
//
//  * the canonical (vp-major) root order is a pure function of the data
//    and the virtual-partition count, NOT of the shard count, and every
//    shard plan partitions the canonical rows exactly;
//  * ShardMergedOverlapEstimator equals the canonical exact calculator
//    to the last bit (shard root slices partition every join result and
//    every intersection), so sharded warm-ups are provably identical;
//  * oracle mode: a sharded union sampler at K in {1,2,4,8} shards is
//    byte-identical to the unsharded exact-weight sampler over the same
//    canonical specs, at 1/2/4 worker threads, for both partition
//    schemes (comparisons are at EQUAL thread counts — thread count
//    changes how the caller RNG is consumed, sharding must not);
//  * revision mode: the resumable protocol delivers the same bytes
//    one-shot and split-across-calls on every shard count;
//  * hash-routed membership probers agree with the canonical probers on
//    every union member and on non-members;
//  * the full serving stack (PreparedUnion + SamplingSession) delivers
//    byte-identical streams from a sharded plan and its unsharded
//    reference in all three session modes (oracle / online / revision).
//
// Runs under the TSan CI job (`concurrency` label): the parallel
// executor fans sharded samplers out across worker threads.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/wire.h"
#include "core/exact_overlap.h"
#include "core/revision_state.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "obs/metrics.h"
#include "service/prepared_union.h"
#include "service/session.h"
#include "shard/shard_coordinator.h"
#include "shard/shard_plan.h"
#include "test_util.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeOverlappingChains;
using workloads::SyntheticChainOptions;

constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kThreadCounts[] = {1, 2, 4};

std::vector<JoinSpecPtr> MakeJoins(uint64_t seed) {
  SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 24;
  options.seed = seed;
  return MakeOverlappingChains(options).value();
}

// A sharded execution context. The cache member must precede the
// coordinator: per-shard EW indexes dedupe shared children through it,
// so it has to outlive them.
struct ShardedSetup {
  CompositeIndexCache cache;
  ShardPlanPtr plan;
  std::shared_ptr<ShardCoordinator> coord;
};

std::unique_ptr<ShardedSetup> MakeSharded(
    const std::vector<JoinSpecPtr>& joins, int num_shards,
    ShardScheme scheme = ShardScheme::kHashKey) {
  auto s = std::make_unique<ShardedSetup>();
  ShardOptions options;
  options.num_shards = num_shards;
  options.scheme = scheme;
  s->plan = ShardPlanner::Plan(joins, options).value();
  s->coord = ShardCoordinator::Build(s->plan, &s->cache).value();
  return s;
}

// The unsharded byte-identity reference: plain exact-weight samplers over
// the canonical specs.
UnionSampler::JoinSamplerFactory UnshardedFactory(
    std::vector<JoinSpecPtr> joins, CompositeIndexCache* cache) {
  return [joins = std::move(joins),
          cache]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
    std::vector<std::unique_ptr<JoinSampler>> out;
    for (const auto& join : joins) {
      auto sampler = ExactWeightSampler::Create(join, cache);
      if (!sampler.ok()) return sampler.status();
      out.push_back(std::move(*sampler));
    }
    return out;
  };
}

UnionSampler::JoinSamplerFactory ShardFactory(
    std::shared_ptr<ShardCoordinator> coord) {
  return [coord = std::move(coord)]() { return coord->MakeSamplers(); };
}

std::vector<std::string> Encodings(const std::vector<Tuple>& samples) {
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& t : samples) out.push_back(t.Encode());
  return out;
}

std::vector<std::string> RelationRows(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(rel.num_rows());
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    std::vector<Value> values;
    for (size_t c = 0; c < rel.schema().num_fields(); ++c) {
      values.push_back(rel.GetValue(r, c));
    }
    out.push_back(Tuple(std::move(values)).Encode());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Plan-level invariants

TEST(ShardPlanTest, CanonicalOrderIsShardCountInvariant) {
  for (uint64_t seed : {700u, 701u}) {
    auto joins = MakeJoins(seed);
    for (ShardScheme scheme :
         {ShardScheme::kHashKey, ShardScheme::kRowRange}) {
      // K=1 defines the canonical order for this scheme; every other
      // shard count must reproduce it exactly and slice it contiguously.
      std::vector<std::vector<std::string>> reference;
      for (int k : kShardCounts) {
        ShardOptions options;
        options.num_shards = k;
        options.scheme = scheme;
        auto plan = ShardPlanner::Plan(joins, options).value();
        ASSERT_EQ(plan->num_joins(), joins.size());
        for (size_t j = 0; j < plan->num_joins(); ++j) {
          const ShardedJoinPlan& jp = plan->join_plan(j);
          const Relation& root = *jp.canonical->relations()[jp.root];
          auto rows = RelationRows(root);
          if (k == kShardCounts[0]) {
            // The canonical root is a permutation of the input root.
            const Relation& input = *joins[j]->relations()[jp.root];
            auto input_rows = RelationRows(input);
            EXPECT_EQ(std::multiset<std::string>(rows.begin(), rows.end()),
                      std::multiset<std::string>(input_rows.begin(),
                                                 input_rows.end()))
                << "seed=" << seed << " join=" << j;
            reference.push_back(rows);
          } else {
            EXPECT_EQ(rows, reference[j])
                << "seed=" << seed << " scheme="
                << static_cast<int>(scheme) << " shards=" << k
                << " join=" << j;
          }
          // Shard slices partition the canonical rows.
          ASSERT_EQ(jp.row_begin.size(), static_cast<size_t>(k) + 1);
          EXPECT_EQ(jp.row_begin.front(), 0u);
          EXPECT_EQ(jp.row_begin.back(), root.num_rows());
          for (int s = 0; s < k; ++s) {
            ASSERT_LE(jp.row_begin[s], jp.row_begin[s + 1]);
            const Relation& slice =
                *jp.shard_specs[s]->relations()[jp.root];
            EXPECT_EQ(slice.num_rows(),
                      jp.row_begin[s + 1] - jp.row_begin[s]);
          }
          // vp-major: the virtual-partition sequence is non-decreasing.
          for (size_t r = 1; r < jp.vp_of_row.size(); ++r) {
            ASSERT_GE(jp.vp_of_row[r], jp.vp_of_row[r - 1]);
          }
        }
      }
    }
  }
}

TEST(ShardPlanTest, MergedOverlapEstimatorEqualsCanonicalExactly) {
  auto joins = MakeJoins(702);
  auto base = MakeSharded(joins, 1);
  auto exact =
      ExactOverlapCalculator::Create(base->plan->canonical_joins()).value();
  const SubsetMask full = (SubsetMask{1} << joins.size()) - 1;
  for (int k : kShardCounts) {
    // kRowRange exercises the canonical-fallback path (range slices are
    // not content-addressed, so per-shard merging would undercount
    // cross-shard intersections); kHashKey the true per-shard merge.
    for (ShardScheme scheme :
         {ShardScheme::kHashKey, ShardScheme::kRowRange}) {
      auto range_sharded = MakeSharded(joins, k, scheme);
      auto range_merged =
          ShardMergedOverlapEstimator::Create(range_sharded->plan).value();
      for (SubsetMask mask = 1; mask <= full; ++mask) {
        EXPECT_EQ(range_merged->EstimateOverlap(mask).value(),
                  exact->EstimateOverlap(mask).value())
            << "shards=" << k << " scheme=" << static_cast<int>(scheme)
            << " mask=" << mask;
      }
    }
    auto sharded = MakeSharded(joins, k);
    auto merged = ShardMergedOverlapEstimator::Create(sharded->plan).value();
    EXPECT_FALSE(merged->IsUpperBound());
    for (SubsetMask mask = 1; mask <= full; ++mask) {
      // Bit-exact, not approximate: overlaps are integer counts and the
      // shard slices partition every intersection.
      EXPECT_EQ(merged->EstimateOverlap(mask).value(),
                exact->EstimateOverlap(mask).value())
          << "shards=" << k << " mask=" << mask;
    }
    // The coordinator's weight ledger merges exactly too: sum_s w_s ==
    // sum_j TotalWeight_j (verified internally by RefreshWeights, which
    // fails the Build if the invariant breaks; re-check the exposed
    // numbers anyway).
    double ledger = 0.0;
    for (double w : sharded->coord->shard_union_weights()) ledger += w;
    double direct = 0.0;
    for (size_t j = 0; j < joins.size(); ++j) {
      direct += sharded->coord->join_index(static_cast<int>(j))
                    ->TotalWeight();
    }
    EXPECT_EQ(ledger, direct) << "shards=" << k;
    EXPECT_GE(sharded->coord->weight_refreshes(), 1u);
    ASSERT_TRUE(sharded->coord->RefreshWeights().ok());
  }
}

TEST(ShardPlanTest, RoutedProbersMatchCanonicalOnMembersAndNonMembers) {
  auto joins = MakeJoins(703);
  auto base = MakeSharded(joins, 1);
  const auto& canonical = base->plan->canonical_joins();
  auto exact = ExactOverlapCalculator::Create(canonical).value();
  for (int k : {2, 4, 8}) {
    auto sharded = MakeSharded(joins, k);
    auto routed = sharded->coord->BuildRoutedProbers().value();
    std::vector<JoinMembershipProberPtr> plain;
    for (const auto& join : sharded->plan->canonical_joins()) {
      plain.push_back(JoinMembershipProber::Build(join).value());
    }
    ASSERT_EQ(routed.size(), plain.size());
    for (const auto& [encoded, multiplicity] : exact->membership()) {
      Tuple t = DecodeTuple(encoded).value();
      for (size_t j = 0; j < routed.size(); ++j) {
        EXPECT_EQ(routed[j]->Contains(t), plain[j]->Contains(t))
            << "shards=" << k << " join=" << j;
      }
    }
    // A tuple outside every join routes somewhere and answers false.
    std::vector<Value> absent;
    for (size_t c = 0; c < canonical[0]->output_schema().num_fields();
         ++c) {
      absent.push_back(Value::Int64(987654321 + static_cast<int64_t>(c)));
    }
    Tuple missing(std::move(absent));
    for (size_t j = 0; j < routed.size(); ++j) {
      EXPECT_FALSE(routed[j]->Contains(missing)) << "shards=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Union-protocol byte identity

TEST(ShardDeterminismTest, OracleShardedMatchesUnsharded) {
  for (uint64_t seed : {710u, 711u}) {
    auto joins = MakeJoins(seed);
    const size_t n = 150;
    for (ShardScheme scheme :
         {ShardScheme::kHashKey, ShardScheme::kRowRange}) {
      auto base = MakeSharded(joins, 1, scheme);
      const auto& canonical = base->plan->canonical_joins();
      auto exact = ExactOverlapCalculator::Create(canonical).value();
      auto estimates = ComputeUnionEstimates(exact.get()).value();
      std::vector<JoinMembershipProberPtr> plain_probers;
      for (const auto& join : canonical) {
        plain_probers.push_back(JoinMembershipProber::Build(join).value());
      }

      // Reference per thread count: the unsharded sampler over the
      // canonical specs. Thread count changes how the caller RNG is
      // consumed, so each sharded run compares at ITS thread count.
      std::vector<std::vector<std::string>> reference;
      for (size_t threads : kThreadCounts) {
        UnionSampler::Options opts;
        opts.mode = UnionSampler::Mode::kMembershipOracle;
        opts.num_threads = threads;
        opts.batch_size = 32;
        opts.sampler_factory = UnshardedFactory(canonical, &base->cache);
        auto sampler = UnionSampler::Create(canonical, {}, estimates,
                                            plain_probers, opts)
                           .value();
        Rng rng(seed + 1);
        auto got = sampler->Sample(n, rng);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        reference.push_back(Encodings(*got));
        for (const auto& t : *got) {
          ASSERT_TRUE(exact->membership().count(t.Encode()));
        }
      }

      for (int k : kShardCounts) {
        auto sharded = MakeSharded(joins, k, scheme);
        auto merged =
            ShardMergedOverlapEstimator::Create(sharded->plan).value();
        auto shard_estimates = ComputeUnionEstimates(merged.get()).value();
        auto probers = scheme == ShardScheme::kHashKey
                           ? sharded->coord->BuildRoutedProbers().value()
                           : plain_probers;
        for (size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
          UnionSampler::Options opts;
          opts.mode = UnionSampler::Mode::kMembershipOracle;
          opts.num_threads = kThreadCounts[ti];
          opts.batch_size = 32;
          opts.sampler_factory = ShardFactory(sharded->coord);
          auto sampler =
              UnionSampler::Create(sharded->coord->joins(), {},
                                   shard_estimates, probers, opts)
                  .value();
          Rng rng(seed + 1);
          auto got = sampler->Sample(n, rng);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(Encodings(*got), reference[ti])
              << "seed=" << seed << " scheme="
              << static_cast<int>(scheme) << " shards=" << k
              << " threads=" << kThreadCounts[ti];
        }
      }
    }
  }
}

TEST(ShardDeterminismTest, RevisionOneShotEqualsChunkedOnEveryShardCount) {
  const uint64_t seed = 712;
  auto joins = MakeJoins(seed);
  const size_t n = 180;
  const std::vector<size_t> split = {47, 1, 90, 42};

  auto base = MakeSharded(joins, 1);
  const auto& canonical = base->plan->canonical_joins();
  auto exact = ExactOverlapCalculator::Create(canonical).value();
  auto estimates = ComputeUnionEstimates(exact.get()).value();

  // Reference per thread count: unsharded, one-shot.
  std::vector<std::vector<std::string>> reference;
  for (size_t threads : kThreadCounts) {
    UnionSampler::Options opts;
    opts.mode = UnionSampler::Mode::kRevision;
    opts.num_threads = threads;
    opts.batch_size = 32;
    opts.sampler_factory = UnshardedFactory(canonical, &base->cache);
    auto sampler =
        UnionSampler::Create(canonical, {}, estimates, {}, opts).value();
    RevisionState state;
    Rng rng(seed + 2);
    auto got = sampler->Sample(n, rng, state);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    reference.push_back(Encodings(*got));
  }

  for (int k : kShardCounts) {
    auto sharded = MakeSharded(joins, k);
    auto merged = ShardMergedOverlapEstimator::Create(sharded->plan).value();
    auto shard_estimates = ComputeUnionEstimates(merged.get()).value();
    for (size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
      for (bool chunked : {false, true}) {
        UnionSampler::Options opts;
        opts.mode = UnionSampler::Mode::kRevision;
        opts.num_threads = kThreadCounts[ti];
        opts.batch_size = 32;
        opts.sampler_factory = ShardFactory(sharded->coord);
        auto sampler = UnionSampler::Create(sharded->coord->joins(), {},
                                            shard_estimates, {}, opts)
                           .value();
        RevisionState state;
        Rng rng(seed + 2);
        std::vector<Tuple> all;
        if (chunked) {
          for (size_t c : split) {
            auto samples = sampler->Sample(c, rng, state);
            ASSERT_TRUE(samples.ok()) << samples.status().ToString();
            for (auto& t : *samples) all.push_back(std::move(t));
          }
        } else {
          auto samples = sampler->Sample(n, rng, state);
          ASSERT_TRUE(samples.ok()) << samples.status().ToString();
          all = std::move(*samples);
        }
        ASSERT_EQ(all.size(), n);
        EXPECT_EQ(Encodings(all), reference[ti])
            << "shards=" << k << " threads=" << kThreadCounts[ti]
            << " chunked=" << chunked;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serving-stack byte identity: PreparedUnion + SamplingSession

std::vector<std::string> SessionRun(const PreparedUnionPtr& plan,
                                    SessionOptions::Mode mode,
                                    size_t threads) {
  SessionOptions opts;
  opts.mode = mode;
  opts.worker_threads = threads;
  opts.batch_size = 32;
  auto session = SamplingSession::Create(1, plan, opts, Rng(777)).value();
  // Chunked on purpose: resuming across calls is the session contract.
  std::vector<std::string> out;
  for (size_t c : {40u, 3u, 77u}) {
    auto chunk = session->Sample(c);
    EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk.ok()) return out;
    for (const auto& t : *chunk) out.push_back(t.Encode());
  }
  return out;
}

TEST(ShardDeterminismTest, ServiceSessionsMatchUnshardedInEveryMode) {
  const uint64_t seed = 720;
  auto joins = MakeJoins(seed);
  // The reference plan: unsharded, over the canonical specs.
  auto base_plan = ShardPlanner::Plan(joins, ShardOptions()).value();
  auto reference_plan =
      PreparedUnion::Build("shard-ref", 1, base_plan->canonical_joins(),
                           PreparedQueryOptions())
          .value();

  const SessionOptions::Mode kModes[] = {SessionOptions::Mode::kOracle,
                                         SessionOptions::Mode::kOnline,
                                         SessionOptions::Mode::kRevision};
  uint64_t plan_id = 2;
  for (int k : {2, 4, 8}) {
    PreparedQueryOptions opts;
    opts.shard.num_shards = k;
    auto plan =
        PreparedUnion::Build("shard-" + std::to_string(k), plan_id++,
                             joins, opts)
            .value();
    ASSERT_NE(plan->shards(), nullptr);
    EXPECT_EQ(plan->shards()->num_shards(), k);
    EXPECT_TRUE(plan->weight_indexes().empty());
    for (SessionOptions::Mode mode : kModes) {
      for (size_t threads : kThreadCounts) {
        auto reference = SessionRun(reference_plan, mode, threads);
        auto got = SessionRun(plan, mode, threads);
        EXPECT_EQ(got, reference)
            << "shards=" << k << " mode=" << static_cast<int>(mode)
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardDeterminismTest, RowRangeOverlapDelegationIsCounted) {
  // kRowRange warm-ups are NOT shard-local: range slices are not
  // content-addressed, so the merged estimator silently delegates to one
  // canonical ExactOverlapCalculator (still exact, but centralized).
  // That delegation is surfaced via suj_shard_overlap_delegated_total so
  // operators can see kRowRange plans pay a central warm-up; this pins
  // the counter to exactly one bump per kRowRange estimator build and
  // none for kHashKey (which truly merges per shard).
  auto joins = MakeJoins(722);
  obs::Counter* const delegated = obs::MetricsRegistry::Global().GetCounter(
      "suj_shard_overlap_delegated_total");

  uint64_t before = delegated->Value();
  auto hashed = MakeSharded(joins, 4, ShardScheme::kHashKey);
  ASSERT_TRUE(
      ShardMergedOverlapEstimator::Create(hashed->plan).ok());
  EXPECT_EQ(delegated->Value(), before) << "kHashKey must not delegate";

  before = delegated->Value();
  auto ranged = MakeSharded(joins, 4, ShardScheme::kRowRange);
  ASSERT_TRUE(
      ShardMergedOverlapEstimator::Create(ranged->plan).ok());
  EXPECT_EQ(delegated->Value(), before + 1)
      << "kRowRange delegates exactly once per estimator build";
}

TEST(ShardDeterminismTest, FailedShardSurfacesAsUnavailable) {
  auto joins = MakeJoins(721);
  PreparedQueryOptions opts;
  opts.shard.num_shards = 4;
  auto plan = PreparedUnion::Build("shard-fail", 9, joins, opts).value();
  SessionOptions sopts;
  auto session = SamplingSession::Create(1, plan, sopts, Rng(5)).value();
  ASSERT_TRUE(session->Sample(10).ok());

  plan->shards()->FailShard(2);
  EXPECT_TRUE(plan->shards()->shard_failed(2));
  const uint64_t before = plan->shards()->unavailable_errors();
  auto blocked = session->Sample(10);
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(plan->shards()->unavailable_errors(), before);

  // Restore and resume: the session picks up where it left off.
  plan->shards()->RestoreShard(2);
  EXPECT_FALSE(plan->shards()->shard_failed(2));
  auto resumed = session->Sample(10);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->size(), 10u);
}

}  // namespace
}  // namespace suj
