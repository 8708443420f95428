// Randomized differential property harness for the union-sampling stack:
// a fixed, seed-swept sweep of small random join graphs (no wall-clock or
// entropy dependence — every input is derived from the seed list below)
// asserting, per graph:
//
//  * oracle mode: the batched executor delivers byte-identical sequences
//    at every thread count (PR 2's contract — one worker draining all
//    batches IS the sequential execution of the batched schedule), and
//    the classic sequential loop stays sound on the same graph (the two
//    consume the caller's RNG differently — continuously vs. one
//    substream seed — so cross-loop byte equality is not a property);
//  * revision mode: the resumable epoch-reconciled protocol delivers the
//    same bytes one-shot and session-chunked, at 1/2/4 worker threads —
//    thread count 1 IS the sequential execution of the epoch protocol
//    (Create-time samplers run exactly that), so this is the
//    revision-mode sequential == parallel == chunked equality.
//  * accounting: the conservation identity accepted − removed_by_revision
//    − reconcile_dropped == delivered + buffered holds per sampler and
//    survives MergeFrom across call-pattern stats (and MergeFrom still
//    refuses cross-plan merges);
//  * soundness: every delivered tuple is a member of the union.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/exact_overlap.h"
#include "core/revision_state.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "service/prepared_union.h"
#include "stats/uniformity.h"
#include "storage/relation_delta.h"
#include "test_util.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeOverlappingChains;
using workloads::SyntheticChainOptions;

// The sweep: fixed seeds, fixed iteration budget. Graph shape is derived
// deterministically from each seed, so the harness explores different
// join counts / sizes / overlaps without ever touching entropy.
constexpr uint64_t kSweepSeeds[] = {800, 801, 802, 803, 804, 805};

struct GraphFixture {
  std::vector<JoinSpecPtr> joins;
  std::unique_ptr<ExactOverlapCalculator> exact;
  UnionEstimates estimates;
  std::vector<JoinMembershipProberPtr> probers;
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

GraphFixture MakeRandomGraph(uint64_t seed) {
  GraphFixture g;
  SyntheticChainOptions options;
  options.num_joins = 2 + static_cast<int>(seed % 3);       // 2..4 joins
  options.master_rows = 12 + static_cast<size_t>(seed % 5) * 4;  // 12..28
  options.seed = seed;
  g.joins = MakeOverlappingChains(options).value();
  g.exact = ExactOverlapCalculator::Create(g.joins).value();
  g.estimates = ComputeUnionEstimates(g.exact.get()).value();
  for (const auto& join : g.joins) {
    g.probers.push_back(JoinMembershipProber::Build(join).value());
  }
  return g;
}

std::vector<std::string> Encodings(const std::vector<Tuple>& samples) {
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& t : samples) out.push_back(t.Encode());
  return out;
}

// A seed-derived split of `n` into 2..4 chunks.
std::vector<size_t> DeriveSplit(uint64_t seed, size_t n) {
  Rng rng(seed * 2654435761u + 17);
  const size_t chunks = 2 + rng.UniformInt(3);
  std::vector<size_t> split;
  size_t left = n;
  for (size_t c = 1; c < chunks && left > 1; ++c) {
    size_t take = 1 + rng.UniformInt(left - 1);
    split.push_back(take);
    left -= take;
  }
  split.push_back(left);
  return split;
}

void CheckMembership(const GraphFixture& g,
                     const std::vector<Tuple>& samples) {
  for (const auto& t : samples) {
    ASSERT_TRUE(g.exact->membership().count(t.Encode()))
        << "sampled tuple outside the union";
  }
}

TEST(DifferentialPropertyTest, OracleParallelMatchesItsSequentialExecution) {
  for (uint64_t seed : kSweepSeeds) {
    GraphFixture g = MakeRandomGraph(seed);
    const size_t n = 160;

    // The classic sequential loop stays sound on every random graph.
    UnionSampler::Options seq_opts;
    seq_opts.mode = UnionSampler::Mode::kMembershipOracle;
    auto factory = g.Factory();
    auto sequential =
        UnionSampler::Create(g.joins, factory().value(), g.estimates,
                             g.probers, seq_opts)
            .value();
    Rng seq_rng(seed + 1);
    auto expect = sequential->Sample(n, seq_rng);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    ASSERT_EQ(expect->size(), n);
    CheckMembership(g, *expect);

    // The batched executor: thread count 1 is the sequential execution
    // of the batched schedule, and every other count must reproduce it.
    std::vector<std::string> reference;
    for (size_t threads : {1u, 2u, 4u}) {
      UnionSampler::Options par_opts;
      par_opts.mode = UnionSampler::Mode::kMembershipOracle;
      par_opts.num_threads = threads;
      par_opts.batch_size = 32;
      par_opts.sampler_factory = g.Factory();
      auto parallel = UnionSampler::Create(g.joins, {}, g.estimates,
                                           g.probers, par_opts)
                          .value();
      Rng par_rng(seed + 1);
      auto got = parallel->Sample(n, par_rng);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      CheckMembership(g, *got);
      if (reference.empty()) {
        reference = Encodings(*got);
      } else {
        EXPECT_EQ(Encodings(*got), reference)
            << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(DifferentialPropertyTest, RevisionOneShotEqualsChunkedEverywhere) {
  for (uint64_t seed : kSweepSeeds) {
    GraphFixture g = MakeRandomGraph(seed);
    const size_t n = 200;
    const std::vector<size_t> split = DeriveSplit(seed, n);

    std::vector<std::string> reference;
    UnionSampleStats reference_stats;
    for (size_t threads : {1u, 2u, 4u}) {
      for (bool chunked : {false, true}) {
        UnionSampler::Options opts;
        opts.mode = UnionSampler::Mode::kRevision;
        opts.num_threads = threads;
        opts.batch_size = 32;
        opts.plan_id = seed;  // exercises the MergeFrom plan guard below
        opts.sampler_factory = g.Factory();
        auto sampler =
            UnionSampler::Create(g.joins, {}, g.estimates, {}, opts).value();
        RevisionState state;
        Rng rng(seed + 2);
        std::vector<std::string> got;
        std::vector<Tuple> all;
        if (chunked) {
          for (size_t c : split) {
            auto samples = sampler->Sample(c, rng, state);
            ASSERT_TRUE(samples.ok()) << samples.status().ToString();
            ASSERT_EQ(samples->size(), c);
            for (auto& t : *samples) all.push_back(std::move(t));
          }
        } else {
          auto samples = sampler->Sample(n, rng, state);
          ASSERT_TRUE(samples.ok()) << samples.status().ToString();
          all = std::move(*samples);
        }
        ASSERT_EQ(all.size(), n);
        CheckMembership(g, all);
        got = Encodings(all);

        // Conservation identity for THIS sampler's call pattern.
        const auto& st = sampler->stats();
        EXPECT_EQ(st.accepted - st.removed_by_revision -
                      st.reconcile_dropped,
                  state.delivered() + state.buffered())
            << "seed=" << seed << " threads=" << threads
            << " chunked=" << chunked;

        if (reference.empty()) {
          reference = got;
          reference_stats = st;
        } else {
          EXPECT_EQ(got, reference)
              << "seed=" << seed << " threads=" << threads
              << " chunked=" << chunked;
          // The identity survives folding the two call patterns' stats
          // together: MergeFrom sums both sides' conservation triples.
          UnionSampleStats merged = reference_stats;
          ASSERT_TRUE(merged.MergeFrom(st).ok());
          EXPECT_EQ(merged.accepted - merged.removed_by_revision -
                        merged.reconcile_dropped,
                    2 * (state.delivered() + state.buffered()));
        }
      }
    }
  }
}

TEST(DifferentialPropertyTest, ColumnarPathIsDeterministicAcrossThreadCounts) {
  // The exact-weight hot path (flat projections + alias tables +
  // level-synchronous batched walks) must not leak scheduling into the
  // sample stream: every batch's output stays a pure function of (seed,
  // batch index), so the delivered stream is byte-identical at every
  // worker count — in oracle mode and in resumable revision mode.
  for (uint64_t seed : {810u, 813u}) {
    GraphFixture g = MakeRandomGraph(seed);
    auto factory = [&g]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
      std::vector<std::unique_ptr<JoinSampler>> out;
      for (const auto& join : g.joins) {
        auto sampler = ExactWeightSampler::Create(join, &g.cache);
        if (!sampler.ok()) return sampler.status();
        out.push_back(std::move(*sampler));
      }
      return out;
    };
    const size_t n = 160;
    std::vector<std::string> oracle_ref, revision_ref;
    for (size_t threads : {1u, 2u, 4u}) {
      UnionSampler::Options opts;
      opts.mode = UnionSampler::Mode::kMembershipOracle;
      opts.num_threads = threads;
      opts.batch_size = 32;
      opts.sampler_factory = factory;
      auto oracle =
          UnionSampler::Create(g.joins, {}, g.estimates, g.probers, opts)
              .value();
      Rng rng(seed + 3);
      auto got = oracle->Sample(n, rng);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      CheckMembership(g, *got);
      if (oracle_ref.empty()) {
        oracle_ref = Encodings(*got);
      } else {
        EXPECT_EQ(Encodings(*got), oracle_ref)
            << "oracle seed=" << seed << " threads=" << threads;
      }

      UnionSampler::Options rev;
      rev.mode = UnionSampler::Mode::kRevision;
      rev.num_threads = threads;
      rev.batch_size = 32;
      rev.sampler_factory = factory;
      auto revision =
          UnionSampler::Create(g.joins, {}, g.estimates, {}, rev).value();
      RevisionState state;
      Rng rev_rng(seed + 4);
      auto rev_got = revision->Sample(n, rev_rng, state);
      ASSERT_TRUE(rev_got.ok()) << rev_got.status().ToString();
      CheckMembership(g, *rev_got);
      if (revision_ref.empty()) {
        revision_ref = Encodings(*rev_got);
      } else {
        EXPECT_EQ(Encodings(*rev_got), revision_ref)
            << "revision seed=" << seed << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Churn harness: delta batches interleaved with Sample calls. Two
// properties, per shard count:
//  * a session pinned to epoch 0 (it holds that epoch's plan by
//    shared_ptr) delivers byte-identical streams at 1/2/4 worker threads
//    whether or not deltas land between its chunks — epochs are
//    immutable snapshots, so churn cannot leak into a pinned reader;
//  * the LATEST epoch, after all the churn, still serves a sample
//    consistent with uniformity over ITS union (the refreshed
//    estimates/weights describe the folded data correctly).

// One append/delete batch against the current epoch's base relations.
// `salt` varies the deleted row and the fresh-key values so consecutive
// batches are distinct.
RelationDelta ChurnDelta(const std::vector<JoinSpecPtr>& base_joins,
                         uint64_t salt) {
  const RelationPtr& target = base_joins[0]->relation(0);
  RelationDelta delta;
  delta.relation = target->name();
  delta.deletes = {static_cast<uint32_t>(salt % target->num_rows())};
  std::vector<Value> dup =
      target->GetTuple((salt + 1) % target->num_rows()).values();
  delta.appends.push_back(Tuple(std::move(dup)));  // duplicate-key append
  std::vector<Value> fresh;
  for (size_t c = 0; c < target->num_columns(); ++c) {
    fresh.push_back(Value::Int64(90000 + static_cast<int64_t>(salt) * 16 +
                                 static_cast<int64_t>(c)));
  }
  delta.appends.push_back(Tuple(std::move(fresh)));  // fresh-key append
  return delta;
}

// Chunked kRevision draws from one plan; `between` (if set) runs after
// every chunk — the churn runs use it to apply a delta batch mid-stream.
std::vector<std::string> DrawChunkedRevision(
    const PreparedUnionPtr& plan, size_t threads, uint64_t seed,
    const std::vector<size_t>& chunks,
    const std::function<void(size_t)>& between) {
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = threads;
  opts.batch_size = 32;
  opts.sampler_factory = plan->MakeJoinSamplerFactory();
  auto sampler =
      UnionSampler::Create(plan->joins(), {}, plan->estimates(), {}, opts)
          .value();
  RevisionState state;
  Rng rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto samples = sampler->Sample(chunks[i], rng, state);
    EXPECT_TRUE(samples.ok()) << samples.status().ToString();
    if (!samples.ok()) return out;
    for (const auto& t : *samples) out.push_back(t.Encode());
    if (between) between(i);
  }
  return out;
}

TEST(DifferentialPropertyTest, ChurnPinnedEpochsStayByteIdenticalAndUniform) {
  const uint64_t seed = 830;
  SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 24;
  options.seed = seed;
  auto joins = MakeOverlappingChains(options).value();
  const std::vector<size_t> chunks = {60, 20, 70};

  for (int num_shards : {1, 4}) {
    PreparedQueryOptions prep;
    prep.shard.num_shards = num_shards;
    QueryRegistry registry;
    auto pinned = registry.Prepare("churn", joins, prep).value();
    ASSERT_EQ(pinned->data_epoch(), 0u);

    // The no-churn reference: same plan content, cold-built, untouched.
    auto control =
        PreparedUnion::Build("churn-control", 99, joins, prep).value();

    uint64_t salt = 0;
    for (size_t threads : {1u, 2u, 4u}) {
      auto reference =
          DrawChunkedRevision(control, threads, seed + 7, chunks, nullptr);
      auto got = DrawChunkedRevision(
          pinned, threads, seed + 7, chunks, [&](size_t) {
            auto latest = registry.Get("churn").value();
            auto next = registry.ApplyDelta(
                "churn", {ChurnDelta(latest->base_joins(), salt++)});
            ASSERT_TRUE(next.ok()) << next.status().ToString();
            ASSERT_EQ(next.value()->data_epoch(),
                      latest->data_epoch() + 1);
          });
      EXPECT_EQ(got, reference)
          << "shards=" << num_shards << " threads=" << threads;
    }
    // The pinned plan never moved; the family did.
    EXPECT_EQ(pinned->data_epoch(), 0u);
    EXPECT_EQ(pinned->latest_epoch(), salt);
    ASSERT_GT(salt, 0u);

    // Post-churn: the latest epoch is uniform over ITS (folded) union.
    auto latest = registry.Get("churn").value();
    ASSERT_EQ(latest->data_epoch(), salt);
    auto exact = ExactOverlapCalculator::Create(latest->joins()).value();
    UnionSampler::Options opts;
    opts.mode = UnionSampler::Mode::kRevision;
    opts.num_threads = 2;
    opts.batch_size = 64;
    opts.sampler_factory = latest->MakeJoinSamplerFactory();
    auto sampler = UnionSampler::Create(latest->joins(), {},
                                        latest->estimates(), {}, opts)
                       .value();
    Rng rng(seed + 11);
    const size_t universe = exact->UnionSize();
    ASSERT_GT(universe, 0u);
    const size_t n = 60 * universe;
    auto samples = sampler->Sample(n, rng);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    for (const auto& t : *samples) {
      ASSERT_TRUE(exact->membership().count(t.Encode()))
          << "post-churn sample outside the folded union";
    }
    auto result = ChiSquareUniformityTest(*samples, universe);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->ConsistentWithUniform(/*alpha=*/1e-4))
        << "shards=" << num_shards << " chi2=" << result->statistic
        << " df=" << result->degrees_of_freedom
        << " p=" << result->p_value;
  }
}

TEST(DifferentialPropertyTest, MergeFromStillRefusesCrossPlanStats) {
  UnionSampleStats a;
  a.plan_id = 900;
  a.accepted = 10;
  UnionSampleStats b;
  b.plan_id = 901;
  b.accepted = 5;
  EXPECT_EQ(a.MergeFrom(b).code(), StatusCode::kInvalidArgument);
  b.plan_id = 900;
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.accepted, 15u);
}

}  // namespace
}  // namespace suj
