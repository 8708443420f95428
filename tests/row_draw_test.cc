// Row draws: the invariant ownership probing relies on, and probe
// equivalence between row draws and tuples.
//
//  * Self-containment: every draw an ExactWeightSampler, a routed
//    ShardedJoinSampler or an OlkenJoinSampler accepts is contained by
//    its own join's membership prober. OwnedBy skips that self-probe and
//    probes only the earlier joins, so a draw outside its own join would
//    be kept where the full first-owner probe rejects it. Covered: chain,
//    acyclic star, cyclic triangle, a cyclic join whose tree parent is not
//    an edge attribute's first assigner, and a join with an on-the-fly
//    predicate.
//  * A draw's encoding, written from its columns, equals the
//    materialized tuple's Encode(), and TrySample is TrySampleRows plus
//    materialization on the same RNG stream.
//  * A prober answers a row draw exactly as it answers the materialized
//    tuple, on members and non-members, including -0.0 against 0.0 and
//    NaN payloads (encoding identity, not value equality).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "join/exact_weight.h"
#include "join/membership.h"
#include "join/olken_sampler.h"
#include "join/row_draw.h"
#include "net/protocol.h"
#include "shard/shard_coordinator.h"
#include "shard/shard_plan.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeRelation;

// The join_sampler_test shape whose tree probes c on x from p although q
// assigns x first: only p's check ties the probed value to the assigned
// one.
JoinSpecPtr NonFirstAssignerJoin() {
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
  return JoinSpec::Create("five", {z, q, p, c, d},
                          {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
      .value();
}

JoinSpecPtr PredicatedChain() {
  workloads::SyntheticChainOptions options;
  options.num_joins = 1;
  options.master_rows = 40;
  options.seed = 31;
  const JoinSpecPtr chain =
      workloads::MakeOverlappingChains(options).value()[0];
  return JoinSpec::Create("chain_p", chain->relations(), {},
                          {Predicate("A1", CompareOp::kLe, Value::Int64(15))})
      .value();
}

std::vector<JoinSpecPtr> Shapes() {
  workloads::SyntheticChainOptions options;
  options.num_joins = 1;
  options.master_rows = 40;
  options.seed = 30;
  return {workloads::MakeOverlappingChains(options).value()[0],
          workloads::MakeStarJoin(30, 32).value(),
          workloads::MakeTriangleJoin(45, 33).value(), NonFirstAssignerJoin(),
          PredicatedChain()};
}

// Draws 3000 times and checks every accepted draw against `prober`.
void ExpectSelfContained(JoinSampler& sampler,
                         const JoinMembershipProberPtr& prober,
                         uint64_t seed) {
  Rng rng(seed);
  uint32_t rows[kMaxJoinRelations];
  size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    RowDraw draw{nullptr, rows};
    if (!sampler.TrySampleRows(rng, &draw)) continue;
    ++accepted;
    ASSERT_EQ(draw.spec, sampler.join().get());
    ASSERT_TRUE(prober->Contains(draw)) << draw.Materialize().ToString();
    const Tuple t = draw.Materialize();
    ASSERT_TRUE(prober->Contains(t)) << t.ToString();
    ASSERT_TRUE(OwnedBy({prober}, draw, 0));
    std::string bytes;
    draw.EncodeTo(&bytes);
    ASSERT_EQ(bytes, t.Encode());
  }
  EXPECT_GT(accepted, 100u) << "too few accepted draws to audit";
}

TEST(RowDrawTest, ExactWeightDrawsAreMembersOfTheirJoin) {
  uint64_t seed = 40;
  for (const JoinSpecPtr& join : Shapes()) {
    SCOPED_TRACE(join->name());
    CompositeIndexCache cache;
    auto sampler = ExactWeightSampler::Create(join, &cache).value();
    ExpectSelfContained(*sampler, JoinMembershipProber::Build(join).value(),
                        seed++);
  }
}

TEST(RowDrawTest, OlkenDrawsAreMembersOfTheirJoin) {
  uint64_t seed = 50;
  for (const JoinSpecPtr& join : Shapes()) {
    SCOPED_TRACE(join->name());
    CompositeIndexCache cache;
    auto sampler = OlkenJoinSampler::Create(join, &cache).value();
    ExpectSelfContained(*sampler, JoinMembershipProber::Build(join).value(),
                        seed++);
  }
}

// Routed draws come back over the canonical spec: the shard-local root row
// offset to its canonical row.
TEST(RowDrawTest, RoutedShardDrawsAreMembersOfTheCanonicalJoin) {
  uint64_t seed = 60;
  for (const JoinSpecPtr& join : Shapes()) {
    SCOPED_TRACE(join->name());
    CompositeIndexCache cache;
    ShardOptions options;
    options.num_shards = 4;
    auto plan = ShardPlanner::Plan({join}, options).value();
    auto coord = ShardCoordinator::Build(plan, &cache).value();
    auto samplers = coord->MakeSamplers().value();
    ASSERT_EQ(samplers.size(), 1u);
    ExpectSelfContained(
        *samplers[0],
        JoinMembershipProber::Build(plan->canonical_joins()[0]).value(),
        seed++);
  }
}

TEST(RowDrawTest, TrySampleIsTrySampleRowsMaterialized) {
  for (const JoinSpecPtr& join : Shapes()) {
    SCOPED_TRACE(join->name());
    CompositeIndexCache cache;
    auto by_rows = ExactWeightSampler::Create(join, &cache).value();
    auto by_tuple = ExactWeightSampler::Create(join, &cache).value();
    Rng a(70), b(70);
    uint32_t rows[kMaxJoinRelations];
    for (int i = 0; i < 500; ++i) {
      RowDraw draw{nullptr, rows};
      const bool drawn = by_rows->TrySampleRows(a, &draw);
      const std::optional<Tuple> t = by_tuple->TrySample(b);
      ASSERT_EQ(drawn, t.has_value());
      if (drawn) {
        ASSERT_EQ(draw.Materialize().Encode(), t->Encode());
      }
    }
    EXPECT_EQ(a.Next(), b.Next());
  }
}

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Draws from a one-relation join over edge-case cells, probed against a
// join over a relation that holds some of them: a draw must be contained
// exactly when its materialized tuple is.
TEST(RowDrawTest, DrawProbesAnswerAsTupleProbes) {
  const double nan_a = DoubleFromBits(0x7ff8000000000001ULL);
  const double nan_b = DoubleFromBits(0x7ff8000000000002ULL);
  const Schema schema({{"d", ValueType::kDouble}, {"s", ValueType::kString}});
  auto relation = [&](const std::string& name,
                      const std::vector<std::pair<double, std::string>>& rows) {
    RelationBuilder builder(name, schema);
    for (const auto& [d, s] : rows) {
      EXPECT_TRUE(builder.AppendRow({Value::Double(d), Value::String(s)}).ok());
    }
    return builder.Finish();
  };
  const std::string nul("a\0b", 3);
  auto target = JoinSpec::Create(
                    "target", {relation("t", {{0.0, nul},
                                              {nan_a, "pre"},
                                              {1.5, "abcdefghi"}})})
                    .value();
  auto source = JoinSpec::Create(
                    "source", {relation("s", {{0.0, nul},
                                              {-0.0, nul},
                                              {0.0, std::string("a\0c", 3)},
                                              {nan_a, "pre"},
                                              {nan_b, "pre"},
                                              {nan_a, "pref"},
                                              {1.5, "abcdefghi"},
                                              {1.5, "abcdefgh"}})})
                    .value();
  const std::vector<bool> expected = {true,  false, false, true,
                                      false, false, true,  false};
  auto prober = JoinMembershipProber::Build(target).value();
  for (uint32_t row = 0; row < expected.size(); ++row) {
    uint32_t rows[1] = {row};
    const RowDraw draw{source.get(), rows};
    EXPECT_EQ(prober->Contains(draw), expected[row]) << "row " << row;
    EXPECT_EQ(prober->Contains(draw.Materialize()), expected[row])
        << "row " << row;
  }
}

// Committed draws keep their order through Append and Truncate; a draw
// Next() handed out but nobody committed leaves no trace.
TEST(RowDrawTest, BatchKeepsCommittedDrawsInOrder) {
  workloads::SyntheticChainOptions options;
  options.num_joins = 2;
  options.master_rows = 40;
  options.seed = 80;
  auto joins = workloads::MakeOverlappingChains(options).value();
  CompositeIndexCache cache;
  auto sampler = ExactWeightSampler::Create(joins[1], &cache).value();
  RowDrawBatch batch(joins);
  std::vector<std::string> expected;
  Rng rng(81);
  for (int i = 0; i < 200; ++i) {
    RowDraw draw = batch.Next();
    if (!sampler->TrySampleRows(rng, &draw)) continue;
    if (i % 3 == 0) continue;  // drawn but not kept
    expected.push_back(draw.Materialize().Encode());
    batch.Commit(draw);
  }
  ASSERT_EQ(batch.size(), expected.size());
  RowDrawBatch joined(joins);
  joined.Append(batch);
  joined.Append(batch);
  joined.Truncate(expected.size() + 3);
  const std::vector<Tuple> tuples = joined.Materialize();
  ASSERT_EQ(tuples.size(), expected.size() + 3);
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(tuples[i].Encode(), expected[i % expected.size()]) << i;
  }
}

// The server writes a chunk body straight from draws or tuples; it must be
// the body TupleChunk::Encode writes for the same tuples' encodings.
TEST(RowDrawTest, ChunkBodyWrittenFromDrawsMatchesEncodedTuples) {
  workloads::SyntheticChainOptions options;
  options.num_joins = 2;
  options.master_rows = 40;
  options.seed = 90;
  auto joins = workloads::MakeOverlappingChains(options).value();
  CompositeIndexCache cache;
  SessionSample sample;
  sample.draws = RowDrawBatch(joins);
  net::TupleChunk reference;
  Rng rng(91);
  for (const JoinSpecPtr& join : joins) {
    auto sampler = ExactWeightSampler::Create(join, &cache).value();
    for (int i = 0; i < 50; ++i) {
      RowDraw draw = sample.draws.Next();
      if (!sampler->TrySampleRows(rng, &draw)) continue;
      sample.draws.Commit(draw);
      reference.encoded_tuples.push_back(draw.Materialize().Encode());
    }
  }
  ASSERT_FALSE(reference.encoded_tuples.empty());
  EXPECT_EQ(net::TupleChunk::EncodeSample(sample), reference.Encode());

  SessionSample as_tuples;
  as_tuples.tuples = sample.draws.Materialize();
  EXPECT_EQ(net::TupleChunk::EncodeSample(as_tuples), reference.Encode());
  EXPECT_EQ(net::TupleChunk::EncodeSample(SessionSample()),
            net::TupleChunk().Encode());
}

}  // namespace
}  // namespace suj
