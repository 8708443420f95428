// Pinned output bytes of the membership-oracle samplers.
//
// Every literal below is a hash of the exact tuple bytes one sampler
// configuration returns for a fixed seed. They were recorded once and are
// never re-derived from the code under test, so any change to how a path
// consumes its RNG or decides to accept a draw fails here, even when every
// cross-path equality test still agrees with itself. Covered: the
// sequential oracle loop, factory-built samplers at 1 and 3 worker
// threads, a 4-shard plan, Olken samplers, the Bernoulli baseline and an
// oracle service session, each over an acyclic chain union, a cyclic
// triangle union, a chain union with an on-the-fly predicate, and a small
// TPC-H UQ1 union (string and double cells).
//
// A failure prints the new hash. Update a literal only for a change that
// is meant to alter sampled bytes, and say so in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/exact_overlap.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "join/olken_sampler.h"
#include "service/sampling_service.h"
#include "shard/shard_coordinator.h"
#include "shard/shard_plan.h"
#include "workloads/synthetic.h"
#include "workloads/tpch_workloads.h"

namespace suj {
namespace {

using workloads::MakeOverlappingChains;
using workloads::SyntheticChainOptions;

// FNV-1a over each tuple's length-prefixed canonical encoding, then the
// count, so reordering, truncation and byte changes all move the hash.
uint64_t HashTuples(const std::vector<Tuple>& tuples) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<uint8_t>(p[i]);
      h *= 0x100000001b3ULL;
    }
  };
  for (const Tuple& t : tuples) {
    const std::string e = t.Encode();
    const uint32_t len = static_cast<uint32_t>(e.size());
    mix(reinterpret_cast<const char*>(&len), sizeof(len));
    mix(e.data(), e.size());
  }
  const uint64_t count = tuples.size();
  mix(reinterpret_cast<const char*>(&count), sizeof(count));
  return h;
}

enum class Kind { kExactWeight, kOlken };

UnionSampler::JoinSamplerFactory Factory(std::vector<JoinSpecPtr> joins,
                                         CompositeIndexCache* cache,
                                         Kind kind) {
  return [joins = std::move(joins), cache,
          kind]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
    std::vector<std::unique_ptr<JoinSampler>> out;
    for (const auto& join : joins) {
      if (kind == Kind::kExactWeight) {
        SUJ_ASSIGN_OR_RETURN(auto s, ExactWeightSampler::Create(join, cache));
        out.push_back(std::move(s));
      } else {
        SUJ_ASSIGN_OR_RETURN(auto s, OlkenJoinSampler::Create(join, cache));
        out.push_back(std::move(s));
      }
    }
    return out;
  };
}

// One union under test: its joins, exact estimates and probers.
struct Union {
  std::vector<JoinSpecPtr> joins;
  UnionEstimates estimates;
  std::vector<JoinMembershipProberPtr> probers;
  workloads::UnionWorkload keep_alive;
};

Union MakeUnion(std::vector<JoinSpecPtr> joins) {
  Union u;
  u.joins = std::move(joins);
  auto exact = ExactOverlapCalculator::Create(u.joins).value();
  u.estimates = ComputeUnionEstimates(exact.get()).value();
  u.probers = BuildProbers(u.joins).value();
  return u;
}

Union Chains(uint64_t seed) {
  SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 30;
  options.seed = seed;
  return MakeUnion(MakeOverlappingChains(options).value());
}

Union Triangles(uint64_t seed) {
  return MakeUnion({workloads::MakeTriangleJoin(45, seed, "t1").value(),
                    workloads::MakeTriangleJoin(45, seed + 1, "t2").value(),
                    workloads::MakeTriangleJoin(45, seed + 2, "t3").value()});
}

// The chain union with an on-the-fly predicate on the last join, so only
// some of its draws pass.
Union PredicatedChains(uint64_t seed) {
  SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 30;
  options.seed = seed;
  auto joins = MakeOverlappingChains(options).value();
  const JoinSpecPtr& last = joins.back();
  joins.back() =
      JoinSpec::Create(last->name() + "_p", last->relations(), {},
                       {Predicate("A1", CompareOp::kLe, Value::Int64(12))})
          .value();
  return MakeUnion(std::move(joins));
}

Union SmallUQ1(uint64_t seed) {
  tpch::OverlapConfig config;
  config.per_variant.scale_factor = 0.5;
  config.per_variant.seed = seed;
  config.num_variants = 3;
  config.overlap_scale = 0.3;
  auto workload = workloads::BuildUQ1(config).value();
  Union u = MakeUnion(workload.joins);
  u.keep_alive = std::move(workload);
  return u;
}

// Draws two requests (so resumption is covered) and hashes both.
uint64_t TwoRequests(UnionSampler& sampler, uint64_t seed) {
  Rng rng(seed);
  auto first = sampler.Sample(150, rng).value();
  auto second = sampler.Sample(97, rng).value();
  first.insert(first.end(), second.begin(), second.end());
  return HashTuples(first);
}

std::unique_ptr<UnionSampler> Sequential(const Union& u, Kind kind,
                                         CompositeIndexCache* cache) {
  UnionSampler::Options o;
  o.mode = UnionSampler::Mode::kMembershipOracle;
  return UnionSampler::Create(u.joins, Factory(u.joins, cache, kind)().value(),
                              u.estimates, u.probers, o)
      .value();
}

std::unique_ptr<UnionSampler> Fanned(const Union& u, Kind kind,
                                     CompositeIndexCache* cache,
                                     size_t threads) {
  UnionSampler::Options o;
  o.mode = UnionSampler::Mode::kMembershipOracle;
  o.num_threads = threads;
  o.batch_size = 32;
  o.sampler_factory = Factory(u.joins, cache, kind);
  return UnionSampler::Create(u.joins, {}, u.estimates, u.probers, o).value();
}

// Hashes of one union under every sampler configuration, in a fixed order.
struct UnionHashes {
  uint64_t sequential;
  uint64_t factory_t1;
  uint64_t factory_t3;
  uint64_t olken_sequential;
  uint64_t olken_t3;
  uint64_t bernoulli;
};

UnionHashes HashUnion(const Union& u, uint64_t seed) {
  CompositeIndexCache cache;
  UnionHashes h;
  const Kind ew = Kind::kExactWeight;
  h.sequential = TwoRequests(*Sequential(u, ew, &cache), seed);
  h.factory_t1 = TwoRequests(*Fanned(u, ew, &cache, 1), seed);
  h.factory_t3 = TwoRequests(*Fanned(u, ew, &cache, 3), seed);
  h.olken_sequential = TwoRequests(*Sequential(u, Kind::kOlken, &cache), seed);
  h.olken_t3 = TwoRequests(*Fanned(u, Kind::kOlken, &cache, 3), seed);
  auto bernoulli =
      BernoulliUnionSampler::Create(
          u.joins, Factory(u.joins, &cache, Kind::kExactWeight)().value(),
          u.estimates, u.probers)
          .value();
  Rng rng(seed);
  h.bernoulli = HashTuples(bernoulli->Sample(200, rng).value());
  return h;
}

void ExpectHashes(const UnionHashes& got, const UnionHashes& want,
                  const std::string& what) {
  EXPECT_EQ(got.sequential, want.sequential) << what << " sequential";
  EXPECT_EQ(got.factory_t1, want.factory_t1) << what << " factory t=1";
  EXPECT_EQ(got.factory_t3, want.factory_t3) << what << " factory t=3";
  EXPECT_EQ(got.olken_sequential, want.olken_sequential)
      << what << " olken sequential";
  EXPECT_EQ(got.olken_t3, want.olken_t3) << what << " olken t=3";
  EXPECT_EQ(got.bernoulli, want.bernoulli) << what << " bernoulli";
}

TEST(OraclePinnedBytesTest, ChainUnion) {
  ExpectHashes(HashUnion(Chains(901), 11),
               {14442136651772448642u, 1427427068334782035u,
                1427427068334782035u, 17106247210450172897u,
                14387686578977499591u, 847785867447475023u},
               "chains seed 901");
  ExpectHashes(HashUnion(Chains(902), 12),
               {2901073234343438673u, 3842946925932962815u,
                3842946925932962815u, 12096548641827325062u,
                17866655069878448546u, 4210608590846418441u},
               "chains seed 902");
}

TEST(OraclePinnedBytesTest, CyclicTriangleUnion) {
  ExpectHashes(HashUnion(Triangles(903), 13),
               {9685670892264140035u, 2139807522543262263u,
                2139807522543262263u, 15676329123753584381u,
                3472465473114829419u, 1042561482194640155u},
               "triangles seed 903");
  ExpectHashes(HashUnion(Triangles(904), 14),
               {9820135670608235339u, 488862808097322771u,
                488862808097322771u, 7089486917178925463u,
                1759161325586163022u, 6464519991072184148u},
               "triangles seed 904");
}

TEST(OraclePinnedBytesTest, PredicatedChainUnion) {
  ExpectHashes(HashUnion(PredicatedChains(905), 15),
               {242601513237611715u, 7323404980780161353u,
                7323404980780161353u, 10308125285880877877u,
                14312316407195974289u, 8237616543131491897u},
               "predicated seed 905");
  ExpectHashes(HashUnion(PredicatedChains(906), 16),
               {16337572770541180373u, 227570247468521152u,
                227570247468521152u, 3481146650375874785u,
                1484763900918482957u, 6598931697486259995u},
               "predicated seed 906");
}

TEST(OraclePinnedBytesTest, TpchUQ1Union) {
  ExpectHashes(HashUnion(SmallUQ1(907), 17),
               {3399164516495100801u, 3053903783721097763u,
                3053903783721097763u, 8003696427634846452u,
                4505353587783543328u, 18348903296835915173u},
               "uq1 seed 907");
  ExpectHashes(HashUnion(SmallUQ1(908), 18),
               {5887358773365150605u, 1060492113905524338u,
                1060492113905524338u, 6973845233444660945u,
                1986204249348956751u, 7046469521195844240u},
               "uq1 seed 908");
}

// A 4-shard plan over the chain union, sequential and at 3 threads.
TEST(OraclePinnedBytesTest, FourShardPlan) {
  const uint64_t want[2][2] = {{51656539124189556u, 8482333423526574355u},
                               {11658987941553563722u, 12526033463406579012u}};
  for (int i = 0; i < 2; ++i) {
    SyntheticChainOptions options;
    options.num_joins = 3;
    options.master_rows = 30;
    options.seed = 909 + i;
    auto joins = MakeOverlappingChains(options).value();
    CompositeIndexCache cache;
    ShardOptions shard;
    shard.num_shards = 4;
    auto plan = ShardPlanner::Plan(joins, shard).value();
    auto coord = ShardCoordinator::Build(plan, &cache).value();
    Union u = MakeUnion(plan->canonical_joins());
    UnionSampler::Options o;
    o.mode = UnionSampler::Mode::kMembershipOracle;
    auto sequential =
        UnionSampler::Create(u.joins, coord->MakeSamplers().value(),
                             u.estimates, u.probers, o)
            .value();
    EXPECT_EQ(TwoRequests(*sequential, 19 + i), want[i][0])
        << "shards seq " << i;
    o.num_threads = 3;
    o.batch_size = 32;
    o.sampler_factory = [coord] { return coord->MakeSamplers(); };
    auto fanned =
        UnionSampler::Create(u.joins, {}, u.estimates, u.probers, o).value();
    EXPECT_EQ(TwoRequests(*fanned, 19 + i), want[i][1]) << "shards t=3 " << i;
  }
}

// Oracle sessions of the service at 1 and 3 worker threads, with a
// stream: the in-process edge the server's wire bytes are checked against.
TEST(OraclePinnedBytesTest, ServiceOracleSessions) {
  const uint64_t want[2][2] = {{13535161763259785224u, 3465786691725185115u},
                               {11280847703657887484u, 2129595917511243462u}};
  for (int i = 0; i < 2; ++i) {
    SyntheticChainOptions options;
    options.num_joins = 3;
    options.master_rows = 30;
    options.seed = 911 + i;
    ServiceOptions service_options;
    service_options.seed = 21 + i;
    auto service = SamplingService::Create(service_options).value();
    ASSERT_TRUE(
        service->Prepare("q", MakeOverlappingChains(options).value()).ok());
    const size_t threads[2] = {1, 3};
    for (int t = 0; t < 2; ++t) {
      SessionOptions session;
      session.worker_threads = threads[t];
      session.batch_size = 32;
      const uint64_t id = service->OpenSession("q", session).value();
      std::vector<Tuple> all = service->Sample(id, 150).value();
      auto stream = service->OpenStream(id, 97).value();
      for (;;) {
        auto chunk = stream->Next().value();
        if (chunk.empty()) break;
        all.insert(all.end(), chunk.begin(), chunk.end());
      }
      EXPECT_EQ(HashTuples(all), want[i][t])
          << "service seed " << i << " threads " << threads[t];
    }
  }
}

}  // namespace
}  // namespace suj
