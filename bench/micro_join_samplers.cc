// google-benchmark micro-benchmarks for the join/union sampling stack:
// EW / EO / wander-join draw throughput, weight-index construction,
// membership probes, and the batched (optionally parallel) union sampler.
//
// bench/check_regression.py gates CI on the JSON output of this binary
// against bench/baselines/micro_join_samplers.json; keep benchmark names
// stable or refresh the baseline in the same change.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/revision_state.h"
#include "join/membership.h"
#include "join/wander_join.h"
#include "obs/metrics.h"
#include "service/prepared_union.h"
#include "shard/shard_coordinator.h"
#include "shard/shard_plan.h"

namespace suj {
namespace bench {
namespace {

// One UQ1-style chain join at the given scale (built once per process).
JoinSpecPtr ChainJoin(double scale) {
  static std::map<double, JoinSpecPtr> cache;
  auto it = cache.find(scale);
  if (it != cache.end()) return it->second;
  auto workload = Unwrap(
      workloads::BuildUQ1(UQ1Config(scale, 0.2, /*num_variants=*/1)),
      "UQ1");
  cache[scale] = workload.joins[0];
  return workload.joins[0];
}

void BM_ExactWeightBuild(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(state.range(0) / 10.0);
  for (auto _ : state) {
    CompositeIndexCache cache;
    auto index = ExactWeightIndex::Build(join, &cache);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_ExactWeightBuild)->Arg(5)->Arg(10)->Arg(20);

// Columnar descent (the default): alias-table root draw, probe-array
// walks, first-assigner materialization.
void BM_ExactWeightSample(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(state.range(0) / 10.0);
  CompositeIndexCache cache;
  auto sampler = Unwrap(ExactWeightSampler::Create(join, &cache), "EW");
  Rng rng(1);
  for (auto _ : state) {
    auto t = sampler->TrySample(rng);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactWeightSample)->Arg(5)->Arg(10)->Arg(20);

// Level-synchronous batched columnar walks with software prefetch across
// in-flight walks (ExactWeightSampler::TrySampleBatch).
void BM_ExactWeightSampleBatch(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(state.range(0) / 10.0);
  CompositeIndexCache cache;
  auto sampler = Unwrap(ExactWeightSampler::Create(join, &cache), "EW");
  Rng rng(1);
  const size_t kBatch = 64;
  std::vector<Tuple> out;
  for (auto _ : state) {
    out.clear();
    size_t produced = sampler->TrySampleBatch(kBatch, rng, &out);
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_ExactWeightSampleBatch)->Arg(5)->Arg(10)->Arg(20);

void BM_OlkenSample(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(state.range(0) / 10.0);
  CompositeIndexCache cache;
  auto sampler = Unwrap(OlkenJoinSampler::Create(join, &cache), "EO");
  Rng rng(2);
  for (auto _ : state) {
    auto t = sampler->TrySample(rng);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OlkenSample)->Arg(5)->Arg(10)->Arg(20);

void BM_WanderJoinWalk(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(state.range(0) / 10.0);
  CompositeIndexCache cache;
  auto sampler = Unwrap(WanderJoinSampler::Create(join, &cache), "WJ");
  Rng rng(3);
  for (auto _ : state) {
    WalkOutcome outcome = sampler->Walk(rng);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WanderJoinWalk)->Arg(5)->Arg(10)->Arg(20);

void BM_MembershipProbe(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(1.0);
  auto prober = Unwrap(JoinMembershipProber::Build(join), "prober");
  CompositeIndexCache cache;
  auto sampler = Unwrap(ExactWeightSampler::Create(join, &cache), "EW");
  Rng rng(4);
  Tuple t = Unwrap(sampler->Sample(rng), "sample");
  for (auto _ : state) {
    bool in = prober->Contains(t);
    benchmark::DoNotOptimize(in);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MembershipProbe);

// The union workload is shared with bench_fig_parallel_scaling via
// bench_util.h (built once per process here).
UnionMicroWorkload& UnionSetup() {
  static UnionMicroWorkload* workload =
      new UnionMicroWorkload(BuildUnionMicroWorkload());
  return *workload;
}

// The classic sequential Algorithm-1 loop (no executor), as the 1x anchor.
void BM_UnionSampleSequential(benchmark::State& state) {
  UnionMicroWorkload& f = UnionSetup();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  auto sampler = Unwrap(
      UnionSampler::Create(f.joins, Unwrap(UnionMicroEwFactory(&f)(), "EW"),
                           f.estimates, f.probers, opts),
      "union sampler");
  Rng rng(11);
  const size_t kDraw = 4096;
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleSequential)->UseRealTime();

// The identical loop with every obs instrument frozen: the CI perf gate
// compares this against BM_UnionSampleSequential (same run) and asserts
// metrics-on costs <= 5% — the observability overhead budget.
void BM_UnionSampleSequentialMetricsOff(benchmark::State& state) {
  UnionMicroWorkload& f = UnionSetup();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  auto sampler = Unwrap(
      UnionSampler::Create(f.joins, Unwrap(UnionMicroEwFactory(&f)(), "EW"),
                           f.estimates, f.probers, opts),
      "union sampler");
  Rng rng(11);
  const size_t kDraw = 4096;
  obs::SetMetricsEnabled(false);
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  obs::SetMetricsEnabled(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleSequentialMetricsOff)->UseRealTime();

// Batched executor path at 1..8 worker threads. Real time (not CPU time):
// the pool burns CPU on every core; wall clock is the quantity that scales.
void BM_UnionSampleParallel(benchmark::State& state) {
  UnionMicroWorkload& f = UnionSetup();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.batch_size = 512;
  opts.sampler_factory = UnionMicroEwFactory(&f);
  auto sampler = Unwrap(UnionSampler::Create(f.joins, {}, f.estimates,
                                             f.probers, opts),
                        "union sampler");
  Rng rng(12);
  const size_t kDraw = 4096;
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The revision epoch driver (decentralized Algorithm 1) over Create-time
// samplers, i.e. its one-context worker pool: the 1x anchor for the
// factory-built rows below, which run the same driver. The CI perf gate
// asserts the 4-thread row stays >= 1.5x faster than this (same-run
// comparison; see .github/workflows/ci.yml).
void BM_UnionSampleRevisionSequential(benchmark::State& state) {
  UnionMicroWorkload& f = UnionSetup();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  auto sampler = Unwrap(
      UnionSampler::Create(f.joins, Unwrap(UnionMicroEwFactory(&f)(), "EW"),
                           f.estimates, {}, opts),
      "union sampler");
  Rng rng(13);
  const size_t kDraw = 4096;
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleRevisionSequential)->UseRealTime();

// Epoch-reconciled revision protocol at 1..8 worker threads
// (core/ownership_map.h): every row draws the byte-identical sequence;
// wall clock is what the epochs buy.
void BM_UnionSampleRevisionParallel(benchmark::State& state) {
  UnionMicroWorkload& f = UnionSetup();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.batch_size = 512;
  opts.sampler_factory = UnionMicroEwFactory(&f);
  auto sampler = Unwrap(UnionSampler::Create(f.joins, {}, f.estimates, {},
                                             opts),
                        "union sampler");
  Rng rng(14);
  const size_t kDraw = 4096;
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleRevisionParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Session-style resumable revision protocol (core/revision_state.h): the
// same 4096-tuple total drawn as range(0) chunked Sample calls per
// iteration against ONE long-lived RevisionState at 4 worker threads.
// The learned cover, epoch schedule, and buffered surplus carry across
// chunks (and iterations), so chunking adds only call dispatch and
// buffer drains — never extra epochs or re-learned covers. CI asserts
// the chunked row stays within 1.25x of the one-shot row (same-run
// --require-speedup with ratio 0.8; see .github/workflows/ci.yml).
void BM_UnionSampleRevisionResume(benchmark::State& state) {
  UnionMicroWorkload& f = UnionSetup();
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = 4;
  opts.batch_size = 512;
  opts.sampler_factory = UnionMicroEwFactory(&f);
  auto sampler = Unwrap(UnionSampler::Create(f.joins, {}, f.estimates, {},
                                             opts),
                        "union sampler");
  Rng rng(15);
  RevisionState revision_state;
  const size_t kDraw = 4096;
  const size_t chunks = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    size_t left = kDraw;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t take = c + 1 == chunks ? left : kDraw / chunks;
      auto samples = sampler->Sample(take, rng, revision_state);
      UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
      benchmark::DoNotOptimize(samples);
      left -= take;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleRevisionResume)->Arg(1)->Arg(8)->UseRealTime();

// Sharded execution context over the union micro workload (built once
// per shard count): prepare-time hash shard plan + coordinator whose
// routed samplers stand in for the plain per-join samplers, with union
// estimates from the per-shard merged overlap calculators and
// hash-routed membership probers. The cache member precedes the
// coordinator so per-shard indexes (which dedupe shared children
// through it) never outlive it.
struct ShardedUnionSetup {
  CompositeIndexCache cache;
  ShardPlanPtr plan;
  ShardCoordinatorPtr coord;
  UnionEstimates estimates;
  std::vector<JoinMembershipProberPtr> probers;
};

ShardedUnionSetup& ShardedUnionAt(int shards) {
  static std::map<int, ShardedUnionSetup*> cache;
  auto it = cache.find(shards);
  if (it != cache.end()) return *it->second;
  UnionMicroWorkload& f = UnionSetup();
  auto* s = new ShardedUnionSetup;
  ShardOptions options;
  options.num_shards = shards;
  s->plan = Unwrap(ShardPlanner::Plan(f.joins, options), "shard plan");
  s->coord = Unwrap(ShardCoordinator::Build(s->plan, &s->cache),
                    "shard coordinator");
  auto merged =
      Unwrap(ShardMergedOverlapEstimator::Create(s->plan, &s->cache),
             "merged overlap");
  s->estimates = Unwrap(ComputeUnionEstimates(merged.get()), "estimates");
  s->probers = Unwrap(s->coord->BuildRoutedProbers(), "routed probers");
  cache[shards] = s;
  return *s;
}

// Oracle-mode union draws through the shard coordinator's routed
// samplers at 1/2/4 shards. Routed draws run the same columnar descent as
// BM_UnionSampleSequential (one alias root draw over the concatenated
// shard root weights, then the owning shard's descent), so that row is the
// routing overhead anchor; the 1-shard row isolates coordinator dispatch
// from fan-out.
void BM_UnionSampleSharded(benchmark::State& state) {
  ShardedUnionSetup& s = ShardedUnionAt(static_cast<int>(state.range(0)));
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kMembershipOracle;
  auto sampler = Unwrap(
      UnionSampler::Create(s.plan->canonical_joins(),
                           Unwrap(s.coord->MakeSamplers(), "routed"),
                           s.estimates, s.probers, opts),
      "union sampler");
  Rng rng(16);
  const size_t kDraw = 4096;
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleSharded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// Epoch machinery: incremental ApplyDelta vs. cold re-prepare.

// A smaller union than UnionSetup(): the cold-rebuild anchor below runs
// the FULL preparation pipeline (exact warm-up included) per iteration.
struct EpochBenchSetup {
  std::vector<JoinSpecPtr> joins;
  PreparedUnionPtr plan;            // epoch 0
  std::vector<RelationDelta> batch; // one append/delete batch against it
};

EpochBenchSetup& EpochSetup() {
  static EpochBenchSetup* setup = [] {
    auto* s = new EpochBenchSetup;
    workloads::SyntheticChainOptions opts;
    opts.num_joins = 3;
    opts.master_rows = 120;
    opts.max_degree = 3;
    opts.seed = 42;
    s->joins = Unwrap(workloads::MakeOverlappingChains(opts), "chains");
    s->plan = Unwrap(
        PreparedUnion::Build("epoch-bench", 1, s->joins,
                             PreparedQueryOptions()),
        "prepare");
    const RelationPtr& target = s->joins[0]->relation(0);
    RelationDelta delta;
    delta.relation = target->name();
    delta.deletes = {0, 7};
    for (int i = 0; i < 8; ++i) {
      std::vector<Value> fresh;
      for (size_t c = 0; c < target->num_columns(); ++c) {
        fresh.push_back(
            Value::Int64(90000 + i * 16 + static_cast<int64_t>(c)));
      }
      delta.appends.push_back(Tuple(std::move(fresh)));
    }
    s->batch = {std::move(delta)};
    return s;
  }();
  return *setup;
}

// One incremental epoch refresh: fold the batch, maintain indexes /
// estimates / weights in place (untouched joins shared by pointer).
void BM_ApplyDelta(benchmark::State& state) {
  EpochBenchSetup& s = EpochSetup();
  for (auto _ : state) {
    auto next = PreparedUnion::ApplyDelta(s.plan, s.batch);
    UnwrapStatus(next.ok() ? Status::OK() : next.status(), "apply delta");
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_ApplyDelta);

// The cold anchor: rebuild the whole plan over the already-folded joins.
// The CI perf gate asserts BM_ApplyDelta stays >= 1.5x faster than this
// (same-run comparison) — the reason the epoch path exists at all.
void BM_ApplyDeltaColdRebuild(benchmark::State& state) {
  EpochBenchSetup& s = EpochSetup();
  auto refreshed =
      Unwrap(PreparedUnion::ApplyDelta(s.plan, s.batch), "apply delta");
  for (auto _ : state) {
    auto cold = PreparedUnion::Build("epoch-bench-cold", 2,
                                     refreshed->base_joins(),
                                     PreparedQueryOptions());
    UnwrapStatus(cold.ok() ? Status::OK() : cold.status(), "cold build");
    benchmark::DoNotOptimize(cold);
  }
}
BENCHMARK(BM_ApplyDeltaColdRebuild);

// Union draw throughput from a plan that has absorbed several delta
// batches: churn must not degrade the sampling hot path (the folded
// epoch's indexes are structurally identical to a cold build's).
void BM_UnionSampleAfterChurn(benchmark::State& state) {
  static PreparedUnionPtr* churned = [] {
    EpochBenchSetup& s = EpochSetup();
    auto plan = s.plan;
    for (int i = 0; i < 3; ++i) {
      plan = Unwrap(PreparedUnion::ApplyDelta(plan, s.batch), "churn");
    }
    return new PreparedUnionPtr(std::move(plan));
  }();
  const PreparedUnionPtr& plan = *churned;
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = 1;
  opts.batch_size = 512;
  opts.sampler_factory = plan->MakeJoinSamplerFactory();
  auto sampler = Unwrap(UnionSampler::Create(plan->joins(), {},
                                             plan->estimates(), {}, opts),
                        "union sampler");
  Rng rng(17);
  const size_t kDraw = 4096;
  for (auto _ : state) {
    auto samples = sampler->Sample(kDraw, rng);
    UnwrapStatus(samples.ok() ? Status::OK() : samples.status(), "sample");
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDraw));
}
BENCHMARK(BM_UnionSampleAfterChurn)->UseRealTime();

void BM_FullJoinExecute(benchmark::State& state) {
  JoinSpecPtr join = ChainJoin(state.range(0) / 10.0);
  for (auto _ : state) {
    CompositeIndexCache cache;
    FullJoinExecutor executor(&cache);
    auto result = executor.Execute(join);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullJoinExecute)->Arg(5)->Arg(10);

}  // namespace
}  // namespace bench
}  // namespace suj

BENCHMARK_MAIN();
