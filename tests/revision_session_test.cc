// Tests for session-scoped revision ownership (core/revision_state.h +
// UnionSampler::Sample(n, rng, RevisionState&) + kRevision sessions):
// split-across-calls == one-call byte equality at every worker-thread
// count, resumption across SampleStream chunks, eviction/teardown while
// a resumable state is live, worker-context-pool construction counts
// (once per SAMPLER, shared by every call, state and epoch), Create-time
// samplers == a factory at one thread, the max_revision_surplus cap +
// high-water instrumentation, and state-binding validation.
// Runs under the TSan CI job (ctest -L concurrency).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/exact_overlap.h"
#include "core/revision_state.h"
#include "core/union_sampler.h"
#include "join/exact_weight.h"
#include "service/sampling_service.h"
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

std::vector<JoinSpecPtr> MakeJoins(uint64_t seed, int num_joins = 3,
                                   size_t master_rows = 20) {
  SyntheticChainOptions options;
  options.num_joins = num_joins;
  options.master_rows = master_rows;
  options.seed = seed;
  return MakeOverlappingChains(options).value();
}

std::unique_ptr<SamplingService> MakeService(uint64_t seed) {
  ServiceOptions options;
  options.seed = seed;
  return SamplingService::Create(options).value();
}

// Samples `chunks` on a fresh service (seed 700, query seed 701) in one
// kRevision session at `threads` workers; returns the concatenation.
std::vector<std::string> SampleChunkedSession(
    const std::vector<size_t>& chunks, size_t threads) {
  auto service = MakeService(700);
  EXPECT_TRUE(service->Prepare("q", MakeJoins(701)).ok());
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kRevision;
  opts.worker_threads = threads;
  opts.batch_size = 32;
  uint64_t sid = service->OpenSession("q", opts).value();
  std::vector<std::string> out;
  for (size_t n : chunks) {
    auto samples = service->Sample(sid, n);
    EXPECT_TRUE(samples.ok()) << samples.status().ToString();
    if (!samples.ok()) return out;
    EXPECT_EQ(samples->size(), n);
    auto enc = Encodings(*samples);
    out.insert(out.end(), enc.begin(), enc.end());
  }
  return out;
}

TEST(RevisionSessionTest, SplitEqualsWholeAtEveryThreadCount) {
  // The tentpole guarantee: a kRevision session's delivered sequence is a
  // function of (service seed, session rank, cumulative draw count) only
  // — NOT of how the draws are chunked into calls, and NOT of the worker
  // thread count. Every split of 300 draws must reproduce the one-call
  // sequence byte for byte.
  const std::vector<std::string> reference =
      SampleChunkedSession({300}, /*threads=*/1);
  ASSERT_EQ(reference.size(), 300u);
  const std::vector<std::vector<size_t>> splits = {
      {300},          {100, 100, 100}, {37, 263},
      {1, 299},       {150, 75, 75},   {299, 1},
  };
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (const auto& split : splits) {
      EXPECT_EQ(SampleChunkedSession(split, threads), reference)
          << "threads=" << threads << " splits=" << split.size();
    }
  }
}

TEST(RevisionSessionTest, ResumesAcrossStreamChunksAndDirectCalls) {
  // Chunked SampleStream delivery is just more Sample calls on the same
  // session state: direct call + stream + direct call must concatenate
  // to the one-call sequence.
  const std::vector<std::string> reference =
      SampleChunkedSession({300}, /*threads=*/2);
  ASSERT_EQ(reference.size(), 300u);

  auto service = MakeService(700);
  ASSERT_TRUE(service->Prepare("q", MakeJoins(701)).ok());
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kRevision;
  opts.worker_threads = 2;
  opts.batch_size = 32;
  uint64_t sid = service->OpenSession("q", opts).value();

  std::vector<std::string> got;
  auto first = service->Sample(sid, 50);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto enc = Encodings(*first);
  got.insert(got.end(), enc.begin(), enc.end());

  SampleStream::Options stream_opts;
  stream_opts.chunk_size = 64;
  auto stream = service->OpenStream(sid, 200, stream_opts);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  for (;;) {
    auto chunk = (*stream)->Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk->empty()) break;
    enc = Encodings(*chunk);
    got.insert(got.end(), enc.begin(), enc.end());
  }
  stream->reset();  // stream teardown must not disturb the session state

  auto last = service->Sample(sid, 50);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  enc = Encodings(*last);
  got.insert(got.end(), enc.begin(), enc.end());

  EXPECT_EQ(got, reference);
}

TEST(RevisionSessionTest, EvictionAndCloseLeaveResumableStateUsable) {
  // Eviction unpins the plan and Close drops the manager's reference; a
  // caller still holding the session continues the resumed protocol
  // untouched, and the state is freed with the session's last reference.
  const std::vector<std::string> reference =
      SampleChunkedSession({300}, /*threads=*/4);
  ASSERT_EQ(reference.size(), 300u);

  auto service = MakeService(700);
  ASSERT_TRUE(service->Prepare("q", MakeJoins(701)).ok());
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kRevision;
  opts.worker_threads = 4;
  opts.batch_size = 32;
  uint64_t sid = service->OpenSession("q", opts).value();

  std::vector<std::string> got;
  auto first = service->Sample(sid, 120);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto enc = Encodings(*first);
  got.insert(got.end(), enc.begin(), enc.end());

  auto session = service->sessions().Get(sid).value();
  ASSERT_TRUE(service->Evict("q").ok());
  ASSERT_TRUE(service->CloseSession(sid).ok());
  EXPECT_FALSE(service->sessions().Get(sid).ok());

  auto rest = session->Sample(180);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  enc = Encodings(*rest);
  got.insert(got.end(), enc.begin(), enc.end());
  EXPECT_EQ(got, reference);

  // Releasing the last reference tears the state down with the session
  // (ASan/TSan verify there is nothing left pointing at it).
  session.reset();
}

TEST(RevisionSessionTest, SessionSurplusCapIsPlumbedAndReported) {
  // SessionOptions::max_revision_surplus reaches the sampler, bounds the
  // surplus the session parks between requests, and surfaces its peak in
  // the stats snapshot — without changing the split==whole contract.
  auto sample_all = [](size_t cap, const std::vector<size_t>& chunks) {
    auto service = MakeService(720);
    EXPECT_TRUE(service->Prepare("q", MakeJoins(721)).ok());
    SessionOptions opts;
    opts.mode = SessionOptions::Mode::kRevision;
    opts.worker_threads = 2;
    opts.batch_size = 32;
    opts.max_revision_surplus = cap;
    uint64_t sid = service->OpenSession("q", opts).value();
    std::vector<std::string> out;
    for (size_t n : chunks) {
      auto samples = service->Sample(sid, n);
      EXPECT_TRUE(samples.ok()) << samples.status().ToString();
      if (!samples.ok()) return std::pair{out, SessionStatsSnapshot{}};
      auto enc = Encodings(*samples);
      out.insert(out.end(), enc.begin(), enc.end());
      auto stats = service->SessionStats(sid).value();
      EXPECT_LE(stats.revision_buffered, cap);
      EXPECT_LE(stats.revision_surplus_high_water, cap);
    }
    return std::pair{out, service->SessionStats(sid).value()};
  };
  auto [whole, whole_stats] = sample_all(64, {300});
  ASSERT_EQ(whole.size(), 300u);
  auto [split, split_stats] = sample_all(64, {90, 110, 100});
  EXPECT_EQ(split, whole);
  // The peak is observed at request boundaries, so chunking can only
  // surface MORE peaks — never a higher one than the cap admits.
  EXPECT_GE(split_stats.revision_surplus_high_water,
            split_stats.revision_buffered);
  EXPECT_GE(whole_stats.revision_surplus_high_water,
            whole_stats.revision_buffered);
}

TEST(RevisionSessionTest, SessionStatsCloseTheConservationIdentity) {
  auto service = MakeService(700);
  ASSERT_TRUE(service->Prepare("q", MakeJoins(701)).ok());
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kRevision;
  opts.worker_threads = 2;
  opts.batch_size = 32;
  uint64_t sid = service->OpenSession("q", opts).value();
  for (size_t n : {40u, 200u, 15u}) {
    ASSERT_TRUE(service->Sample(sid, n).ok());
  }
  auto stats = service->SessionStats(sid).value();
  EXPECT_EQ(stats.tuples_delivered, 255u);
  // Every locally accepted tuple is delivered, buffered for the next
  // request, purged by a revision, or dropped at reconciliation.
  EXPECT_EQ(stats.sampler.accepted - stats.sampler.removed_by_revision -
                stats.sampler.reconcile_dropped,
            stats.tuples_delivered + stats.revision_buffered);
  EXPECT_GE(stats.sampler.revision_epochs, 1u);
}

// ---------------------------------------------------------------------------
// Core-level: worker-context pool construction counts + state binding.

struct CoreFixture {
  std::vector<JoinSpecPtr> joins;
  std::unique_ptr<ExactOverlapCalculator> exact;
  UnionEstimates estimates;
  CompositeIndexCache cache;
  size_t factory_calls = 0;

  UnionSampler::JoinSamplerFactory CountingFactory() {
    return [this]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
      ++factory_calls;
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

CoreFixture MakeCoreSetup(uint64_t seed) {
  CoreFixture s;
  SyntheticChainOptions options;
  options.num_joins = 3;
  options.master_rows = 20;
  options.seed = seed;
  s.joins = MakeOverlappingChains(options).value();
  s.exact = ExactOverlapCalculator::Create(s.joins).value();
  s.estimates = ComputeUnionEstimates(s.exact.get()).value();
  return s;
}

std::unique_ptr<UnionSampler> MakeRevisionSampler(CoreFixture& s,
                                                  size_t threads,
                                                  size_t batch_size) {
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = threads;
  opts.batch_size = batch_size;
  opts.sampler_factory = s.CountingFactory();
  return UnionSampler::Create(s.joins, {}, s.estimates, {}, opts).value();
}

TEST(RevisionSessionTest, ResumableBuildsWorkerContextsOncePerSampler) {
  CoreFixture s = MakeCoreSetup(702);
  const size_t kThreads = 4;
  auto sampler = MakeRevisionSampler(s, kThreads, /*batch_size=*/16);
  RevisionState state;
  Rng rng = testing::FixedSeedRng(703);

  // Call 1 spans several epochs (16, 64, 256, ... tuples); the factory
  // must run exactly pool-width times — reuse across epochs is the whole
  // point of the WorkerContextPool.
  auto first = sampler->Sample(600, rng, state);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(sampler->stats().revision_epochs, 1u);
  EXPECT_EQ(s.factory_calls, kThreads);

  // Call 2 is served from the state's buffered surplus: no pool at all.
  ASSERT_GT(state.buffered(), 100u);
  auto second = sampler->Sample(100, rng, state);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(s.factory_calls, kThreads);

  // Call 3 outruns the buffer — the sampler's pool serves it without a
  // single new factory invocation, and so does a second state on the
  // same sampler: the pool belongs to the sampler, not to a state.
  auto third = sampler->Sample(state.buffered() + 200, rng, state);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(s.factory_calls, kThreads);
  RevisionState other;
  ASSERT_TRUE(sampler->Sample(300, rng, other).ok());
  EXPECT_EQ(s.factory_calls, kThreads);
  // parallel_workers counts constructed contexts: once per sampler, too.
  EXPECT_EQ(sampler->stats().parallel_workers, kThreads);
}

TEST(RevisionSessionTest, SurplusCapBoundsBufferAndReportsHighWater) {
  // max_revision_surplus lowers the epoch ramp's cap until the largest
  // epoch fits, so the finalized surplus parked between calls can never
  // exceed the bound; the peak is reported as revision_surplus_high_water.
  CoreFixture s = MakeCoreSetup(712);
  UnionSampler::Options opts;
  opts.mode = UnionSampler::Mode::kRevision;
  opts.num_threads = 2;
  opts.batch_size = 16;
  opts.max_revision_surplus = 32;  // ramp cap 1: epochs of 16 or 32
  opts.sampler_factory = s.CountingFactory();
  auto sampler = UnionSampler::Create(s.joins, {}, s.estimates, {}, opts)
                     .value();
  RevisionState state;
  Rng rng = testing::FixedSeedRng(713);
  for (size_t n : {10u, 100u, 7u, 150u}) {
    auto samples = sampler->Sample(n, rng, state);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    EXPECT_LE(state.buffered(), 32u);
  }
  const auto& st = sampler->stats();
  EXPECT_LE(st.revision_surplus_high_water, 32u);
  EXPECT_GE(st.revision_surplus_high_water, state.buffered());
  // Merging propagates the high water as a max, not a sum.
  UnionSampleStats merged;
  ASSERT_TRUE(merged.MergeFrom(st).ok());
  ASSERT_TRUE(merged.MergeFrom(st).ok());
  EXPECT_EQ(merged.revision_surplus_high_water,
            st.revision_surplus_high_water);
}

TEST(RevisionSessionTest, SurplusCapPreservesSplitEqualsWhole) {
  // The cap is a pure function of the options — never of the call
  // pattern — so a capped session still delivers the byte-identical
  // stream under every chunking and thread count.
  auto run = [](const std::vector<size_t>& chunks, size_t threads) {
    CoreFixture s = MakeCoreSetup(714);
    UnionSampler::Options opts;
    opts.mode = UnionSampler::Mode::kRevision;
    opts.num_threads = threads;
    opts.batch_size = 16;
    opts.max_revision_surplus = 32;
    opts.sampler_factory = s.CountingFactory();
    auto sampler = UnionSampler::Create(s.joins, {}, s.estimates, {}, opts)
                       .value();
    RevisionState state;
    Rng rng = testing::FixedSeedRng(715);
    std::vector<std::string> out;
    for (size_t n : chunks) {
      auto samples = sampler->Sample(n, rng, state);
      EXPECT_TRUE(samples.ok()) << samples.status().ToString();
      if (!samples.ok()) return out;
      auto enc = Encodings(*samples);
      out.insert(out.end(), enc.begin(), enc.end());
    }
    return out;
  };
  const std::vector<std::string> reference = run({240}, 1);
  ASSERT_EQ(reference.size(), 240u);
  for (size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(run({80, 80, 80}, threads), reference) << threads;
    EXPECT_EQ(run({3, 237}, threads), reference) << threads;
  }
}

TEST(RevisionSessionTest, PerCallSamplesBuildWorkerContextsOncePerSampler) {
  // Sample(n, rng) runs the same driver over a call-local state, on the
  // same sampler-owned pool: every epoch of every call reuses it.
  CoreFixture s = MakeCoreSetup(704);
  auto sampler = MakeRevisionSampler(s, /*threads=*/4, /*batch_size=*/16);
  Rng rng = testing::FixedSeedRng(705);
  for (int call = 0; call < 3; ++call) {
    auto samples = sampler->Sample(600, rng);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    EXPECT_EQ(samples->size(), 600u);
  }
  EXPECT_GT(sampler->stats().revision_epochs, 3u);
  EXPECT_EQ(s.factory_calls, 4u);
  EXPECT_EQ(sampler->stats().parallel_workers, 4u);
  // The call-local state is clamped to each call's shortfall, so nothing
  // is generated past a call: every accepted tuple was delivered, purged
  // or dropped.
  const auto& st = sampler->stats();
  EXPECT_EQ(st.accepted - st.removed_by_revision - st.reconcile_dropped,
            1800u);
  EXPECT_EQ(st.revision_surplus_high_water, 0u);
}

TEST(RevisionSessionTest, CreateTimeSamplersMatchFactoryAtOneThread) {
  // Create-time samplers are the one-worker case of the epoch driver, so
  // they deliver exactly what a factory-built sampler at num_threads 1
  // does — one-shot per-call draws and chunked draws on a state alike.
  CoreFixture s = MakeCoreSetup(716);
  auto run = [&s](bool create_time, bool chunked) {
    UnionSampler::Options opts;
    opts.mode = UnionSampler::Mode::kRevision;
    opts.batch_size = 16;
    std::vector<std::unique_ptr<JoinSampler>> samplers;
    if (create_time) {
      samplers = s.CountingFactory()().value();
    } else {
      opts.sampler_factory = s.CountingFactory();
    }
    auto sampler = UnionSampler::Create(s.joins, std::move(samplers),
                                        s.estimates, {}, opts)
                       .value();
    RevisionState state;
    Rng rng = testing::FixedSeedRng(717);
    std::vector<std::string> out;
    for (size_t n : {5u, 130u, 65u}) {
      auto samples = chunked ? sampler->Sample(n, rng, state)
                             : sampler->Sample(n, rng);
      EXPECT_TRUE(samples.ok()) << samples.status().ToString();
      if (!samples.ok()) return out;
      auto enc = Encodings(*samples);
      out.insert(out.end(), enc.begin(), enc.end());
    }
    EXPECT_EQ(sampler->stats().parallel_workers, 1u);
    return out;
  };
  for (bool chunked : {false, true}) {
    const std::vector<std::string> create_time = run(true, chunked);
    ASSERT_EQ(create_time.size(), 200u);
    EXPECT_EQ(create_time, run(false, chunked)) << "chunked=" << chunked;
  }
}

TEST(RevisionSessionTest, StateBindsToItsFirstSampler) {
  CoreFixture s = MakeCoreSetup(706);
  auto a = MakeRevisionSampler(s, 2, 32);
  auto b = MakeRevisionSampler(s, 2, 32);
  RevisionState state;
  Rng rng = testing::FixedSeedRng(707);
  ASSERT_TRUE(a->Sample(40, rng, state).ok());
  EXPECT_TRUE(state.initialized());
  auto migrated = b->Sample(40, rng, state);
  EXPECT_EQ(migrated.status().code(), StatusCode::kInvalidArgument);
  // The bound sampler keeps working.
  EXPECT_TRUE(a->Sample(40, rng, state).ok());
}

TEST(RevisionSessionTest, ResumableRequiresRevisionMode) {
  CoreFixture s = MakeCoreSetup(708);
  RevisionState state;
  Rng rng = testing::FixedSeedRng(709);
  // Oracle sampler: the resumable entry is refused on the sequential
  // path and on the executor path alike, and the state stays unbound.
  auto probers = BuildProbers(s.joins).value();
  UnionSampler::Options oracle;
  oracle.mode = UnionSampler::Mode::kMembershipOracle;
  auto samplers = s.CountingFactory()();
  ASSERT_TRUE(samplers.ok());
  auto sequential = UnionSampler::Create(s.joins, std::move(*samplers),
                                         s.estimates, probers, oracle)
                        .value();
  EXPECT_EQ(sequential->Sample(10, rng, state).status().code(),
            StatusCode::kInvalidArgument);
  oracle.sampler_factory = s.CountingFactory();
  auto parallel =
      UnionSampler::Create(s.joins, {}, s.estimates, probers, oracle)
          .value();
  EXPECT_EQ(parallel->Sample(10, rng, state).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(state.initialized());
}

TEST(RevisionSessionTest, CoreSplitEqualsWholeAndCountersAgree) {
  // Same guarantee as the service-level test, at the core API — plus
  // counter equality: the generation schedule (epochs, batches, claims)
  // is chunking-independent, so the deterministic counters agree between
  // a one-shot state and a chunked state, not just the bytes.
  CoreFixture s = MakeCoreSetup(710);
  std::vector<std::string> reference;
  std::vector<uint64_t> reference_counters;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::vector<size_t>& split :
         std::vector<std::vector<size_t>>{{240}, {80, 80, 80}, {7, 233}}) {
      auto sampler = MakeRevisionSampler(s, threads, /*batch_size=*/32);
      RevisionState state;
      Rng rng = testing::FixedSeedRng(711);
      std::vector<std::string> got;
      for (size_t n : split) {
        auto samples = sampler->Sample(n, rng, state);
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        ASSERT_EQ(samples->size(), n);
        auto enc = Encodings(*samples);
        got.insert(got.end(), enc.begin(), enc.end());
      }
      const auto& st = sampler->stats();
      std::vector<uint64_t> counters = {
          st.rounds,       st.join_draws,        st.accepted,
          st.rejected_cover, st.revisions,       st.removed_by_revision,
          st.abandoned_rounds, st.parallel_batches, st.revision_epochs,
          st.reconcile_dropped};
      // Conservation: accepted − purged − dropped == delivered + buffered.
      EXPECT_EQ(st.accepted - st.removed_by_revision - st.reconcile_dropped,
                state.delivered() + state.buffered());
      EXPECT_EQ(state.delivered(), 240u);
      if (reference.empty()) {
        reference = got;
        reference_counters = counters;
      } else {
        EXPECT_EQ(got, reference)
            << "threads=" << threads << " splits=" << split.size();
        EXPECT_EQ(counters, reference_counters)
            << "threads=" << threads << " splits=" << split.size();
      }
    }
  }
}

}  // namespace
}  // namespace suj
