#include "ladder.h"

#include <array>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "core/exact_overlap.h"
#include "core/random_walk_overlap.h"
#include "core/revision_state.h"
#include "core/union_sampler.h"
#include "core/union_size_model.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "net/client.h"
#include "net/protocol.h"

namespace perfbench {

using suj::Result;
using suj::Status;

namespace {

/// OwnerOracle's default memo cap (join/membership.h); the memo-hit
/// ratio is read by mirroring it.
constexpr size_t kOwnerMemoCap = size_t{1} << 16;
constexpr int kSetupRepeats = 3;
constexpr int kSessionOpens = 20;
constexpr int kRoundTrips = 200;
/// Calls of the long-lived revision session whose ageing is measured.
constexpr size_t kAgeCalls = 30;
/// Tuples a draw call asks the join samplers for at once.
constexpr size_t kJoinBatch = 64;

size_t MaxWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

/// The workload's request sizes, sessions interleaved, cycled until they
/// add up to `budget` tuples.
std::vector<size_t> ReplaySizes(const Inputs& in, size_t budget) {
  std::vector<size_t> out;
  size_t total = 0;
  for (size_t i = 0; total < budget; ++i) {
    for (const auto& s : in.sizes) {
      if (total >= budget) break;
      out.push_back(s[i % s.size()]);
      total += out.back();
    }
  }
  return out;
}

/// One rung's accumulated time and output.
struct Tally {
  int64_t ns = 0;
  uint64_t tuples = 0;
  uint64_t calls = 0;
  double NsPerTuple() const {
    return tuples ? static_cast<double>(ns) / tuples : 0;
  }
};

/// Mirror of the owner memo: a value is a hit when an earlier check
/// stored it, and new values are stored only while the memo has room.
class MemoMirror {
 public:
  void Check(const std::string& key) {
    ++checks_;
    if (keys_.count(key)) {
      ++hits_;
    } else if (keys_.size() < kOwnerMemoCap) {
      keys_.insert(key);
    }
  }
  double HitRatio() const {
    return checks_ ? static_cast<double>(hits_) / checks_ : 0;
  }

 private:
  std::unordered_set<std::string> keys_;
  uint64_t checks_ = 0;
  uint64_t hits_ = 0;
};

class Ladder {
 public:
  Ladder(Served& served, SpanRecorder& spans, size_t budget, Metrics* m,
         std::vector<std::string>* ran, std::vector<std::string>* report)
      : served_(served),
        spans_(spans),
        buf_(spans.NewBuffer()),
        m_(*m),
        ran_(*ran),
        report_(*report),
        plan_(served.plan()),
        sizes_(ReplaySizes(served.inputs(), budget)),
        request_base_(spans.NewRequests(sizes_.size() + 1)),
        age_tuples_(3 * budget) {}

  Status Run() {
    if (plan_ == nullptr) return Status::Internal("served query missing");
    ScopedSpan root(buf_, "ladder", 0, 0);
    root_ = root.id();
    SUJ_RETURN_NOT_OK(Join());
    SUJ_RETURN_NOT_OK(CoreOracle());
    SUJ_RETURN_NOT_OK(CoreRevision());
    SUJ_RETURN_NOT_OK(Exec());
    SUJ_RETURN_NOT_OK(Shard());
    SUJ_RETURN_NOT_OK(Service());
    SUJ_RETURN_NOT_OK(Setup());
    SUJ_RETURN_NOT_OK(Apply());  // last: it moves the served plan's epoch
    return Status::OK();
  }

 private:
  using Call = std::function<Result<size_t>(size_t n, size_t k)>;

  /// Replays `sizes` through `call`, one span per request (request ids
  /// shared across rungs), and returns the time spent inside `call`.
  Result<Tally> Pass(const char* name, const std::vector<size_t>& sizes,
                     const Call& call) {
    ScopedSpan rung(buf_, name, root_, 0);
    Tally t;
    for (size_t k = 0; k < sizes.size(); ++k) {
      const int64_t t0 = NowNs();
      size_t got = 0;
      {
        ScopedSpan span(buf_, name, rung.id(), request_base_ + k);
        SUJ_ASSIGN_OR_RETURN(got, call(sizes[k], k));
      }
      t.ns += NowNs() - t0;
      t.tuples += got;
      ++t.calls;
    }
    return t;
  }

  /// A union sampler over `plan`'s own samplers, estimates and probers.
  /// threads == 0 runs the classic sequential loop; otherwise the
  /// executor path at that width.
  static Result<std::unique_ptr<suj::UnionSampler>> MakeSampler(
      const suj::PreparedUnion& plan, suj::UnionSampler::Mode mode,
      size_t threads) {
    suj::UnionSampler::Options o;
    o.mode = mode;
    o.plan_id = plan.plan_id();
    std::vector<std::unique_ptr<suj::JoinSampler>> samplers;
    if (threads == 0) {
      SUJ_ASSIGN_OR_RETURN(samplers, plan.MakeJoinSamplerFactory()());
    } else {
      o.num_threads = threads;
      o.sampler_factory = plan.MakeJoinSamplerFactory();
    }
    return suj::UnionSampler::Create(plan.joins(), std::move(samplers),
                                     plan.estimates(), plan.probers(), o);
  }

  suj::Rng RungRng(uint64_t salt) const {
    return suj::Rng(served_.seed() * 0x2545F4914F6CDD1Dull + salt);
  }

  void Ran(const std::string& rung, const std::string& summary) {
    ran_.push_back(rung);
    report_.push_back(rung + ": " + summary);
  }

  // ---- join: exact-weight descent ----
  Status Join() {
    SUJ_ASSIGN_OR_RETURN(auto samplers, plan_->MakeJoinSamplerFactory()());
    const auto& sizes = plan_->estimates().join_sizes;
    double total_size = 0;
    for (double s : sizes) total_size += s;
    size_t budget = 0;
    for (size_t n : sizes_) budget += n;
    ScopedSpan rung(buf_, "join.descent", root_, 0);
    int64_t ns = 0;
    uint64_t attempts = 0, successes = 0;
    for (size_t j = 0; j < samplers.size(); ++j) {
      auto* ew = dynamic_cast<suj::ExactWeightSampler*>(samplers[j].get());
      const double share = total_size > 0 ? sizes[j] / total_size : 0;
      const uint64_t target =
          std::max<uint64_t>(kJoinBatch, static_cast<uint64_t>(share * budget));
      suj::Rng rng = RungRng(100 + j);
      std::vector<suj::Tuple> out;
      uint64_t got = 0, tried = 0;
      while (got < target && tried < 1000 * target) {
        out.clear();
        const int64_t t0 = NowNs();
        {
          ScopedSpan span(buf_, "join.descent", rung.id(), spans_.NewRequest());
          if (ew != nullptr) {
            ew->TrySampleBatch(kJoinBatch, rng, &out);
          } else {
            for (size_t i = 0; i < kJoinBatch; ++i) {
              if (auto t = samplers[j]->TrySample(rng)) out.push_back(*t);
            }
          }
        }
        ns += NowNs() - t0;
        tried += kJoinBatch;
        got += out.size();
      }
      // JoinSampleStats carries the same counts when the sampler keeps
      // them; prefer it.
      const suj::JoinSampleStats& stats = samplers[j]->stats();
      attempts += stats.attempts > 0 ? stats.attempts : tried;
      successes += stats.attempts > 0 ? stats.successes : got;
    }
    const double per_draw = attempts ? static_cast<double>(ns) / attempts : 0;
    const double reject =
        attempts ? 1.0 - static_cast<double>(successes) / attempts : 0;
    m_.Set("join.ew_ns_per_draw", per_draw, "ns");
    m_.Set("join.ew_reject_ratio", reject, "ratio");
    descent_ns_per_tuple_ = successes ? static_cast<double>(ns) / successes : 0;
    Ran("join", Fixed(per_draw) + " ns/draw, " + Fixed(descent_ns_per_tuple_) +
                    " ns/tuple, reject " + Fixed(reject, 4));
    return Status::OK();
  }

  // ---- core: union loop with owner check, memo cold and warm ----
  Status CoreOracle() {
    const auto kOracle = suj::UnionSampler::Mode::kMembershipOracle;
    suj::Rng cold_rng = RungRng(200);
    SUJ_ASSIGN_OR_RETURN(
        Tally cold,
        Pass("core.oracle_cold", sizes_, [&](size_t n, size_t) -> Result<size_t> {
          SUJ_ASSIGN_OR_RETURN(auto sampler, MakeSampler(*plan_, kOracle, 0));
          SUJ_ASSIGN_OR_RETURN(auto batch, sampler->Sample(n, cold_rng));
          return batch.size();
        }));

    SUJ_ASSIGN_OR_RETURN(auto warm, MakeSampler(*plan_, kOracle, 0));
    suj::Rng warm_rng = RungRng(201);
    for (size_t n : sizes_) SUJ_RETURN_NOT_OK(warm->Sample(n, warm_rng).status());
    warm->ResetStats();

    // The warm pass's output feeds the owner, encode and chunk rungs,
    // each timed on its own with the same request id.
    suj::OwnerOracle owner(&plan_->probers());
    MemoMirror memo;
    Tally owner_t, encode_t, chunk_enc_t, chunk_dec_t;
    uint64_t bytes = 0;
    SUJ_ASSIGN_OR_RETURN(
        Tally warm_t,
        Pass("core.oracle_warm", sizes_, [&](size_t n, size_t k) -> Result<size_t> {
          const int64_t t0 = NowNs();
          SUJ_ASSIGN_OR_RETURN(auto batch, warm->Sample(n, warm_rng));
          const int64_t t1 = NowNs();
          const uint64_t request = request_base_ + k;
          {
            ScopedSpan span(buf_, "core.owner", 0, request);
            const int64_t s0 = NowNs();
            for (const suj::Tuple& t : batch) owner.Owner(t);
            owner_t.ns += NowNs() - s0;
            owner_t.tuples += batch.size();
          }
          suj::net::TupleChunk chunk;
          chunk.encoded_tuples.reserve(batch.size());
          {
            ScopedSpan span(buf_, "storage.encode", 0, request);
            const int64_t s0 = NowNs();
            for (const suj::Tuple& t : batch) {
              chunk.encoded_tuples.push_back(t.Encode());
            }
            encode_t.ns += NowNs() - s0;
            encode_t.tuples += batch.size();
          }
          for (const std::string& e : chunk.encoded_tuples) {
            bytes += e.size();
            memo.Check(e);
          }
          std::string body;
          {
            ScopedSpan span(buf_, "net.chunk_encode", 0, request);
            const int64_t s0 = NowNs();
            body = chunk.Encode();
            chunk_enc_t.ns += NowNs() - s0;
            chunk_enc_t.tuples += batch.size();
          }
          {
            ScopedSpan span(buf_, "net.chunk_decode", 0, request);
            const int64_t s0 = NowNs();
            SUJ_ASSIGN_OR_RETURN(auto decoded, suj::net::TupleChunk::Decode(body));
            chunk_dec_t.ns += NowNs() - s0;
            chunk_dec_t.tuples += decoded.encoded_tuples.size();
          }
          // Pass() times the whole body; only the Sample call belongs to
          // this rung.
          warm_sample_ns_ += t1 - t0;
          return batch.size();
        }));
    warm_t.ns = warm_sample_ns_;
    warm_ns_per_tuple_ = warm_t.NsPerTuple();
    const suj::UnionSampleStats& stats = warm->stats();
    m_.Set("core.oracle_cold_ns_per_tuple", cold.NsPerTuple(), "ns");
    m_.Set("core.oracle_warm_ns_per_tuple", warm_ns_per_tuple_, "ns");
    m_.Set("core.owner_ns_per_check", owner_t.NsPerTuple(), "ns");
    m_.Set("core.owner_memo_hit_ratio", memo.HitRatio(), "ratio");
    m_.Set("core.draws_per_tuple",
           stats.accepted ? static_cast<double>(stats.join_draws) / stats.accepted
                          : 0,
           "draws/tuple");
    m_.Set("core.cover_reject_ratio", stats.CoverRejectionRatio(), "ratio");
    m_.Set("storage.encode_ns_per_tuple", encode_t.NsPerTuple(), "ns");
    m_.Set("storage.bytes_per_tuple",
           encode_t.tuples ? static_cast<double>(bytes) / encode_t.tuples : 0,
           "bytes");
    m_.Set("net.chunk_encode_ns_per_tuple", chunk_enc_t.NsPerTuple(), "ns");
    m_.Set("net.chunk_decode_ns_per_tuple", chunk_dec_t.NsPerTuple(), "ns");
    Ran("core.oracle", "cold " + Fixed(cold.NsPerTuple()) + " ns/tuple, warm " +
                           Fixed(warm_ns_per_tuple_) + " ns/tuple (self over "
                           "descent " +
                           Fixed(warm_ns_per_tuple_ - descent_ns_per_tuple_) +
                           ")");
    Ran("core.owner", Fixed(owner_t.NsPerTuple()) + " ns/check, memo hits " +
                          Fixed(memo.HitRatio(), 4));
    Ran("storage.encode", Fixed(encode_t.NsPerTuple()) + " ns/tuple");
    Ran("net.chunk", "encode " + Fixed(chunk_enc_t.NsPerTuple()) +
                         " ns/tuple, decode " +
                         Fixed(chunk_dec_t.NsPerTuple()) + " ns/tuple");
    return Status::OK();
  }

  /// A resumable revision pass at `threads` workers.
  Result<Tally> RevisionPass(const char* name, size_t threads, uint64_t salt,
                             suj::UnionSampleStats* stats) {
    SUJ_ASSIGN_OR_RETURN(
        auto sampler,
        MakeSampler(*plan_, suj::UnionSampler::Mode::kRevision, threads));
    suj::RevisionState state;
    suj::Rng rng = RungRng(salt);
    SUJ_ASSIGN_OR_RETURN(
        Tally t, Pass(name, sizes_, [&](size_t n, size_t) -> Result<size_t> {
          SUJ_ASSIGN_OR_RETURN(auto batch, sampler->Sample(n, rng, state));
          return batch.size();
        }));
    if (stats != nullptr) *stats = sampler->stats();
    return t;
  }

  // ---- core: resumable revision protocol ----
  Status CoreRevision() {
    suj::UnionSampleStats stats;
    SUJ_ASSIGN_OR_RETURN(revision_t1_,
                         RevisionPass("core.revision", 1, 300, &stats));
    const double seconds = revision_t1_.ns * 1e-9;
    m_.Set("core.revision_ns_per_tuple", revision_t1_.NsPerTuple(), "ns");
    m_.Set("core.reconcile_share",
           seconds > 0 ? stats.reconciliation_seconds / seconds : 0, "ratio");
    m_.Set("core.revisions_per_ktuple",
           revision_t1_.tuples
               ? 1000.0 * static_cast<double>(stats.revisions) /
                     revision_t1_.tuples
               : 0,
           "count/ktuple");
    Ran("core.revision", Fixed(revision_t1_.NsPerTuple()) + " ns/tuple, " +
                             std::to_string(stats.revisions) + " revisions");
    return Status::OK();
  }

  // ---- exec: executor fan-out ----
  Status Exec() {
    const auto kOracle = suj::UnionSampler::Mode::kMembershipOracle;
    const size_t tmax = MaxWorkers();
    auto oracle_pass = [&](const char* name, size_t threads,
                           uint64_t salt) -> Result<std::pair<Tally, uint64_t>> {
      SUJ_ASSIGN_OR_RETURN(auto sampler, MakeSampler(*plan_, kOracle, threads));
      suj::Rng rng = RungRng(salt);
      SUJ_ASSIGN_OR_RETURN(
          Tally t, Pass(name, sizes_, [&](size_t n, size_t) -> Result<size_t> {
            SUJ_ASSIGN_OR_RETURN(auto batch, sampler->Sample(n, rng));
            return batch.size();
          }));
      return std::make_pair(t, sampler->stats().parallel_workers);
    };
    SUJ_ASSIGN_OR_RETURN(auto t1, oracle_pass("exec.oracle_t1", 1, 400));
    SUJ_ASSIGN_OR_RETURN(auto tm, oracle_pass("exec.oracle_tmax", tmax, 401));
    SUJ_ASSIGN_OR_RETURN(Tally rev_tm,
                         RevisionPass("exec.revision_tmax", tmax, 402, nullptr));
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    m_.Set("exec.oracle_t1_over_seq",
           ratio(t1.first.NsPerTuple(), warm_ns_per_tuple_), "ratio");
    m_.Set("exec.oracle_speedup_tmax",
           ratio(t1.first.NsPerTuple(), tm.first.NsPerTuple()), "ratio");
    m_.Set("exec.revision_speedup_tmax",
           ratio(revision_t1_.NsPerTuple(), rev_tm.NsPerTuple()), "ratio");
    m_.Set("exec.workers_built_per_call",
           ratio(static_cast<double>(tm.second), tm.first.calls), "count");
    Ran("exec", "oracle t1 " + Fixed(t1.first.NsPerTuple()) + " ns/tuple, t" +
                    std::to_string(tmax) + " " +
                    Fixed(tm.first.NsPerTuple()) + " ns/tuple; revision t" +
                    std::to_string(tmax) + " " + Fixed(rev_tm.NsPerTuple()) +
                    " ns/tuple");
    return Status::OK();
  }

  // ---- shard: routed samplers vs the unsharded factory ----
  Status Shard() {
    // The counterpart plan over the same base relations: unsharded for a
    // sharded workload, 4-way hash-sharded otherwise.
    suj::PreparedQueryOptions prep = served_.inputs().prep;
    prep.shard.num_shards = plan_->shards() != nullptr ? 1 : 4;
    SUJ_ASSIGN_OR_RETURN(
        suj::PreparedUnionPtr other,
        suj::PreparedUnion::Build("ladder-shard", 1u << 20, plan_->base_joins(),
                                  prep));
    const suj::PreparedUnionPtr& routed = plan_->shards() ? plan_ : other;
    const suj::PreparedUnionPtr& flat = plan_->shards() ? other : plan_;
    auto pass = [&](const char* name, const suj::PreparedUnion& plan,
                    uint64_t salt) -> Result<Tally> {
      SUJ_ASSIGN_OR_RETURN(
          auto sampler,
          MakeSampler(plan, suj::UnionSampler::Mode::kMembershipOracle, 0));
      suj::Rng rng = RungRng(salt);
      for (size_t n : sizes_) SUJ_RETURN_NOT_OK(sampler->Sample(n, rng).status());
      return Pass(name, sizes_, [&](size_t n, size_t) -> Result<size_t> {
        SUJ_ASSIGN_OR_RETURN(auto batch, sampler->Sample(n, rng));
        return batch.size();
      });
    };
    SUJ_ASSIGN_OR_RETURN(Tally r, pass("shard.routed", *routed, 500));
    SUJ_ASSIGN_OR_RETURN(Tally f, pass("shard.unsharded", *flat, 501));
    const double ratio = f.NsPerTuple() > 0 ? r.NsPerTuple() / f.NsPerTuple() : 0;
    m_.Set("shard.routed_ns_per_tuple", r.NsPerTuple(), "ns");
    m_.Set("shard.routed_over_unsharded", ratio, "ratio");
    Ran("shard", "routed " + Fixed(r.NsPerTuple()) + " ns/tuple, unsharded " +
                     Fixed(f.NsPerTuple()) + " ns/tuple");
    return Status::OK();
  }

  Result<suj::SessionOptions> PrimarySessionOptions() const {
    suj::net::OpenSessionRequest open;
    open.mode = served_.shape().sessions[0].mode;
    open.worker_threads = served_.shape().sessions[0].worker_threads;
    return open.ToSessionOptions();
  }

  // ---- service and net: the session path and the TCP loopback ----
  Status Service() {
    suj::SamplingService* service = served_.service();
    SUJ_ASSIGN_OR_RETURN(suj::SessionOptions options, PrimarySessionOptions());

    // Three rungs over the same request sizes: the sampler a session
    // builds for itself driven directly (core), an in-process session
    // (service), and a session over loopback (wire). Each request runs on
    // all three, in rotating order, so drift in machine speed lands on
    // every rung alike and the differences are the layers' self times.
    const bool revision = options.mode == suj::SessionOptions::Mode::kRevision;
    const size_t threads =
        revision || options.worker_threads > 1 ? options.worker_threads : 0;
    SUJ_ASSIGN_OR_RETURN(
        auto core,
        MakeSampler(*plan_,
                    revision ? suj::UnionSampler::Mode::kRevision
                             : suj::UnionSampler::Mode::kMembershipOracle,
                    threads));
    suj::RevisionState state;
    suj::Rng rng = RungRng(600);
    SUJ_ASSIGN_OR_RETURN(uint64_t sid, service->OpenSession(kQuery, options));
    SUJ_ASSIGN_OR_RETURN(
        suj::net::SujClient client,
        suj::net::SujClient::Connect("127.0.0.1", served_.port(), "ladder"));
    suj::net::OpenSessionRequest open;
    open.query = kQuery;
    open.mode = served_.shape().sessions[0].mode;
    open.worker_threads = served_.shape().sessions[0].worker_threads;
    SUJ_ASSIGN_OR_RETURN(uint64_t wire_sid, client.OpenSession(open));

    const std::array<const char*, 3> names = {"service.core_ref",
                                              "service.sample", "net.sample"};
    auto call = [&](int rung, size_t n) -> Result<size_t> {
      if (rung == 0) {
        auto batch = revision ? core->Sample(n, rng, state) : core->Sample(n, rng);
        if (!batch.ok()) return batch.status();
        return batch->size();
      }
      if (rung == 1) {
        SUJ_ASSIGN_OR_RETURN(auto batch, service->Sample(sid, n));
        return batch.size();
      }
      SUJ_ASSIGN_OR_RETURN(auto batch, client.Sample(wire_sid, n));
      return batch.size();
    };
    std::array<Tally, 3> t;
    {
      ScopedSpan rung(buf_, "service.interleaved", root_, 0);
      for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms all three
        for (size_t k = 0; k < sizes_.size(); ++k) {
          for (int i = 0; i < 3; ++i) {
            const int r = static_cast<int>((k + i) % 3);
            const int64_t t0 = NowNs();
            size_t got = 0;
            {
              ScopedSpan span(pass ? buf_ : nullptr, names[r], rung.id(),
                              request_base_ + k);
              SUJ_ASSIGN_OR_RETURN(got, call(r, sizes_[k]));
            }
            if (pass == 1) {
              t[r].ns += NowNs() - t0;
              t[r].tuples += got;
              ++t[r].calls;
            }
          }
        }
      }
    }
    SUJ_RETURN_NOT_OK(service->CloseSession(sid));
    const Tally& core_t = t[0];
    const Tally& service_t = t[1];
    const Tally& wire_t = t[2];
    const double overhead_us = (service_t.ns - core_t.ns) / 1e3 /
                               std::max<uint64_t>(1, service_t.calls);
    const double wire_self =
        wire_t.tuples ? static_cast<double>(wire_t.ns - service_t.ns) /
                            wire_t.tuples
                      : 0;
    m_.Set("service.request_overhead_us", overhead_us, "us");
    m_.Set("net.wire_ns_per_tuple", wire_self, "ns");

    // 1-tuple round trips on the wire session.
    std::vector<double> rtt_us;
    {
      ScopedSpan rung(buf_, "net.roundtrip", root_, 0);
      for (int i = 0; i < kRoundTrips; ++i) {
        ScopedSpan span(buf_, "net.roundtrip", rung.id(), spans_.NewRequest());
        const int64_t t0 = NowNs();
        SUJ_RETURN_NOT_OK(client.Sample(wire_sid, 1).status());
        rtt_us.push_back((NowNs() - t0) * 1e-3);
      }
    }
    SUJ_RETURN_NOT_OK(client.CloseSession(wire_sid));
    m_.Set("net.roundtrip_us", Median(rtt_us), "us");

    // A long-lived revision session serving successive large calls:
    // ns/tuple of its last decile of calls over its first.
    suj::SessionOptions aging = options;
    aging.mode = suj::SessionOptions::Mode::kRevision;
    aging.worker_threads = 1;
    SUJ_ASSIGN_OR_RETURN(uint64_t age_sid, service->OpenSession(kQuery, aging));
    const size_t age_call = std::max<size_t>(1, age_tuples_ / kAgeCalls);
    std::vector<double> ns_per_tuple;
    {
      ScopedSpan rung(buf_, "service.revision_age", root_, 0);
      for (size_t i = 0; i < kAgeCalls; ++i) {
        ScopedSpan span(buf_, "service.revision_age", rung.id(),
                        spans_.NewRequest());
        const int64_t t0 = NowNs();
        SUJ_ASSIGN_OR_RETURN(auto batch, service->Sample(age_sid, age_call));
        ns_per_tuple.push_back(static_cast<double>(NowNs() - t0) /
                               std::max<size_t>(1, batch.size()));
      }
    }
    SUJ_RETURN_NOT_OK(service->CloseSession(age_sid));
    const size_t decile = kAgeCalls / 10;
    double first = 0, last = 0;
    for (size_t i = 0; i < decile; ++i) {
      first += ns_per_tuple[i];
      last += ns_per_tuple[kAgeCalls - 1 - i];
    }
    m_.Set("service.revision_age_slowdown", first > 0 ? last / first : 0,
           "ratio");

    // Session open: OpenSession plus its first Sample.
    std::vector<double> open_us;
    {
      ScopedSpan rung(buf_, "service.session_open", root_, 0);
      for (int i = 0; i < kSessionOpens; ++i) {
        ScopedSpan span(buf_, "service.session_open", rung.id(),
                        spans_.NewRequest());
        const int64_t t0 = NowNs();
        SUJ_ASSIGN_OR_RETURN(uint64_t s, service->OpenSession(kQuery, options));
        SUJ_RETURN_NOT_OK(service->Sample(s, sizes_[0]).status());
        open_us.push_back((NowNs() - t0) * 1e-3);
        SUJ_RETURN_NOT_OK(service->CloseSession(s));
      }
    }
    m_.Set("service.session_open_us", Median(open_us), "us");
    Ran("service", "core " + Fixed(core_t.NsPerTuple()) + " ns/tuple, session " +
                       Fixed(service_t.NsPerTuple()) + " ns/tuple (" +
                       Fixed(overhead_us) + " us/request over core); " +
                       "revision session " + Fixed(first / decile) + " -> " +
                       Fixed(last / decile) + " ns/tuple over " +
                       std::to_string(kAgeCalls) + " calls of " +
                       std::to_string(age_call));
    Ran("net", "wire " + Fixed(wire_t.NsPerTuple()) + " ns/tuple (self over "
                   "session " + Fixed(wire_self) + "), 1-tuple round trip " +
                   Fixed(Median(rtt_us)) + " us");
    return Status::OK();
  }

  /// Median seconds of `repeats` timed calls of `body`, one span each.
  Result<double> TimeRepeated(const char* name, const std::function<Status()>& body) {
    ScopedSpan rung(buf_, name, root_, 0);
    std::vector<double> seconds;
    for (int i = 0; i < kSetupRepeats; ++i) {
      ScopedSpan span(buf_, name, rung.id(), spans_.NewRequest());
      const int64_t t0 = NowNs();
      SUJ_RETURN_NOT_OK(body());
      seconds.push_back((NowNs() - t0) * 1e-9);
    }
    return Median(seconds);
  }

  // ---- set-up: warm-up estimation, weight indexes, probers ----
  Status Setup() {
    const auto& joins = plan_->joins();
    const suj::PreparedQueryOptions& prep = served_.inputs().prep;
    SUJ_ASSIGN_OR_RETURN(
        double warmup_s,
        TimeRepeated("core.warmup", [&]() -> Status {
          suj::CompositeIndexCache cache;
          if (prep.warmup == suj::WarmupMode::kExact) {
            SUJ_ASSIGN_OR_RETURN(auto exact,
                                 suj::ExactOverlapCalculator::Create(joins));
            return suj::ComputeUnionEstimates(exact.get()).status();
          }
          suj::RandomWalkOverlapEstimator::Options w = prep.walk_options;
          w.probers = plan_->probers();
          w.wander_factory = plan_->MakeWanderFactory();
          SUJ_ASSIGN_OR_RETURN(
              auto walker,
              suj::RandomWalkOverlapEstimator::Create(joins, &cache, w));
          suj::Rng rng(prep.warmup_seed);
          SUJ_RETURN_NOT_OK(walker->Warmup(rng));
          return suj::ComputeUnionEstimates(walker.get()).status();
        }));
    SUJ_ASSIGN_OR_RETURN(
        double index_s, TimeRepeated("join.index_build", [&]() -> Status {
          suj::CompositeIndexCache cache;
          for (const auto& join : joins) {
            SUJ_RETURN_NOT_OK(suj::ExactWeightIndex::Build(join, &cache).status());
          }
          return Status::OK();
        }));
    SUJ_ASSIGN_OR_RETURN(
        double probers_s, TimeRepeated("join.probers_build", [&]() -> Status {
          return suj::BuildProbers(joins).status();
        }));
    m_.Set("core.warmup_s", warmup_s, "s");
    m_.Set("join.index_build_s", index_s, "s");
    m_.Set("join.probers_build_s", probers_s, "s");
    Ran("setup", "warm-up " + Fixed(warmup_s, 4) + " s, indexes " +
                     Fixed(index_s, 4) + " s, probers " + Fixed(probers_s, 4) +
                     " s");
    return Status::OK();
  }

  // ---- apply: data-epoch refresh in process and over the wire ----
  Status Apply() {
    SUJ_ASSIGN_OR_RETURN(
        suj::net::SujClient client,
        suj::net::SujClient::Connect("127.0.0.1", served_.port(), "ladder"));
    const auto& deltas = served_.inputs().deltas;
    std::vector<double> local_ms, wire_ms;
    ScopedSpan rung(buf_, "service.apply_delta", root_, 0);
    for (size_t d = deltas.size() - kLadderDeltas; d < deltas.size(); ++d) {
      const uint64_t request = spans_.NewRequest();
      // Same delta, same base epoch: in process (result dropped) and over
      // the wire (installed, so it is the next base), alternating which
      // goes first so neither always runs on warmed caches.
      const suj::PreparedUnionPtr base = served_.plan();
      auto local = [&]() -> Status {
        ScopedSpan span(buf_, "service.apply_delta", rung.id(), request);
        const int64_t t0 = NowNs();
        auto refreshed = suj::PreparedUnion::ApplyDelta(base, {deltas[d]});
        // Timed before `refreshed` is freed: the wire path keeps its new
        // epoch too, so neither side pays for a teardown.
        local_ms.push_back((NowNs() - t0) * 1e-6);
        return refreshed.status();
      };
      auto wire = [&]() -> Status {
        ScopedSpan span(buf_, "net.apply_delta", rung.id(), request);
        const int64_t t0 = NowNs();
        SUJ_RETURN_NOT_OK(client.ApplyDelta(ToWire(deltas[d])).status());
        wire_ms.push_back((NowNs() - t0) * 1e-6);
        return Status::OK();
      };
      if (d % 2 == 0) {
        SUJ_RETURN_NOT_OK(local());
        SUJ_RETURN_NOT_OK(wire());
      } else {
        SUJ_RETURN_NOT_OK(wire());
        SUJ_RETURN_NOT_OK(local());
      }
    }
    const double local = Median(local_ms);
    m_.Set("service.apply_delta_ms", local, "ms");
    m_.Set("net.apply_overhead_ms", Median(wire_ms) - local, "ms");
    Ran("apply", "in process " + Fixed(local, 3) + " ms, wire " +
                     Fixed(Median(wire_ms), 3) + " ms");
    return Status::OK();
  }

  static std::string Fixed(double v, int digits = 1) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
  }

  Served& served_;
  SpanRecorder& spans_;
  SpanRecorder::Buffer* buf_;
  Metrics& m_;
  std::vector<std::string>& ran_;
  std::vector<std::string>& report_;
  const suj::PreparedUnionPtr plan_;
  const std::vector<size_t> sizes_;
  const uint64_t request_base_;
  /// Tuples the ageing revision session serves over its kAgeCalls calls.
  const size_t age_tuples_;
  uint64_t root_ = 0;
  double descent_ns_per_tuple_ = 0;
  double warm_ns_per_tuple_ = 0;
  int64_t warm_sample_ns_ = 0;
  Tally revision_t1_;
};

}  // namespace

const std::vector<std::string>& LadderRungs() {
  static const std::vector<std::string> rungs = {
      "join",    "core.oracle", "core.owner", "storage.encode", "net.chunk",
      "core.revision", "exec", "shard", "service", "net", "setup", "apply"};
  return rungs;
}

Status RunLadder(Served& served, SpanRecorder& spans, size_t tuple_budget,
                 Metrics* metrics, std::vector<std::string>* rungs_ran,
                 std::vector<std::string>* report) {
  Ladder ladder(served, spans, tuple_budget, metrics, rungs_ran, report);
  return ladder.Run();
}

}  // namespace perfbench
