#include "service/session.h"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace suj {

Result<std::unique_ptr<SamplingSession>> SamplingSession::Create(
    uint64_t id, PreparedUnionPtr plan, SessionOptions options, Rng rng) {
  if (plan == nullptr) {
    return Status::InvalidArgument("null prepared plan");
  }
  if (options.worker_threads == 0) {
    return Status::InvalidArgument(
        "worker_threads must be >= 1 (it is a per-request executor width, "
        "not an off switch)");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  return std::unique_ptr<SamplingSession>(
      new SamplingSession(id, std::move(plan), options, rng));
}

Status SamplingSession::EnsureSampler() {
  if (union_sampler_ != nullptr || online_sampler_ != nullptr) {
    return Status::OK();
  }
  if (options_.mode == SessionOptions::Mode::kOracle ||
      options_.mode == SessionOptions::Mode::kRevision) {
    UnionSampler::Options o;
    o.plan_id = plan_->plan_id();
    o.max_draws_per_round = options_.max_draws_per_round;
    std::vector<std::unique_ptr<JoinSampler>> samplers;
    if (options_.mode == SessionOptions::Mode::kRevision) {
      // Decentralized Algorithm 1 on the epoch-reconciled executor path
      // — at EVERY worker_threads, so the session's sequence does not
      // depend on the serving host's thread configuration. The protocol
      // runs on a session-lived RevisionState: ownership learned for one
      // request keeps paying for every later request and stream chunk.
      o.mode = UnionSampler::Mode::kRevision;
      o.num_threads = options_.worker_threads;
      o.batch_size = options_.batch_size;
      o.sampler_factory = plan_->MakeJoinSamplerFactory();
      o.max_revision_surplus = options_.max_revision_surplus;
      revision_state_ = std::make_unique<RevisionState>();
    } else {
      o.mode = UnionSampler::Mode::kMembershipOracle;
      if (options_.worker_threads > 1) {
        o.num_threads = options_.worker_threads;
        o.batch_size = options_.batch_size;
        o.sampler_factory = plan_->MakeJoinSamplerFactory();
      } else {
        auto built = plan_->MakeJoinSamplerFactory()();
        if (!built.ok()) return built.status();
        samplers = std::move(built).value();
      }
    }
    auto sampler =
        UnionSampler::Create(plan_->joins(), std::move(samplers),
                             plan_->estimates(), plan_->probers(), o);
    if (!sampler.ok()) return sampler.status();
    union_sampler_ = std::move(sampler).value();
    return Status::OK();
  }

  // kOnline: private walker over the shared cache + probers, then the
  // online sampler warm-started from the plan's estimates. The session's
  // warm-up walks (if any) run here — on the first request's thread, so
  // a stream's producer overlaps them with the consumer's setup — and
  // their records become this session's reuse pool.
  RandomWalkOverlapEstimator::Options w;
  w.probers = plan_->probers();
  w.min_walks = options_.warmup_walks;
  w.max_walks = options_.warmup_walks;
  w.wander_factory = plan_->MakeWanderFactory();  // null when unsharded
  auto walker = RandomWalkOverlapEstimator::Create(
      plan_->joins(), plan_->index_cache().get(), w);
  if (!walker.ok()) return walker.status();
  walker_ = std::move(walker).value();
  if (options_.warmup_walks > 0) {
    SUJ_RETURN_NOT_OK(walker_->Warmup(rng_));
  }

  OnlineUnionSampler::Options o;
  o.mode = UnionSampler::Mode::kMembershipOracle;
  o.plan_id = plan_->plan_id();
  o.probers = plan_->probers();
  o.enable_reuse = options_.enable_reuse;
  o.backtrack_interval = options_.backtrack_interval;
  o.max_draws_per_round = options_.max_draws_per_round;
  o.wander_factory = plan_->MakeWanderFactory();
  if (options_.worker_threads > 1) {
    o.index_cache = plan_->index_cache();
    o.num_threads = options_.worker_threads;
    o.batch_size = options_.batch_size;
  }
  auto sampler = OnlineUnionSampler::Create(plan_->joins(), walker_.get(),
                                            plan_->estimates(), o);
  if (!sampler.ok()) return sampler.status();
  online_sampler_ = std::move(sampler).value();
  return Status::OK();
}

std::vector<Tuple> SessionSample::ToTuples() && {
  return tuples.empty() ? draws.Materialize() : std::move(tuples);
}

Result<SessionSample> SamplingSession::SampleLocked(size_t n) {
  if (plan_->shards() != nullptr) {
    // Every request and every stream chunk passes through here, so a
    // shard failing mid-stream surfaces as kUnavailable on the next
    // chunk — a routed draw could land on the dead shard, and silently
    // re-routing would bias the sample.
    SUJ_RETURN_NOT_OK(plan_->shards()->CheckAvailable());
  }
  SUJ_RETURN_NOT_OK(EnsureSampler());
  static obs::Histogram* const sample_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "suj_service_sample_ns", obs::Histogram::DefaultLatencyBoundsNs());
  const int64_t start_ns = obs::MonotonicNs();
  obs::ScopedSpan walk_span(obs::Stage::kWalk);
  SessionSample result;
  const Status sampled = [&]() -> Status {
    switch (options_.mode) {
      case SessionOptions::Mode::kOnline: {
        SUJ_ASSIGN_OR_RETURN(result.tuples, online_sampler_->Sample(n, rng_));
        return Status::OK();
      }
      case SessionOptions::Mode::kRevision: {
        SUJ_ASSIGN_OR_RETURN(
            result.tuples, union_sampler_->Sample(n, rng_, *revision_state_));
        return Status::OK();
      }
      case SessionOptions::Mode::kOracle: {
        SUJ_ASSIGN_OR_RETURN(result.draws,
                             union_sampler_->SampleDraws(n, rng_));
        return Status::OK();
      }
    }
    return Status::Internal("unknown session mode");
  }();
  sample_ns->Observe(
      static_cast<uint64_t>(obs::MonotonicNs() - start_ns));
  SUJ_RETURN_NOT_OK(sampled);
  ++requests_;
  tuples_delivered_ += result.size();
  UpdateStatsSnapshot();
  return result;
}

Result<std::vector<Tuple>> SamplingSession::Sample(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  SUJ_ASSIGN_OR_RETURN(SessionSample sample, SampleLocked(n));
  return std::move(sample).ToTuples();
}

Result<SessionSample> SamplingSession::Sample(
    size_t n, AdmissionController& admission, AdmitMode mode,
    const std::atomic<bool>* cancelled) {
  auto is_cancelled = [&] {
    return cancelled != nullptr &&
           cancelled->load(std::memory_order_relaxed);
  };
  if (mode == AdmitMode::kReject) {
    // Fail-fast end to end: a busy session is backpressure just like a
    // full admission controller — never park a load-shedding caller.
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      return Status::ResourceExhausted(
          "session " + std::to_string(id_) +
          " is busy with another request; retry later or use blocking "
          "admission");
    }
    auto permit = admission.TryAdmit();
    if (!permit.ok()) return permit.status();
    return SampleLocked(n);
  }
  // Session turn first, admission second (see header). No deadlock:
  // admission slots are released by requests that hold OTHER sessions'
  // mutexes (or none), never this one — only we hold it here.
  //
  // Cancellable callers poll for the mutex instead of parking on it: the
  // current holder may itself be waiting out a saturated admission
  // queue, and a cancellation must not wait behind that.
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (cancelled != nullptr) {
    while (!lock.try_lock()) {
      if (is_cancelled()) {
        return Status::ResourceExhausted("request cancelled");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    lock.lock();
  }
  if (is_cancelled()) {
    return Status::ResourceExhausted("request cancelled");
  }
  Result<AdmissionController::Permit> permit = [&] {
    obs::ScopedSpan admit_span(obs::Stage::kAdmissionWait);
    return admission.Admit(cancelled);
  }();
  if (!permit.ok()) return permit.status();
  if (is_cancelled()) {
    // Cancelled between admission and sampling: don't burn the slot on
    // a result nobody will read.
    return Status::ResourceExhausted("request cancelled");
  }
  return SampleLocked(n);
}

void SamplingSession::UpdateStatsSnapshot() {
  SessionStatsSnapshot s;
  s.session_id = id_;
  s.plan_id = plan_->plan_id();
  s.query = plan_->name();
  s.requests = requests_;
  s.tuples_delivered = tuples_delivered_;
  s.sampler.plan_id = plan_->plan_id();
  if (online_sampler_ != nullptr) {
    s.sampler = online_sampler_->stats();
  } else if (union_sampler_ != nullptr) {
    static_cast<UnionSampleStats&>(s.sampler) = union_sampler_->stats();
  }
  if (revision_state_ != nullptr) {
    s.revision_buffered = revision_state_->buffered();
    s.revision_surplus_high_water = s.sampler.revision_surplus_high_water;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_snapshot_ = std::move(s);
}

SessionStatsSnapshot SamplingSession::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  SessionStatsSnapshot s = stats_snapshot_;
  // A never-sampled session still identifies itself.
  if (s.session_id == 0) {
    s.session_id = id_;
    s.plan_id = plan_->plan_id();
    s.query = plan_->name();
    s.sampler.plan_id = plan_->plan_id();
  }
  return s;
}

SessionManager::SessionManager(Options options)
    : options_(options), substream_cursor_(options.seed) {}

Result<std::shared_ptr<SamplingSession>> SessionManager::Open(
    PreparedUnionPtr plan, SessionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(sessions_.size()) + "/" +
        std::to_string(options_.max_sessions) + "); close sessions first");
  }
  Rng session_rng = substream_cursor_;
  auto session = SamplingSession::Create(next_id_, std::move(plan), options,
                                         session_rng);
  if (!session.ok()) return session.status();
  // Only a successful open consumes an id and a substream: failed opens
  // must not shift later sessions' randomness.
  substream_cursor_.Jump();
  ++ever_opened_;
  std::shared_ptr<SamplingSession> shared = std::move(session).value();
  sessions_.emplace(next_id_++, shared);
  return shared;
}

Result<std::shared_ptr<SamplingSession>> SessionManager::Get(
    uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  return it->second;
}

Status SessionManager::Close(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(id) == 0) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  return Status::OK();
}

std::vector<uint64_t> SessionManager::ReapIdle(int64_t now_ns,
                                               int64_t idle_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> reaped;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const int64_t last = it->second->last_activity_ns();
    if (last != 0 && now_ns - last > idle_ns) {
      reaped.push_back(it->first);
      // Erase drops only the manager's reference; a request still
      // holding the shared_ptr (e.g. parked in admission) finishes
      // safely against the orphaned session.
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  return reaped;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SessionManager::ever_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ever_opened_;
}

}  // namespace suj
