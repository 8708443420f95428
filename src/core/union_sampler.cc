#include "core/union_sampler.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <unordered_set>

#include "common/alias_table.h"
#include "common/logging.h"
#include "core/ownership_map.h"
#include "core/revision_state.h"
#include "exec/parallel_executor.h"
#include "exec/worker_context_pool.h"
#include "obs/metrics.h"

namespace suj {

namespace {

using Clock = std::chrono::steady_clock;

// Folds one Sample call's stats_ deltas into the process-wide obs
// counters at scope exit. Deliberately OUTSIDE the sampling loop: the
// hot path (rounds, draws, accepts) stays untouched, and the obs cost
// is a handful of relaxed adds per CALL — which is what keeps the
// metrics-on/metrics-off perf gate trivially within bounds.
class ScopedCoreStatsExport {
 public:
  explicit ScopedCoreStatsExport(const UnionSampleStats* stats)
      : stats_(stats),
        rounds_(stats->rounds),
        accepted_(stats->accepted),
        rejected_cover_(stats->rejected_cover),
        revisions_(stats->revisions),
        reconcile_dropped_(stats->reconcile_dropped),
        reconciliation_seconds_(stats->reconciliation_seconds) {}

  ~ScopedCoreStatsExport() {
    static obs::Counter* const rounds =
        obs::MetricsRegistry::Global().GetCounter("suj_core_rounds_total");
    static obs::Counter* const accepted =
        obs::MetricsRegistry::Global().GetCounter("suj_core_accepted_total");
    static obs::Counter* const rejected =
        obs::MetricsRegistry::Global().GetCounter(
            "suj_core_rejected_cover_total");
    static obs::Counter* const revisions =
        obs::MetricsRegistry::Global().GetCounter("suj_core_revisions_total");
    static obs::Counter* const reconcile_dropped =
        obs::MetricsRegistry::Global().GetCounter(
            "suj_core_reconcile_dropped_total");
    static obs::Histogram* const reconcile_ns =
        obs::MetricsRegistry::Global().GetHistogram(
            "suj_core_reconcile_ns", obs::Histogram::DefaultLatencyBoundsNs());
    rounds->Increment(stats_->rounds - rounds_);
    accepted->Increment(stats_->accepted - accepted_);
    rejected->Increment(stats_->rejected_cover - rejected_cover_);
    revisions->Increment(stats_->revisions - revisions_);
    reconcile_dropped->Increment(stats_->reconcile_dropped -
                                 reconcile_dropped_);
    const double reconcile_delta_s =
        stats_->reconciliation_seconds - reconciliation_seconds_;
    if (reconcile_delta_s > 0) {
      reconcile_ns->Observe(static_cast<uint64_t>(reconcile_delta_s * 1e9));
    }
  }

 private:
  const UnionSampleStats* stats_;
  uint64_t rounds_;
  uint64_t accepted_;
  uint64_t rejected_cover_;
  uint64_t revisions_;
  uint64_t reconcile_dropped_;
  double reconciliation_seconds_;
};

Status AllCoversAbandoned() {
  return Status::Internal(
      "every join's cover was abandoned; warm-up estimates are "
      "inconsistent with the data");
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Algorithm 1's oracle loop: draws until `out` holds `count` draws, each
// owned by the join it came from (OwnedBy probes only the joins before
// it). A round whose join yields no owned draw within the budget is
// abandoned: the join is zeroed in `selector` and appended to
// `*abandoned`. The clock is read once per draw boundary, each gap
// charged to the draw that ends it.
Status DrawOwned(size_t count, Rng& rng, WeightedSelector& selector,
                 const std::vector<std::unique_ptr<JoinSampler>>& samplers,
                 const std::vector<JoinMembershipProberPtr>& probers,
                 uint64_t max_draws_per_round, UnionSampleStats* stats,
                 RowDrawBatch* out, std::vector<int>* abandoned) {
  while (out->size() < count) {
    ++stats->rounds;
    const int j = static_cast<int>(selector.Sample(rng));
    JoinSampler& sampler = *samplers[static_cast<size_t>(j)];
    bool round_done = false;
    Clock::time_point last = Clock::now();
    for (uint64_t draw = 0; draw < max_draws_per_round && !round_done;
         ++draw) {
      ++stats->join_draws;
      RowDraw d = out->Next();
      const bool drawn = sampler.TrySampleRows(rng, &d);
      // Outside J'_j: the cover assigns the value to an earlier join.
      // Either way the round retries the same join (uniformity on J'_j).
      const bool owned = drawn && OwnedBy(probers, d, j);
      if (drawn && !owned) ++stats->rejected_cover;
      const Clock::time_point now = Clock::now();
      (owned ? stats->accepted_seconds : stats->rejected_seconds) +=
          std::chrono::duration<double>(now - last).count();
      last = now;
      if (!owned) continue;
      out->Commit(d);
      ++stats->accepted;
      round_done = true;
    }
    if (!round_done) {
      // The join produced no owned draw within the budget: its estimated
      // cover overstated an (effectively) empty real cover.
      ++stats->abandoned_rounds;
      abandoned->push_back(j);
      if (!selector.Zero(static_cast<size_t>(j)).ok()) {
        return AllCoversAbandoned();
      }
    }
  }
  return Status::OK();
}

void FlushSamplerMetrics(
    const std::vector<std::unique_ptr<JoinSampler>>& samplers) {
  for (const auto& s : samplers) s->FlushMetrics();
}

Status ValidateSamplerSet(
    const std::vector<JoinSpecPtr>& joins,
    const std::vector<std::unique_ptr<JoinSampler>>& samplers) {
  SUJ_RETURN_NOT_OK(ValidateUnionCompatible(joins));
  if (samplers.size() != joins.size()) {
    return Status::InvalidArgument("need exactly one sampler per join");
  }
  for (size_t j = 0; j < joins.size(); ++j) {
    if (samplers[j] == nullptr) {
      return Status::InvalidArgument("null sampler");
    }
    if (samplers[j]->join() != joins[j]) {
      return Status::InvalidArgument(
          "sampler " + std::to_string(j) + " is not bound to join '" +
          joins[j]->name() + "'");
    }
  }
  return Status::OK();
}

// What one oracle call's fan-out reads and writes, bound into every worker
// context for the fan-out: the live selection weights frozen at the
// call's start, and per-batch slots — each written only by the worker
// that claims the batch — for the joins abandoned in that batch.
struct OracleCall {
  const std::vector<double>* weights;
  std::vector<std::vector<int>> abandoned;
};

// One worker's context for oracle mode: the oracle loop run per batch
// over the worker's own join samplers and the shared probers. A batch
// starts from the call's frozen weights, so its draws are a pure function
// of (seed, batch index) whichever worker claims it. Contexts live in the
// UnionSampler's pool and serve every call; only stats_ accumulates.
class OracleBatchSampler : public DrawBatchSampler {
 public:
  OracleBatchSampler(std::vector<JoinSpecPtr> joins,
                     std::vector<std::unique_ptr<JoinSampler>> samplers,
                     const std::vector<JoinMembershipProberPtr>* probers,
                     uint64_t max_draws_per_round)
      : joins_(std::move(joins)),
        samplers_(std::move(samplers)),
        probers_(probers),
        max_draws_per_round_(max_draws_per_round) {}

  /// Points the next fan-out at `call` (nullptr unbinds). Called serially
  /// between fan-outs.
  void Bind(OracleCall* call) { call_ = call; }

  Result<RowDrawBatch> SampleBatch(size_t batch_index, size_t count,
                                   Rng& rng) override {
    SUJ_CHECK(call_ != nullptr);  // Bind precedes every fan-out
    // Abandonment found here zeroes the join for the rest of this batch
    // only; the call folds the batch's slot in after the fan-out.
    auto selector = WeightedSelector::Build(*call_->weights);
    if (!selector.ok()) return AllCoversAbandoned();
    RowDrawBatch out(joins_);
    out.Reserve(count);
    SUJ_RETURN_NOT_OK(DrawOwned(count, rng, *selector, samplers_, *probers_,
                                max_draws_per_round_, &stats_, &out,
                                &call_->abandoned[batch_index]));
    return out;
  }

  UnionSampleStats stats() const override { return stats_; }
  /// Stats since the previous TakeStats (the per-call fold).
  UnionSampleStats TakeStats() { return std::exchange(stats_, {}); }
  void FlushMetrics() { FlushSamplerMetrics(samplers_); }

 private:
  std::vector<JoinSpecPtr> joins_;
  std::vector<std::unique_ptr<JoinSampler>> samplers_;
  const std::vector<JoinMembershipProberPtr>* probers_;
  uint64_t max_draws_per_round_;
  OracleCall* call_ = nullptr;
  UnionSampleStats stats_;
};

// What one revision epoch's fan-out reads and writes, bound into every
// worker context for the fan-out: the state's live selection weights, a
// lock-free view of its reconciled owners (immutable while the fan-out
// runs), and per-batch slots — each written only by the worker that
// claims the batch — for the claim journal and the abandoned joins.
struct RevisionEpoch {
  const std::vector<double>* weights;
  OwnershipMap::View owners;
  std::vector<ClaimBatch> claims;
  std::vector<std::vector<int>> abandoned;
};

// One worker's context for the revision protocol: the revision loop run
// per batch against (epoch snapshot ∘ batch-local overlay) ownership.
// Everything mutable is per-batch or per-worker; the shared OwnershipMap
// is only read, so batch output is a pure function of (seed, batch index,
// snapshot) and the concatenation is thread-count independent.
//
// Contexts live in the UnionSampler's pool and serve every epoch of every
// call and RevisionState; the driver binds them to the current epoch for
// the length of its fan-out. Only stats_ accumulates across epochs.
class RevisionBatchSampler : public BatchSampler {
 public:
  RevisionBatchSampler(std::vector<std::unique_ptr<JoinSampler>> samplers,
                       uint64_t max_draws_per_round)
      : samplers_(std::move(samplers)),
        max_draws_per_round_(max_draws_per_round) {}

  /// Points the next fan-out at `epoch` (nullptr unbinds). Called serially
  /// between fan-outs by the epoch driver.
  void Bind(RevisionEpoch* epoch) { epoch_ = epoch; }

  Result<std::vector<Tuple>> SampleBatch(size_t batch_index, size_t count,
                                         Rng& rng) override {
    SUJ_CHECK(epoch_ != nullptr);  // Bind precedes every fan-out
    // Batch-local view: the epoch's weights (abandonment discovered here
    // is recorded in the batch's slot and zeroed only for the rest of
    // this batch)
    // and a tentative-claim overlay over the epoch's reconciled snapshot.
    // Selection runs O(1) through an alias table over the weight copy;
    // the build consumes no RNG, so batch output stays a pure function of
    // (seed, batch index).
    auto selector = WeightedSelector::Build(*epoch_->weights);
    if (!selector.ok()) return AllCoversAbandoned();
    std::unordered_map<std::string, int> local;
    std::vector<Tuple> tuples;
    std::vector<std::string> keys;
    ClaimBatch claims;
    tuples.reserve(count);
    keys.reserve(count);
    claims.reserve(count);
    while (tuples.size() < count) {
      ++stats_.rounds;
      int j = static_cast<int>(selector->Sample(rng));
      bool round_done = false;
      for (uint64_t draw = 0;
           draw < max_draws_per_round_ && !round_done; ++draw) {
        auto start = Clock::now();
        ++stats_.join_draws;
        std::optional<Tuple> t = samplers_[static_cast<size_t>(j)]
                                     ->TrySample(rng);
        if (!t.has_value()) {
          stats_.rejected_seconds += SecondsSince(start);
          continue;  // join-level rejection; retry the same join
        }
        std::string key = t->Encode();
        auto it = local.find(key);
        if (it != local.end()) {
          // The batch already holds copies of this value.
          if (it->second < j) {
            ++stats_.rejected_cover;
            stats_.rejected_seconds += SecondsSince(start);
            continue;
          }
          if (it->second > j) {
            // Batch-local revision: purge the batch's stale copies (and
            // their claims) now; stale copies in OTHER batches are the
            // reconciliation pass's job.
            ++stats_.revisions;
            size_t before = tuples.size();
            for (size_t k = tuples.size(); k-- > 0;) {
              if (keys[k] == key) {
                tuples.erase(tuples.begin() + static_cast<ptrdiff_t>(k));
                keys.erase(keys.begin() + static_cast<ptrdiff_t>(k));
                claims.erase(claims.begin() + static_cast<ptrdiff_t>(k));
              }
            }
            stats_.removed_by_revision += before - tuples.size();
          }
        } else {
          int g = epoch_->owners.Owner(key);
          if (g >= 0 && g < j) {
            // The snapshot assigns the value to an earlier join: reject,
            // retry the same join (uniformity on J'_j).
            ++stats_.rejected_cover;
            stats_.rejected_seconds += SecondsSince(start);
            continue;
          }
          // g == -1 (unclaimed) or g > j: accept; a g > j conflict is the
          // reconciliation pass's revision to perform (and count) — this
          // batch holds no stale copies to purge.
        }
        local[key] = j;
        claims.push_back(OwnershipClaim{key, j});
        keys.push_back(std::move(key));
        tuples.push_back(std::move(*t));
        ++stats_.accepted;
        stats_.accepted_seconds += SecondsSince(start);
        round_done = true;
      }
      if (!round_done) {
        ++stats_.abandoned_rounds;
        epoch_->abandoned[batch_index].push_back(j);
        if (!selector->Zero(static_cast<size_t>(j)).ok()) {
          return AllCoversAbandoned();
        }
      }
    }
    epoch_->claims[batch_index] = std::move(claims);
    return tuples;
  }

  UnionSampleStats stats() const override { return stats_; }
  /// Stats since the previous TakeStats (the epoch driver's per-call fold).
  UnionSampleStats TakeStats() { return std::exchange(stats_, {}); }
  void FlushMetrics() { FlushSamplerMetrics(samplers_); }

 private:
  std::vector<std::unique_ptr<JoinSampler>> samplers_;
  uint64_t max_draws_per_round_;
  RevisionEpoch* epoch_ = nullptr;
  UnionSampleStats stats_;
};

// Epoch ramp: batch * 4^e, capped at batch << kRevisionRampCap
// (Options::max_revision_surplus can lower the effective cap). The cap
// also bounds how many batches one epoch can fan out, which bounds the
// useful worker-pool width.
constexpr uint64_t kRevisionRampCap = 4;

}  // namespace

Status UnionSampleStats::MergeFrom(const UnionSampleStats& other) {
  if (plan_id != 0 && other.plan_id != 0 && plan_id != other.plan_id) {
    return Status::InvalidArgument(
        "refusing to merge stats of plan " + std::to_string(other.plan_id) +
        " into stats of plan " + std::to_string(plan_id) +
        "; per-query accounting would be corrupted");
  }
  if (plan_id == 0) plan_id = other.plan_id;
  rounds += other.rounds;
  join_draws += other.join_draws;
  accepted += other.accepted;
  rejected_cover += other.rejected_cover;
  revisions += other.revisions;
  removed_by_revision += other.removed_by_revision;
  abandoned_rounds += other.abandoned_rounds;
  accepted_seconds += other.accepted_seconds;
  rejected_seconds += other.rejected_seconds;
  parallel_batches += other.parallel_batches;
  parallel_workers += other.parallel_workers;
  parallel_clipped += other.parallel_clipped;
  parallel_seconds += other.parallel_seconds;
  revision_epochs += other.revision_epochs;
  reconcile_dropped += other.reconcile_dropped;
  reconciliation_seconds += other.reconciliation_seconds;
  revision_surplus_high_water =
      std::max(revision_surplus_high_water, other.revision_surplus_high_water);
  return Status::OK();
}

Result<std::unique_ptr<UnionSampler>> UnionSampler::Create(
    std::vector<JoinSpecPtr> joins,
    std::vector<std::unique_ptr<JoinSampler>> samplers,
    UnionEstimates estimates, std::vector<JoinMembershipProberPtr> probers,
    Options options) {
  if (options.sampler_factory != nullptr) {
    // Executor path: workers build their own sampler sets from the
    // factory (each validated by the per-worker Create). A Create-time
    // set would be dead weight — Sample() never touches it and its stats
    // would read all-zero — so the ambiguous combination is rejected.
    if (!samplers.empty()) {
      return Status::InvalidArgument(
          "pass an empty sampler set when sampler_factory is set; "
          "Create-time samplers are never used on the executor path");
    }
    SUJ_RETURN_NOT_OK(ValidateUnionCompatible(joins));
  } else {
    SUJ_RETURN_NOT_OK(ValidateSamplerSet(joins, samplers));
  }
  if (estimates.cover_sizes.size() != joins.size()) {
    return Status::InvalidArgument("estimates do not match the join count");
  }
  if (options.mode == Mode::kMembershipOracle &&
      probers.size() != joins.size()) {
    return Status::InvalidArgument(
        "membership-oracle mode needs one prober per join");
  }
  double total_cover = 0.0;
  for (double c : estimates.cover_sizes) total_cover += c;
  if (total_cover <= 0.0) {
    return Status::FailedPrecondition(
        "all cover sizes are zero; the union is (estimated) empty");
  }
  if ((options.sampler_factory != nullptr || options.mode == Mode::kRevision) &&
      options.batch_size == 0) {
    // Both fan-outs cut batches: oracle ownership is a pure function,
    // revision ownership runs the epoch-reconciled protocol at every
    // thread count (ownership_map.h).
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (options.sampler_factory == nullptr && options.num_threads != 1) {
    return Status::InvalidArgument(
        "num_threads != 1 requires a sampler_factory for per-worker "
        "samplers");
  }
  return std::unique_ptr<UnionSampler>(
      new UnionSampler(std::move(joins), std::move(samplers),
                       std::move(estimates), std::move(probers), options));
}

// The sampler's oracle worker contexts, built on the first parallel
// oracle call and reused by every later one.
struct UnionSampler::OraclePool {
  ParallelUnionExecutor executor;
  std::vector<OracleBatchSampler*> contexts;  // borrowed from `pool`
  WorkerContextPoolOf<RowDrawBatch> pool;
};

Status UnionSampler::EnsureOraclePool() {
  if (oracle_pool_ != nullptr) return Status::OK();
  ParallelUnionExecutor::Options exec_options;
  exec_options.num_threads = options_.num_threads;
  exec_options.batch_size = options_.batch_size;
  ParallelUnionExecutor executor(exec_options);
  const size_t width = executor.options().num_threads;
  std::vector<OracleBatchSampler*> contexts(width, nullptr);
  auto factory =
      [&](size_t worker) -> Result<std::unique_ptr<DrawBatchSampler>> {
    SUJ_ASSIGN_OR_RETURN(auto samplers, options_.sampler_factory());
    SUJ_RETURN_NOT_OK(ValidateSamplerSet(joins_, samplers));
    auto context = std::make_unique<OracleBatchSampler>(
        joins_, std::move(samplers), &probers_,
        options_.max_draws_per_round);
    contexts[worker] = context.get();
    return std::unique_ptr<DrawBatchSampler>(std::move(context));
  };
  SUJ_ASSIGN_OR_RETURN(
      WorkerContextPoolOf<RowDrawBatch> pool,
      WorkerContextPoolOf<RowDrawBatch>::Build(width, factory));
  // Contexts are counted when constructed: once per sampler lifetime.
  stats_.parallel_workers += pool.size();
  oracle_pool_.reset(
      new OraclePool{executor, std::move(contexts), std::move(pool)});
  return Status::OK();
}

Result<RowDrawBatch> UnionSampler::SampleParallel(size_t n, uint64_t seed) {
  // Oracle-mode batches carry no cross-batch state, so batch output
  // depends only on the batch RNG — the executor's determinism contract.
  //
  // Abandonment and resumability: covers the sampler already knows are
  // dead are frozen out of this call's weights up front, so later calls
  // never re-pay for them. A cover newly abandoned DURING this call is
  // recorded in its batch's slot and folded into disabled_ only after the
  // whole fan-out; inside the fan-out every batch restarts from the
  // frozen weights, because batch contents must never depend on which
  // worker ran the previous batches.
  SUJ_ASSIGN_OR_RETURN(std::vector<double> weights, LiveWeights());
  SUJ_RETURN_NOT_OK(EnsureOraclePool());
  OraclePool& workers = *oracle_pool_;
  const size_t batch = workers.executor.options().batch_size;
  OracleCall call{&weights,
                  std::vector<std::vector<int>>((n + batch - 1) / batch)};
  for (auto* context : workers.contexts) context->Bind(&call);
  const std::vector<bool> call_start_disabled = disabled_;
  auto result = workers.executor.Execute(n, seed, workers.pool, &stats_);
  // The contexts outlive the call: each hands over what it accumulated
  // during it, error or not. Contexts carry no plan id, so the merge
  // cannot fail.
  for (auto* context : workers.contexts) {
    context->Bind(nullptr);
    SUJ_CHECK(stats_.MergeFrom(context->TakeStats()).ok());
    context->FlushMetrics();
  }
  if (!result.ok()) return result.status();
  // The documented abandonment boundary: a cover abandoned DURING this
  // call takes effect only from the next call, so the exclusion set must
  // be untouched until this post-fan-out fold (anything else would let
  // batch contents depend on scheduling).
  SUJ_CHECK(disabled_ == call_start_disabled);
  for (const auto& slot : call.abandoned) {
    for (int j : slot) disabled_[j] = true;
  }
  return result;
}

// The sampler's revision worker contexts, built on the first revision
// call that generates and reused by every later call and RevisionState.
struct UnionSampler::RevisionPool {
  ParallelUnionExecutor executor;
  std::vector<RevisionBatchSampler*> contexts;  // borrowed from `pool`
  WorkerContextPool pool;
};

UnionSampler::UnionSampler(std::vector<JoinSpecPtr> joins,
                           std::vector<std::unique_ptr<JoinSampler>> samplers,
                           UnionEstimates estimates,
                           std::vector<JoinMembershipProberPtr> probers,
                           Options options)
    : joins_(std::move(joins)),
      samplers_(std::move(samplers)),
      estimates_(std::move(estimates)),
      probers_(std::move(probers)),
      options_(std::move(options)),
      disabled_(joins_.size(), false) {
  stats_.plan_id = options_.plan_id;
}

UnionSampler::~UnionSampler() = default;

Result<std::vector<double>> UnionSampler::LiveWeights() const {
  std::vector<double> weights = estimates_.cover_sizes;
  double remaining = 0.0;
  for (size_t j = 0; j < weights.size(); ++j) {
    if (disabled_[j]) weights[j] = 0.0;
    remaining += weights[j];
  }
  if (remaining <= 0.0) return AllCoversAbandoned();
  return weights;
}

uint64_t UnionSampler::RevisionRampCap() const {
  // The default cap, lowered when Options::max_revision_surplus bounds the
  // surplus so the LARGEST epoch (= the worst-case overshoot past a call's
  // demand) fits under the bound, floored at one batch. A pure function of
  // the options — never of the call pattern — so every chunking sees the
  // same epoch schedule.
  if (options_.max_revision_surplus == 0) return kRevisionRampCap;
  uint64_t cap = 0;
  while (cap < kRevisionRampCap &&
         (options_.batch_size << (cap + 1)) <= options_.max_revision_surplus) {
    ++cap;
  }
  return cap;
}

Status UnionSampler::EnsureRevisionPool() {
  if (revision_pool_ != nullptr) return Status::OK();
  ParallelUnionExecutor::Options exec_options;
  exec_options.num_threads = options_.num_threads;
  exec_options.batch_size = options_.batch_size;
  ParallelUnionExecutor executor(exec_options);
  // Width is clamped to the most batches one capped epoch can fan out.
  // Create-time samplers make a one-context pool that takes them over.
  const size_t width =
      options_.sampler_factory == nullptr
          ? 1
          : std::min(executor.options().num_threads,
                     size_t{1} << RevisionRampCap());
  std::vector<RevisionBatchSampler*> contexts(width, nullptr);
  auto factory = [&](size_t worker) -> Result<std::unique_ptr<BatchSampler>> {
    std::vector<std::unique_ptr<JoinSampler>> samplers;
    if (options_.sampler_factory == nullptr) {
      samplers = std::move(samplers_);
    } else {
      SUJ_ASSIGN_OR_RETURN(samplers, options_.sampler_factory());
      SUJ_RETURN_NOT_OK(ValidateSamplerSet(joins_, samplers));
    }
    auto context = std::make_unique<RevisionBatchSampler>(
        std::move(samplers), options_.max_draws_per_round);
    contexts[worker] = context.get();
    return std::unique_ptr<BatchSampler>(std::move(context));
  };
  SUJ_ASSIGN_OR_RETURN(WorkerContextPool pool,
                       WorkerContextPool::Build(width, factory));
  // Contexts are counted when constructed: once per sampler lifetime.
  stats_.parallel_workers += pool.size();
  revision_pool_.reset(new RevisionPool{executor, std::move(contexts),
                                        std::move(pool)});
  return Status::OK();
}

Result<std::vector<Tuple>> UnionSampler::SampleRevision(size_t n, Rng& rng,
                                                        RevisionState& state,
                                                        bool call_local) {
  // The epoch driver: everything the protocol learns — ownership map,
  // epoch ramp, epoch seeds, selection weights — lives in `state`, and
  // every generation input is a function of the state alone. Splitting n
  // draws across any sequence of calls on one state therefore delivers
  // the byte-identical stream a single call would, at every thread count
  // (the contract documented in core/revision_state.h).
  if (!state.initialized()) {
    SUJ_ASSIGN_OR_RETURN(std::vector<double> weights, LiveWeights());
    // The ONE draw this state ever takes from the caller's RNG.
    state.Initialize(this, rng.Next(), std::move(weights));
  }

  if (state.buffered() < n) {
    SUJ_RETURN_NOT_OK(EnsureRevisionPool());
    RevisionPool& workers = *revision_pool_;
    const uint64_t ramp_cap = RevisionRampCap();
    const int kMaxStalledEpochs = 8;
    int stalled = 0;
    auto run_epochs = [&]() -> Status {
      while (state.buffered() < n) {
        // Learning ramp — batch * 4^e, capped. An epoch's workers sample
        // against the ownership learned BEFORE it, so small early epochs
        // make the unlearned transient a constant NUMBER of draws rather
        // than a constant fraction of the request. A caller's state is
        // never clamped to the call's shortfall (that would cut different
        // batch layouts for different chunkings and break split==whole);
        // its overshoot parks in the buffer for the next call, so the cap
        // also bounds that surplus and the one serial reconcile pass. A
        // call-local state ends with the call, so it clamps instead and
        // never generates past the call.
        size_t need = options_.batch_size
                      << std::min<uint64_t>(2 * state.epoch_index_, ramp_cap);
        if (call_local) need = std::min(need, n - state.buffered());
        ++state.epoch_index_;
        const size_t num_batches =
            (need + options_.batch_size - 1) / options_.batch_size;
        RevisionEpoch epoch{&state.weights_,
                            state.ownership_.UnsynchronizedView(),
                            std::vector<ClaimBatch>(num_batches),
                            std::vector<std::vector<int>>(num_batches)};
        for (auto* context : workers.contexts) context->Bind(&epoch);
        const std::vector<bool> epoch_start_disabled = disabled_;
        auto drawn = workers.executor.Execute(need, state.epoch_seeds_.Next(),
                                              workers.pool, &stats_);
        for (auto* context : workers.contexts) context->Bind(nullptr);
        if (!drawn.ok()) return drawn.status();
        // The fan-out never touches the persistent exclusion set: the
        // epoch-boundary fold below is its only writer and runs serially
        // between fan-outs.
        SUJ_CHECK(disabled_ == epoch_start_disabled);

        // Flatten the per-batch claim journals in batch order; the
        // executor returned the tuples in the same order, one claim per
        // tuple.
        std::vector<OwnershipClaim> claims;
        claims.reserve(drawn->size());
        for (auto& slot : epoch.claims) {
          for (auto& claim : slot) claims.push_back(std::move(claim));
        }
        SUJ_CHECK(claims.size() == drawn->size());

        // Reconcile into a per-epoch result: the purge horizon of a
        // revision is the epoch's own claims, and the epoch's survivors
        // finalize into the state's buffer — the prefix-stability that
        // makes chunked delivery byte-identical to one-shot.
        auto reconcile_start = Clock::now();
        std::vector<Tuple> epoch_result;
        std::vector<std::string> epoch_keys;
        ReconcileOutcome outcome = state.ownership_.Reconcile(
            std::move(claims), std::move(*drawn), &epoch_result,
            &epoch_keys);
        stats_.reconciliation_seconds += SecondsSince(reconcile_start);
        ++stats_.revision_epochs;
        stats_.revisions += outcome.revisions;
        stats_.removed_by_revision += outcome.purged;
        stats_.reconcile_dropped += outcome.dropped;

        // Epoch-boundary abandonment fold: a cover exposed as dead during
        // this epoch stops being selected from the NEXT epoch on — the
        // same fold at every chunking — and lands in the sampler's
        // persistent exclusion set at the same point.
        bool newly_abandoned = false;
        for (const auto& slot : epoch.abandoned) {
          for (int j : slot) {
            if (state.weights_[j] != 0.0) {
              state.weights_[j] = 0.0;
              newly_abandoned = true;
            }
            disabled_[j] = true;
          }
        }
        if (newly_abandoned) {
          double remaining = 0.0;
          for (double w : state.weights_) remaining += w;
          if (remaining <= 0.0) return AllCoversAbandoned();
        }

        const bool progressed = !epoch_result.empty();
        state.AppendFinalized(std::move(epoch_result));
        if (!progressed) {
          // Every claim collided with an earlier-join claim of the same
          // epoch. Each collision teaches the map the winning owner, so
          // stalls cannot persist; a run of them means the sampler
          // configuration is broken.
          if (++stalled >= kMaxStalledEpochs) {
            return Status::Internal(
                "revision reconciliation made no progress for " +
                std::to_string(stalled) +
                " consecutive epochs; the join samplers and cover "
                "estimates are inconsistent");
          }
        } else {
          stalled = 0;
        }
      }
      return Status::OK();
    };
    const Status run_status = run_epochs();
    // The contexts outlive the call: each hands over what it accumulated
    // since the previous call — error or not, so a failing call keeps its
    // completed epochs' accounting. Contexts carry no plan id, so the
    // merge cannot fail.
    for (auto* context : workers.contexts) {
      SUJ_CHECK(stats_.MergeFrom(context->TakeStats()).ok());
      context->FlushMetrics();
    }
    SUJ_RETURN_NOT_OK(run_status);
  }

  // Deliver only after every epoch the call needed has succeeded: an
  // error above returns with the state's delivery cursor untouched
  // (finalized epochs stay buffered), so a retried call resumes the
  // stream without a gap.
  std::vector<Tuple> out;
  out.reserve(n);
  state.DrainInto(&out, n);
  SUJ_CHECK(out.size() == n);
  // Instrument the surplus the fixed ramp parked for the NEXT call: the
  // level this session's buffer peaked at between calls.
  stats_.revision_surplus_high_water =
      std::max(stats_.revision_surplus_high_water,
               static_cast<uint64_t>(state.buffered()));
  return out;
}

Result<std::vector<Tuple>> UnionSampler::Sample(size_t n, Rng& rng,
                                                RevisionState& state) {
  if (options_.mode != Mode::kRevision) {
    return Status::InvalidArgument(
        "resumable sampling requires Mode::kRevision");
  }
  if (state.initialized() && state.bound_to_ != this) {
    return Status::InvalidArgument(
        "RevisionState is bound to a different UnionSampler; a resumed "
        "protocol cannot migrate between samplers");
  }
  ScopedCoreStatsExport obs_export(&stats_);
  return SampleRevision(n, rng, state, /*call_local=*/false);
}

Result<std::vector<Tuple>> UnionSampler::Sample(size_t n, Rng& rng) {
  if (options_.mode == Mode::kRevision) {
    ScopedCoreStatsExport obs_export(&stats_);
    RevisionState call_state;
    return SampleRevision(n, rng, call_state, /*call_local=*/true);
  }
  SUJ_ASSIGN_OR_RETURN(RowDrawBatch draws, SampleDraws(n, rng));
  return draws.Materialize();
}

Result<RowDrawBatch> UnionSampler::SampleDraws(size_t n, Rng& rng) {
  if (options_.mode != Mode::kMembershipOracle) {
    return Status::InvalidArgument(
        "row-draw sampling requires Mode::kMembershipOracle");
  }
  ScopedCoreStatsExport obs_export(&stats_);
  if (options_.sampler_factory != nullptr) {
    // One draw fixes the substream seed; the caller's RNG advances the
    // same way for every thread count.
    return SampleParallel(n, rng.Next());
  }
  // O(1) alias-backed join selection; rebuilt only on abandonment (at
  // most once per join per call).
  SUJ_ASSIGN_OR_RETURN(std::vector<double> weights, LiveWeights());
  auto selector = WeightedSelector::Build(std::move(weights));
  if (!selector.ok()) return AllCoversAbandoned();
  RowDrawBatch out(joins_);
  out.Reserve(n);
  std::vector<int> abandoned;
  const Status drawn =
      DrawOwned(n, rng, *selector, samplers_, probers_,
                options_.max_draws_per_round, &stats_, &out, &abandoned);
  // An abandoned join stops being selected in this call (DrawOwned zeroed
  // it) and in every later one on this instance.
  for (int j : abandoned) disabled_[j] = true;
  FlushSamplerMetrics(samplers_);
  SUJ_RETURN_NOT_OK(drawn);
  return out;
}

JoinSampleStats UnionSampler::AggregatedJoinStats() const {
  JoinSampleStats agg;
  for (const auto& s : samplers_) {
    agg.attempts += s->stats().attempts;
    agg.successes += s->stats().successes;
    agg.dead_ends += s->stats().dead_ends;
    agg.rejections += s->stats().rejections;
  }
  return agg;
}

Result<std::unique_ptr<DisjointUnionSampler>> DisjointUnionSampler::Create(
    std::vector<JoinSpecPtr> joins,
    std::vector<std::unique_ptr<JoinSampler>> samplers,
    std::vector<double> join_sizes) {
  SUJ_RETURN_NOT_OK(ValidateSamplerSet(joins, samplers));
  if (join_sizes.size() != joins.size()) {
    return Status::InvalidArgument("join_sizes must match join count");
  }
  double total = 0.0;
  for (double s : join_sizes) total += s;
  if (total <= 0.0) {
    return Status::FailedPrecondition("disjoint union is (estimated) empty");
  }
  auto alias = AliasTable::Build(join_sizes);
  if (!alias.ok()) return alias.status();
  return std::unique_ptr<DisjointUnionSampler>(new DisjointUnionSampler(
      std::move(joins), std::move(samplers), std::move(join_sizes),
      std::move(*alias)));
}

Result<std::vector<Tuple>> DisjointUnionSampler::Sample(size_t n, Rng& rng) {
  std::vector<Tuple> result;
  result.reserve(n);
  while (result.size() < n) {
    int j = static_cast<int>(alias_.Sample(rng));
    auto t = samplers_[j]->Sample(rng);
    if (!t.ok()) return t.status();
    result.push_back(std::move(t).value());
  }
  FlushSamplerMetrics(samplers_);
  return result;
}

Result<std::unique_ptr<BernoulliUnionSampler>> BernoulliUnionSampler::Create(
    std::vector<JoinSpecPtr> joins,
    std::vector<std::unique_ptr<JoinSampler>> samplers,
    UnionEstimates estimates, std::vector<JoinMembershipProberPtr> probers) {
  SUJ_RETURN_NOT_OK(ValidateSamplerSet(joins, samplers));
  if (probers.size() != joins.size()) {
    return Status::InvalidArgument("need one membership prober per join");
  }
  if (estimates.union_size_eq1 <= 0.0) {
    return Status::FailedPrecondition("union is (estimated) empty");
  }
  return std::unique_ptr<BernoulliUnionSampler>(
      new BernoulliUnionSampler(std::move(joins), std::move(samplers),
                                std::move(estimates), std::move(probers)));
}

Result<std::vector<Tuple>> BernoulliUnionSampler::Sample(size_t n, Rng& rng) {
  RowDrawBatch result(joins_);
  result.Reserve(n);
  const double u = std::max(estimates_.union_size_eq1, 1e-12);
  Status status = Status::OK();
  while (result.size() < n && status.ok()) {
    ++stats_.rounds;
    // Every join fires independently with probability |J_j| / |U|.
    for (size_t j = 0; j < joins_.size() && result.size() < n; ++j) {
      double p = std::min(1.0, estimates_.join_sizes[j] / u);
      if (!rng.Bernoulli(p)) continue;
      if (samplers_[j]->IsEmpty()) continue;
      auto start = Clock::now();
      ++stats_.join_draws;
      RowDraw d = result.Next();
      status = samplers_[j]->SampleRows(rng, &d);
      if (!status.ok()) break;
      // Keep only if J_j is the first join containing the value.
      if (OwnedBy(probers_, d, static_cast<int>(j))) {
        result.Commit(d);
        ++stats_.accepted;
        stats_.accepted_seconds += SecondsSince(start);
      } else {
        ++stats_.rejected_cover;
        stats_.rejected_seconds += SecondsSince(start);
      }
    }
  }
  FlushSamplerMetrics(samplers_);
  SUJ_RETURN_NOT_OK(status);
  return result.Materialize();
}

Result<std::vector<Tuple>> NaiveUnionOfSamples(
    const std::vector<JoinSpecPtr>& joins,
    std::vector<std::unique_ptr<JoinSampler>>& samplers,
    size_t samples_per_join, Rng& rng) {
  SUJ_RETURN_NOT_OK(ValidateUnionCompatible(joins));
  if (samplers.size() != joins.size()) {
    return Status::InvalidArgument("need one sampler per join");
  }
  std::vector<Tuple> result;
  std::unordered_set<std::string> seen;
  for (size_t j = 0; j < joins.size(); ++j) {
    if (samplers[j]->IsEmpty()) continue;
    for (size_t k = 0; k < samples_per_join; ++k) {
      auto t = samplers[j]->Sample(rng);
      if (!t.ok()) return t.status();
      // Set union: keep one instance of overlapping tuples.
      if (seen.insert(t->Encode()).second) {
        result.push_back(std::move(t).value());
      }
    }
  }
  return result;
}

}  // namespace suj
