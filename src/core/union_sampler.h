// Union sampling (§2, §3, Algorithm 1).
//
// Four samplers, all drawing with replacement:
//  * DisjointUnionSampler  -- Definition 1: select a join proportionally to
//    its size, sample it; duplicates across joins are legitimate.
//  * BernoulliUnionSampler -- the "union trick" baseline of §3: every join
//    fires independently with probability |J_j|/|U| per round; a fired
//    join's sample is kept only when the join is the FIRST join containing
//    the tuple's value.
//  * UnionSampler          -- Algorithm 1 (non-Bernoulli join selection):
//    joins are selected with the cover probabilities |J'_j|/|U|; a sample
//    from J_j is kept only if the cover assigns its value to J_j, and the
//    sampler retries the SAME join until it yields a kept tuple (that is
//    what makes each round uniform on J'_j). Two ownership modes:
//      - kMembershipOracle (centralized): ownership f(u) = first join
//        containing u, checked exactly with hash probes of the joins
//        before the drawing one (OwnedBy, join/membership.h). Draws stay
//        row ids (RowDrawBatch) until a caller materializes them or the
//        server writes their bytes;
//      - kRevision (decentralized, the paper's Algorithm 1): ownership is
//        learned on the fly; later samples from an earlier join trigger a
//        revision that re-assigns the value and purges stale copies.
//  * NaiveUnionOfSamples   -- Example 2's broken strawman (set union of
//    per-join uniform samples), kept as a negative baseline.
//
// Per-phase wall-clock and rejection accounting feed the Fig 5 breakdowns.

#ifndef SUJ_CORE_UNION_SAMPLER_H_
#define SUJ_CORE_UNION_SAMPLER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/alias_table.h"
#include "core/union_size_model.h"
#include "join/join_sampler.h"
#include "join/membership.h"
#include "join/row_draw.h"

namespace suj {

class RevisionState;

/// Counters + phase timings for the union-level sampling loop.
struct UnionSampleStats {
  /// Identity of the prepared plan these stats were produced under
  /// (0 = unbound, e.g. ad-hoc library use). Stamped via
  /// UnionSampler::Options::plan_id / OnlineUnionSampler::Options::plan_id
  /// and by the service layer, and checked by MergeFrom: folding stats
  /// from two different plans together silently corrupts per-query
  /// accounting, so mismatched merges fail instead.
  uint64_t plan_id = 0;
  uint64_t rounds = 0;              ///< join selections
  uint64_t join_draws = 0;          ///< join-sampler attempts (cost psi)
  uint64_t accepted = 0;            ///< tuples added to the result
  uint64_t rejected_cover = 0;      ///< samples outside the join's cover
  uint64_t revisions = 0;           ///< ownership re-assignments
  uint64_t removed_by_revision = 0; ///< result tuples purged by revisions
  /// Rounds abandoned because the selected join produced no owned tuple
  /// within the draw budget. The join's selection weight is zeroed: its
  /// estimated cover was (near-)empty in reality, so continuing to select
  /// it would only burn draws. Non-zero counts indicate loose warm-up
  /// estimates.
  uint64_t abandoned_rounds = 0;
  double accepted_seconds = 0.0;    ///< time in rounds ending in an accept
  double rejected_seconds = 0.0;    ///< time spent on rejected draws
  // Executor accounting (zero for the sequential oracle loop).
  uint64_t parallel_batches = 0;    ///< batches fanned out by the executor
  /// Worker contexts constructed — a count of contexts, not of fan-outs.
  /// Each mode builds its pool once per SAMPLER (lazily, on its first
  /// fan-out) and reuses it for every later call — and, in revision mode,
  /// every epoch and RevisionState — so a sampler adds at most T over its
  /// whole life at num_threads=T (1 for revision with Create-time
  /// samplers); tests assert this via factory-invocation counters.
  uint64_t parallel_workers = 0;
  /// Accepted tuples clipped at batch boundaries (multi-instance
  /// overshoot; the sequential path clips only once per call). Non-
  /// negligible values signal badly underestimated join sizes.
  uint64_t parallel_clipped = 0;
  double parallel_seconds = 0.0;    ///< executor wall-clock (not CPU) time
  // Revision-mode accounting (zero for oracle mode).
  uint64_t revision_epochs = 0;     ///< epoch fan-out + reconcile passes
  /// Claims dropped by reconciliation because an earlier join claimed the
  /// value in the same epoch (the epoch driver tops the shortfall up in
  /// the next epoch).
  uint64_t reconcile_dropped = 0;
  double reconciliation_seconds = 0.0;  ///< wall-clock in Reconcile passes
  /// High-water mark of the finalized-but-undelivered surplus a caller's
  /// RevisionState parked in its buffer (tuples generated past the calls'
  /// demand by the fixed epoch ramp). Bounded by
  /// Options::max_revision_surplus; merged via max, not sum.
  uint64_t revision_surplus_high_water = 0;

  /// Folds another stats block (e.g. one worker's) into this one: counters
  /// and per-phase times add; parallel_workers adds so a merge over workers
  /// counts contexts; revision_surplus_high_water merges via max (it is a
  /// level, not a flow). Fails with InvalidArgument when both sides carry
  /// different non-zero plan ids (stats of different queries must not be
  /// pooled); a zero side adopts the other's id.
  Status MergeFrom(const UnionSampleStats& other);

  double CoverRejectionRatio() const {
    uint64_t total = accepted + rejected_cover;
    return total == 0 ? 0.0
                      : static_cast<double>(rejected_cover) /
                            static_cast<double>(total);
  }
};

/// \brief Algorithm 1: uniform i.i.d. sampling over the set union of joins.
class UnionSampler {
 public:
  enum class Mode { kRevision, kMembershipOracle };

  /// Builds a fresh set of per-join samplers for one parallel worker.
  /// Called once per worker on the calling thread before the pool starts
  /// (so it may share non-thread-safe index caches); the samplers it
  /// returns are used by exactly one worker.
  using JoinSamplerFactory =
      std::function<Result<std::vector<std::unique_ptr<JoinSampler>>>()>;

  struct Options {
    Mode mode = Mode::kRevision;
    /// Retry cap for one round. When a round exhausts the budget, the
    /// selected join's estimated cover claimed tuples the join cannot
    /// produce (it is fully covered by earlier joins); the round is
    /// abandoned and the join's selection weight zeroed.
    uint64_t max_draws_per_round = 50000;
    /// Worker threads for the batched executor path (engaged by setting
    /// `sampler_factory`); 0 = hardware concurrency. Both modes fan out:
    /// kMembershipOracle ownership is the pure function "first join
    /// containing the value", so batches from independent RNG substreams
    /// concatenate to exactly the sequential sampler's distribution;
    /// kRevision always runs the epoch-reconciled protocol
    /// (core/ownership_map.h), with Create-time samplers as its one-worker
    /// case — workers sample against an immutable snapshot of the learned
    /// cover, journal tentative claims per batch, and a deterministic
    /// reconciliation pass between epochs replays the claims in global
    /// round order, applying revisions/purges and re-requesting any
    /// reconciliation shortfall in the next epoch.
    size_t num_threads = 1;
    /// Tuples per batch (executor path and every kRevision draw). The
    /// sample sequence is a function of (seed, batch index) only — never
    /// of the claiming thread — so the same seed and n give a
    /// byte-identical sequence for EVERY num_threads, including 1 (one
    /// worker draining all batches).
    size_t batch_size = 64;
    /// Setting this engages the batched executor path; the factory builds
    /// each worker's private sampler set. Leave null to sample with the
    /// Create-time samplers: the sequential loop in oracle mode, a
    /// one-worker epoch driver in revision mode.
    JoinSamplerFactory sampler_factory;
    /// Prepared-plan identity stamped onto stats() (see
    /// UnionSampleStats::plan_id); 0 for ad-hoc use.
    uint64_t plan_id = 0;
    /// Upper bound (in tuples) on the finalized surplus a caller's
    /// RevisionState may park in its buffer. The epoch
    /// ramp is a pure function of the options (never of the call
    /// pattern), so the bound is enforced by lowering the ramp's cap
    /// until the largest epoch fits: effectively
    /// batch_size << cap <= max_revision_surplus, floored at one batch
    /// (generation cannot go below a batch, so a cap smaller than
    /// batch_size still admits a surplus of batch_size - 1). 0 keeps the
    /// default ramp cap (batch_size << 4). Chunk-safe: every chunking of
    /// a session sees the same epoch schedule.
    size_t max_revision_surplus = 0;
  };

  /// \param joins      union-compatible joins J_0..J_{n-1} (cover order).
  /// \param samplers   one uniform sampler per join (EW or EO). MUST be
  ///                   empty when Options::sampler_factory is set — the
  ///                   executor path builds per-worker sets from the
  ///                   factory and would never touch these. In revision
  ///                   mode the first call moves them into the sampler's
  ///                   one-context worker pool.
  /// \param estimates  warm-up output (cover sizes drive join selection).
  /// \param probers    membership oracles; required for kMembershipOracle.
  static Result<std::unique_ptr<UnionSampler>> Create(
      std::vector<JoinSpecPtr> joins,
      std::vector<std::unique_ptr<JoinSampler>> samplers,
      UnionEstimates estimates, std::vector<JoinMembershipProberPtr> probers,
      Options options);
  static Result<std::unique_ptr<UnionSampler>> Create(
      std::vector<JoinSpecPtr> joins,
      std::vector<std::unique_ptr<JoinSampler>> samplers,
      UnionEstimates estimates,
      std::vector<JoinMembershipProberPtr> probers = {}) {
    return Create(std::move(joins), std::move(samplers), std::move(estimates),
                  std::move(probers), Options());
  }

  /// Draws `n` tuples with replacement, each (with exact parameters)
  /// uniform over the set union.
  ///
  /// Resumable: repeated Sample calls on one instance continue the
  /// protocol rather than restarting it — stats accumulate and joins
  /// whose rounds were abandoned (estimated cover empty in reality) stay
  /// excluded from selection in later calls instead of burning a fresh
  /// draw budget per call. Service sessions rely on this to serve many
  /// requests from one long-lived sampler.
  ///
  /// kMembershipOracle: SampleDraws, materialized.
  ///
  /// kRevision: runs the epoch driver (see the RevisionState overload)
  /// over a call-local RevisionState whose epochs are clamped to the
  /// call's shortfall, so nothing is buffered past the call and ownership
  /// learned here is not carried into later calls (their delivered tuples
  /// are beyond purging anyway); abandonment does carry over. `rng` is
  /// consumed for exactly one value per call.
  Result<std::vector<Tuple>> Sample(size_t n, Rng& rng);

  /// Oracle-mode sampling (requires Mode::kMembershipOracle; revision
  /// samplers refuse it with InvalidArgument): the draws Sample(n, rng)
  /// returns, as row draws over joins() that no Tuple has been built
  /// for. Without a sampler_factory this is the sequential loop over the
  /// Create-time samplers. With one, the draw fans out over the parallel
  /// executor on worker contexts the sampler builds once, on its first
  /// fan-out: `rng` is consumed for exactly one value (the substream
  /// seed), so the output is a deterministic function of the caller's RNG
  /// state and n, independent of the thread count. The live weights are
  /// frozen at each call's start, and a cover abandoned mid-call takes
  /// effect from the NEXT call: within the call every batch keeps the
  /// call-start exclusion set, so batch contents never depend on
  /// scheduling (SUJ_CHECK-asserted after the fan-out). Join-level stats
  /// then accrue in the per-worker samplers, not in the ones passed to
  /// Create.
  Result<RowDrawBatch> SampleDraws(size_t n, Rng& rng);

  /// Resumable revision-mode sampling (requires Mode::kRevision; oracle
  /// samplers refuse it with InvalidArgument): continues the
  /// epoch-reconciled protocol carried by `state` instead of starting one
  /// per call. The learned cover, epoch ramp, and epoch-seed stream all
  /// persist in the state, so splitting n draws across any number of
  /// calls delivers the byte-identical sequence a single n-draw call
  /// would — at every num_threads, and with Create-time samplers exactly
  /// as with a factory at num_threads 1 (see core/revision_state.h for
  /// the deterministic-stream contract). `rng` is consumed for exactly
  /// ONE value over the state's whole lifetime (the epoch-seed stream
  /// seed, drawn when `state` initializes); continuation calls leave it
  /// untouched. A state binds to the first sampler it is used with;
  /// passing it to another sampler fails with InvalidArgument.
  ///
  /// Both revision overloads share one epoch driver and one worker pool:
  /// the sampler builds its pool lazily, on the first revision call that
  /// has to generate (the sampler factory runs pool-width times over the
  /// sampler's whole life; Create-time samplers move into a one-context
  /// pool), and re-binds it to the current state at every epoch. Cover
  /// abandonment discovered in an epoch folds into the state's weights
  /// AND this sampler's persistent exclusion set between epochs; the
  /// fan-out itself never touches the exclusion set (SUJ_CHECK-asserted
  /// per epoch). A state already in progress keeps its own weights, so
  /// it sees abandonment found through other states only via the
  /// covers it discovers itself.
  Result<std::vector<Tuple>> Sample(size_t n, Rng& rng, RevisionState& state);

  const UnionSampleStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = UnionSampleStats();
    stats_.plan_id = options_.plan_id;
  }
  const UnionEstimates& estimates() const { return estimates_; }
  const std::vector<JoinSpecPtr>& joins() const { return joins_; }

  /// Aggregated join-level sampler statistics (rejections inside EW/EO)
  /// of the sequential oracle loop's Create-time samplers.
  JoinSampleStats AggregatedJoinStats() const;

  ~UnionSampler();

 private:
  struct OraclePool;
  struct RevisionPool;

  UnionSampler(std::vector<JoinSpecPtr> joins,
               std::vector<std::unique_ptr<JoinSampler>> samplers,
               UnionEstimates estimates,
               std::vector<JoinMembershipProberPtr> probers, Options options);

  /// Parallel fan-out of SampleDraws: one batched fan-out over the
  /// oracle pool.
  Result<RowDrawBatch> SampleParallel(size_t n, uint64_t seed);

  /// Builds oracle_pool_ on first use; later calls are no-ops.
  Status EnsureOraclePool();

  /// The revision epoch driver behind both revision Sample overloads:
  /// generates epochs over `state` until it buffers n tuples, then
  /// delivers them (see core/revision_state.h). A `call_local` state dies
  /// with the call, so its epochs are clamped to the call's shortfall.
  Result<std::vector<Tuple>> SampleRevision(size_t n, Rng& rng,
                                            RevisionState& state,
                                            bool call_local);

  /// Builds revision_pool_ on first use; later calls are no-ops.
  Status EnsureRevisionPool();

  /// Cover estimates with abandoned joins zeroed; Internal when none
  /// remain.
  Result<std::vector<double>> LiveWeights() const;

  /// Largest epoch exponent: epochs hold at most batch_size << cap tuples.
  uint64_t RevisionRampCap() const;

  std::vector<JoinSpecPtr> joins_;
  std::vector<std::unique_ptr<JoinSampler>> samplers_;
  UnionEstimates estimates_;
  std::vector<JoinMembershipProberPtr> probers_;
  Options options_;
  UnionSampleStats stats_;
  /// Joins whose rounds were abandoned (estimated cover empty in
  /// reality); persisted across Sample calls so resumed sessions do not
  /// rediscover dead covers at full draw-budget cost.
  std::vector<bool> disabled_;
  /// Oracle-mode worker contexts, shared by every call.
  std::unique_ptr<OraclePool> oracle_pool_;
  /// Revision-mode worker contexts, shared by every call and state.
  std::unique_ptr<RevisionPool> revision_pool_;
};

/// \brief Definition 1: sampling the disjoint union (duplicates retained).
class DisjointUnionSampler {
 public:
  static Result<std::unique_ptr<DisjointUnionSampler>> Create(
      std::vector<JoinSpecPtr> joins,
      std::vector<std::unique_ptr<JoinSampler>> samplers,
      std::vector<double> join_sizes);

  Result<std::vector<Tuple>> Sample(size_t n, Rng& rng);

 private:
  DisjointUnionSampler(std::vector<JoinSpecPtr> joins,
                       std::vector<std::unique_ptr<JoinSampler>> samplers,
                       std::vector<double> join_sizes, AliasTable alias)
      : joins_(std::move(joins)),
        samplers_(std::move(samplers)),
        join_sizes_(std::move(join_sizes)),
        alias_(std::move(alias)) {}

  std::vector<JoinSpecPtr> joins_;
  std::vector<std::unique_ptr<JoinSampler>> samplers_;
  std::vector<double> join_sizes_;
  /// Join sizes never change after Create, so selection is one O(1)
  /// prepare-time alias draw per round.
  AliasTable alias_;
};

/// \brief §3's Bernoulli "union trick" baseline.
class BernoulliUnionSampler {
 public:
  static Result<std::unique_ptr<BernoulliUnionSampler>> Create(
      std::vector<JoinSpecPtr> joins,
      std::vector<std::unique_ptr<JoinSampler>> samplers,
      UnionEstimates estimates,
      std::vector<JoinMembershipProberPtr> probers);

  Result<std::vector<Tuple>> Sample(size_t n, Rng& rng);

  const UnionSampleStats& stats() const { return stats_; }

 private:
  BernoulliUnionSampler(std::vector<JoinSpecPtr> joins,
                        std::vector<std::unique_ptr<JoinSampler>> samplers,
                        UnionEstimates estimates,
                        std::vector<JoinMembershipProberPtr> probers)
      : joins_(std::move(joins)),
        samplers_(std::move(samplers)),
        estimates_(std::move(estimates)),
        probers_(std::move(probers)) {}

  std::vector<JoinSpecPtr> joins_;
  std::vector<std::unique_ptr<JoinSampler>> samplers_;
  UnionEstimates estimates_;
  std::vector<JoinMembershipProberPtr> probers_;
  UnionSampleStats stats_;
};

/// Example 2's broken baseline: per-join uniform samples, set-unioned.
/// Returned tuples are NOT uniform over the union (tests demonstrate the
/// bias); kept for comparison benches.
Result<std::vector<Tuple>> NaiveUnionOfSamples(
    const std::vector<JoinSpecPtr>& joins,
    std::vector<std::unique_ptr<JoinSampler>>& samplers,
    size_t samples_per_join, Rng& rng);

}  // namespace suj

#endif  // SUJ_CORE_UNION_SAMPLER_H_
