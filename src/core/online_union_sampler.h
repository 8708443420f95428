// Online union sampling (§7, Algorithm 2).
//
// Extends Algorithm 1 with two optimizations that amortize the random-walk
// warm-up:
//  * Sample reuse: the non-uniform tuples collected by wander-join walks
//    (each with exact probability p(t)) are recycled into the main phase.
//    A pool entry is popped uniformly (and consumed -- draws are without
//    replacement) and accepted with probability p_min / p(t), where p_min
//    is the smallest walk probability in the initial pool. Expected pool
//    multiplicity of a tuple u is proportional to p(u), so acceptance
//    p_min/p(u) equalizes the emission rate across tuples -- the same
//    1/p(t)-reweighting as the paper's S'_j construction, implemented as a
//    rejection step with acceptance <= 1 (avoiding the multi-instance
//    variance blow-up of emitting 1/(p(t)|J_j|) copies at once). An
//    exhausted pool falls back to fresh walks.
//  * Backtracking with parameter update: estimates initialize from the
//    cheap histogram method and are refined by every walk. Every phi
//    recorded probabilities the estimates are recomputed and previously
//    accepted tuples are re-thinned with probability min(1, p_new/p_old),
//    aligning old samples with the updated distribution; backtracking
//    stops once the walk estimates reach the target confidence gamma.
//
// Fresh walks are also converted to uniform samples via the same
// acceptance-rate trick with l = 1, so the main phase never needs the EW/EO
// machinery -- matching the paper's description of the online method.

#ifndef SUJ_CORE_ONLINE_UNION_SAMPLER_H_
#define SUJ_CORE_ONLINE_UNION_SAMPLER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/random_walk_overlap.h"
#include "core/union_sampler.h"

namespace suj {

/// Counters for the online sampler; extends the union-level stats with
/// reuse/backtracking accounting (Fig 6).
struct OnlineUnionSampleStats : UnionSampleStats {
  uint64_t reuse_draws = 0;        ///< pool draws attempted
  uint64_t reuse_accepted = 0;     ///< result tuples emitted from the pool
  uint64_t fresh_walks = 0;        ///< fresh wander-join walks
  uint64_t fresh_accepted = 0;     ///< result tuples emitted from walks
  uint64_t backtracks = 0;         ///< parameter-update passes
  uint64_t removed_by_backtrack = 0;
  double reuse_seconds = 0.0;      ///< time spent in pool draws
  double regular_seconds = 0.0;    ///< time spent in fresh walks
  double backtrack_seconds = 0.0;  ///< time spent re-estimating/thinning

  using UnionSampleStats::MergeFrom;
  /// Folds another online stats block (e.g. one parallel worker's) in.
  /// Same plan-id contract as the base MergeFrom.
  Status MergeFrom(const OnlineUnionSampleStats& other);
};

/// \brief Algorithm 2: set-union sampling with reuse and backtracking.
class OnlineUnionSampler {
 public:
  struct Options {
    UnionSampler::Mode mode = UnionSampler::Mode::kMembershipOracle;
    /// Recycle warm-up walk tuples (Fig 6 toggles this).
    bool enable_reuse = true;
    /// phi: recorded probabilities between backtracking passes; 0 disables.
    uint64_t backtrack_interval = 0;
    /// gamma: confidence level of the estimate CIs.
    double confidence = 0.90;
    /// Stop backtracking when every join's relative CI half-width at
    /// `confidence` is below this threshold.
    double ci_threshold = 0.10;
    uint64_t max_draws_per_round = 100000;
    /// Worker threads for the batched fresh-walk phase (engaged by
    /// setting `index_cache`); 0 = hardware concurrency. Reuse-pool draws
    /// and backtracking stay single-threaded (they mutate shared
    /// pools/estimates); once the pools are drained and backtracking has
    /// settled, the remaining walks fan out over the parallel executor
    /// against the then-frozen estimates, each worker with its own
    /// wander-join samplers over the shared read-only indexes. Requires
    /// kMembershipOracle mode. Same seed + same n => identical samples
    /// for EVERY num_threads, including 1. Caveat: multi-instance
    /// (Horvitz-Thompson) accepts are clipped at batch rather than call
    /// granularity, so with badly underestimated join sizes the batched
    /// tail truncates overshoot more often than the sequential path;
    /// with calibrated warm-up estimates (instances ~= 1) the effect is
    /// negligible.
    size_t num_threads = 1;
    /// Tuples per parallel batch (see UnionSampler::Options::batch_size).
    size_t batch_size = 64;
    /// Setting this engages the batched fresh-walk phase; it builds each
    /// worker's wander-join samplers. Indexes are created or reused on
    /// the calling thread; workers only read them.
    ///
    /// Ownership: shared. The sampler keeps its reference for its whole
    /// lifetime, so the cache outlives every sampler holding it no matter
    /// who created it — the service layer hands ONE cache to many
    /// concurrent sessions precisely this way. GetOrBuild is internally
    /// synchronized (see index/composite_index.h), and the indexes it
    /// yields are immutable. Leave null for the fully sequential loop.
    std::shared_ptr<CompositeIndexCache> index_cache;
    /// Membership probers to use in kMembershipOracle mode. When empty
    /// they are built at Create, which costs one row-membership index
    /// per base relation; long-lived servers pass the prepared plan's
    /// probers here so every session shares one immutable set.
    std::vector<JoinMembershipProberPtr> probers;
    /// Prepared-plan identity stamped onto stats() (see
    /// UnionSampleStats::plan_id); 0 for ad-hoc use.
    uint64_t plan_id = 0;
    /// Per-join wander-sampler factory for the batched fresh-walk phase;
    /// null builds plain WanderJoinSampler instances over `index_cache`.
    /// Sharded plans pass their shard-routing factory so each worker's
    /// walks route root draws exactly as the sequential walker does.
    WanderSamplerFactory wander_factory;
  };

  /// \param joins     union-compatible joins (cover order).
  /// \param walker    random-walk estimator; its recorded walks seed the
  ///                  reuse pools, and fresh walks are routed through it so
  ///                  estimates keep improving. Not owned; must outlive the
  ///                  sampler.
  /// \param initial   warm-up estimates (histogram-based for the online
  ///                  setting, or walk-based when a warm-up was run).
  static Result<std::unique_ptr<OnlineUnionSampler>> Create(
      std::vector<JoinSpecPtr> joins, RandomWalkOverlapEstimator* walker,
      UnionEstimates initial, Options options);
  static Result<std::unique_ptr<OnlineUnionSampler>> Create(
      std::vector<JoinSpecPtr> joins, RandomWalkOverlapEstimator* walker,
      UnionEstimates initial) {
    return Create(std::move(joins), walker, std::move(initial), Options());
  }

  /// Draws `n` tuples with replacement.
  Result<std::vector<Tuple>> Sample(size_t n, Rng& rng);

  const OnlineUnionSampleStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = OnlineUnionSampleStats();
    stats_.plan_id = options_.plan_id;
  }

  /// Estimates currently in force (refined by backtracking passes).
  const UnionEstimates& current_estimates() const { return estimates_; }

 private:
  struct PoolEntry {
    Tuple tuple;
    double probability;
  };

  OnlineUnionSampler(std::vector<JoinSpecPtr> joins,
                     RandomWalkOverlapEstimator* walker,
                     UnionEstimates initial, Options options)
      : joins_(std::move(joins)),
        walker_(walker),
        estimates_(std::move(initial)),
        options_(std::move(options)) {
    stats_.plan_id = options_.plan_id;
  }

  /// Probability that one accepted draw lands on a FIXED value owned by
  /// join j under the current estimates: cover_share(j) / |J_j|.
  double TupleProbability(int owner_join) const;

  /// Re-estimates parameters and thins the accepted result (§7).
  Status Backtrack(std::vector<Tuple>* result,
                   std::vector<std::string>* keys, std::vector<int>* owners,
                   std::vector<double>* probs, Rng& rng);

  /// True once the sequential phase has nothing left that must stay
  /// sequential: pools drained (or reuse disabled) and backtracking
  /// settled.
  bool ParallelTailReady() const;

  /// Fans the remaining `n` fresh walks out over the parallel executor
  /// with frozen estimates (oracle mode only).
  Result<std::vector<Tuple>> SampleFreshParallel(size_t n, uint64_t seed);

  std::vector<JoinSpecPtr> joins_;
  RandomWalkOverlapEstimator* walker_;
  UnionEstimates estimates_;
  Options options_;
  std::vector<std::vector<PoolEntry>> pools_;
  /// Smallest walk probability in each join's initial pool (acceptance
  /// normalizer; fixed at Create so acceptance stays <= 1 as pools drain).
  std::vector<double> pool_min_p_;
  std::vector<JoinMembershipProberPtr> probers_;  // oracle mode
  /// Ownership record of the revision protocol (revision mode only).
  std::unordered_map<std::string, int> owner_;
  OnlineUnionSampleStats stats_;
  uint64_t recorded_since_backtrack_ = 0;
  bool backtracking_active_ = true;
  /// Joins whose rounds were abandoned (estimated cover empty in reality);
  /// excluded from selection even after backtracking refreshes estimates.
  std::vector<bool> disabled_;
};

}  // namespace suj

#endif  // SUJ_CORE_ONLINE_UNION_SAMPLER_H_
