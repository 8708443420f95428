// ShardCoordinator: the union-level owner of a shard plan.
//
// The coordinator holds the per-join ShardedJoinIndexes, hands the union
// protocol routed samplers/walkers/probers that are byte-compatible with
// their unsharded counterparts, and owns the cross-shard weight ledger:
// each shard's union weight is the sum over joins of that shard's EW
// total, and the merge invariant sum_s w_s == sum_j TotalWeight_j holds
// EXACTLY (integer sums). Shard failure is modeled as a coordinator-level
// fail mask — in-process shards cannot crash, so fault-injection tests
// (and the serving stack's availability check) flow through
// FailShard/CheckAvailable.
//
// ShardMergedOverlapEstimator is the warm-up half of the merge math: it
// answers |O_Delta| as the sum of per-shard overlaps (the shard root
// slices partition every join result, so every intersection partitions
// too), making the sharded exact warm-up provably equal to the canonical
// one — the determinism suite asserts equality to the last bit.

#ifndef SUJ_SHARD_SHARD_COORDINATOR_H_
#define SUJ_SHARD_SHARD_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/exact_overlap.h"
#include "core/overlap_estimator.h"
#include "obs/metrics.h"
#include "shard/sharded_join.h"

namespace suj {

/// \brief Exact overlap estimator that merges per-shard calculators.
class ShardMergedOverlapEstimator : public OverlapEstimator {
 public:
  /// Builds one ExactOverlapCalculator per shard (over that shard's join
  /// slices). joins() reports the CANONICAL specs: callers cannot tell
  /// this estimator from ExactOverlapCalculator over the canonical union.
  /// Per-shard merging requires content-addressed partitioning
  /// (kHashKey); for kRowRange the estimator transparently delegates to
  /// one canonical calculator (still exact — just not shard-local).
  static Result<std::unique_ptr<ShardMergedOverlapEstimator>> Create(
      ShardPlanPtr plan, CompositeIndexCache* cache = nullptr);

  /// Epoch refresh: re-materializes ONLY the joins whose bit is set in
  /// `affected_mask`, sharing `prev`'s per-shard (or canonical-fallback)
  /// result sets for the rest. `plan` must be the epoch re-plan of
  /// `prev.plan_` with the same mask and options.
  static Result<std::unique_ptr<ShardMergedOverlapEstimator>>
  CreateIncremental(ShardPlanPtr plan, const ShardMergedOverlapEstimator& prev,
                    uint64_t affected_mask,
                    CompositeIndexCache* cache = nullptr);

  const std::vector<JoinSpecPtr>& joins() const override {
    return plan_->canonical_joins();
  }
  /// Sum over shards of the shard's exact |O_Delta| — exact because the
  /// shard root slices partition every join result and every overlap.
  Result<double> EstimateOverlap(SubsetMask subset) override;
  bool IsUpperBound() const override { return false; }

  const ExactOverlapCalculator& shard_calculator(int s) const {
    return *per_shard_[s];
  }

 private:
  explicit ShardMergedOverlapEstimator(ShardPlanPtr plan)
      : plan_(std::move(plan)) {}

  ShardPlanPtr plan_;
  std::vector<std::unique_ptr<ExactOverlapCalculator>> per_shard_;
  /// kRowRange fallback: one calculator over the canonical union.
  std::unique_ptr<ExactOverlapCalculator> canonical_;
};

/// \brief Owns the sharded execution state of one prepared union.
class ShardCoordinator {
 public:
  /// Builds the per-join sharded indexes over `cache` (which must outlive
  /// the coordinator; shared children dedupe through it).
  static Result<std::shared_ptr<ShardCoordinator>> Build(
      ShardPlanPtr plan, CompositeIndexCache* cache);

  /// Epoch refresh: rebuilds ONLY the joins whose bit is set in
  /// `rebuild_mask` and shares the previous coordinator's immutable
  /// ShardedJoinIndexes for the rest (a shared index keeps its own — old —
  /// ShardPlanPtr alive; bounded retention, at most one plan per join),
  /// then re-derives the weight ledger and re-verifies the merge invariant.
  /// `plan` must come from ShardPlanner's epoch re-plan over
  /// `previous.plan()` with the same mask.
  static Result<std::shared_ptr<ShardCoordinator>> Build(
      ShardPlanPtr plan, CompositeIndexCache* cache,
      const ShardCoordinator& previous, uint64_t rebuild_mask);

  const ShardPlanPtr& plan() const { return plan_; }
  int num_shards() const { return plan_->num_shards(); }
  const std::vector<JoinSpecPtr>& joins() const {
    return plan_->canonical_joins();
  }
  const ShardedJoinIndexPtr& join_index(int j) const {
    return join_indexes_[j];
  }

  /// One routed sampler per join, in cover order. Cheap (indexes are
  /// prebuilt), so per-worker sampler factories call this per worker.
  Result<std::vector<std::unique_ptr<JoinSampler>>> MakeSamplers() const;
  /// Routed wander walker for join j (for warm-up estimators and the
  /// online sampler; per-step RNG stream identical to the plain walker).
  Result<std::unique_ptr<WanderJoinSampler>> MakeWanderSampler(int j) const;

  /// Per-shard union weights w_s = sum_j (shard s's EW total of join j),
  /// refreshed by RefreshWeights(). w_s / sum w_s is shard s's share of
  /// root draws in the long run.
  std::vector<double> shard_union_weights() const;
  /// Recomputes the ledger from the indexes and verifies the merge
  /// invariant sum_s w_s == sum_j TotalWeight_j exactly.
  Status RefreshWeights();
  uint64_t weight_refreshes() const {
    return weight_refreshes_.load(std::memory_order_relaxed);
  }

  /// Marks shard `s` unreachable/reachable. Sampling through a plan whose
  /// coordinator has any failed shard fails fast with kUnavailable (a
  /// routed draw could land on the dead shard, and silently re-routing
  /// would bias the sample).
  void FailShard(int s);
  void RestoreShard(int s);
  bool shard_failed(int s) const {
    return (failed_mask_.load(std::memory_order_acquire) >> s) & 1;
  }
  /// OK iff no shard is failed; otherwise kUnavailable (and counts the
  /// rejection in unavailable_errors / suj_shard_unavailable_total).
  Status CheckAvailable() const;
  uint64_t unavailable_errors() const {
    return unavailable_errors_.load(std::memory_order_relaxed);
  }

 private:
  explicit ShardCoordinator(ShardPlanPtr plan);

  ShardPlanPtr plan_;
  CompositeIndexCache* cache_ = nullptr;
  std::vector<ShardedJoinIndexPtr> join_indexes_;

  mutable std::mutex weights_mu_;
  std::vector<double> shard_union_weights_;  // guarded by weights_mu_
  std::atomic<uint64_t> weight_refreshes_{0};

  std::atomic<uint64_t> failed_mask_{0};
  mutable std::atomic<uint64_t> unavailable_errors_{0};
  obs::Counter* refresh_counter_ = nullptr;      // suj_shard_weight_refresh_total
  obs::Counter* unavailable_counter_ = nullptr;  // suj_shard_unavailable_total
};

using ShardCoordinatorPtr = std::shared_ptr<ShardCoordinator>;

}  // namespace suj

#endif  // SUJ_SHARD_SHARD_COORDINATOR_H_
