// Shard-routed samplers: the per-join execution half of the shard plan.
//
// ShardedJoinIndex pins the immutable routing state of one sharded join:
// per-shard exact-weight indexes and one alias table over the shard root
// weights concatenated in shard order. Those are the canonical root
// weights in canonical row order, so the table is the one the unsharded
// index over the canonical join builds, and a root draw names the same
// canonical row either way; RouteRow then maps it to its owning shard.
//
// ShardedJoinSampler and ShardedWanderJoinSampler wrap one routing step
// around the existing descent entry points (ExactWeightSampler::
// DescendColumnar, WanderJoinSampler::WalkFromRoot), consuming the
// caller's RNG identically to their unsharded counterparts; the union
// protocol cannot tell them apart byte-for-byte. Membership probes need
// no routing: sharded plans probe the canonical joins with plain
// JoinMembershipProbers.

#ifndef SUJ_SHARD_SHARDED_JOIN_H_
#define SUJ_SHARD_SHARDED_JOIN_H_

#include <memory>
#include <vector>

#include "join/exact_weight.h"
#include "join/wander_join.h"
#include "obs/metrics.h"
#include "shard/shard_plan.h"

namespace suj {

/// \brief Immutable routing + weight state of one sharded join.
class ShardedJoinIndex {
 public:
  /// Builds per-shard EW indexes for join `join_index` of `plan` over
  /// `cache` (children are shared RelationPtrs, so their composite
  /// indexes build once and are reused by every shard).
  static Result<std::shared_ptr<const ShardedJoinIndex>> Build(
      ShardPlanPtr plan, int join_index, CompositeIndexCache* cache);

  const JoinSpecPtr& join() const { return join_plan().canonical; }
  const ShardedJoinPlan& join_plan() const {
    return plan_->join_plan(join_index_);
  }
  int num_shards() const { return static_cast<int>(shard_weights_.size()); }

  /// Sum of shard totals == the canonical index's TotalWeight (exact
  /// integer sums).
  double TotalWeight() const { return total_weight_; }
  bool exact() const { return exact_; }
  /// Canonical root row count (for uniform walk-root routing).
  uint64_t total_rows() const { return total_rows_; }

  /// Shard s's exact-weight index. Built without a root alias table:
  /// root draws go through root_alias(), the shard only descends.
  const ExactWeightIndexPtr& shard_weights(int s) const {
    return shard_weights_[s];
  }
  /// O(1) draw of a canonical root row over the concatenated shard root
  /// weights (valid iff TotalWeight() > 0).
  const AliasTable& root_alias() const { return root_alias_; }
  /// Shard owning canonical root row `global_row`; sets `*local_row`.
  int RouteRow(uint64_t global_row, uint32_t* local_row) const;

 private:
  ShardedJoinIndex(ShardPlanPtr plan, int join_index)
      : plan_(std::move(plan)), join_index_(join_index) {}

  ShardPlanPtr plan_;
  int join_index_;
  std::vector<ExactWeightIndexPtr> shard_weights_;
  double total_weight_ = 0.0;
  AliasTable root_alias_;
  uint64_t total_rows_ = 0;
  bool exact_ = true;
};

using ShardedJoinIndexPtr = std::shared_ptr<const ShardedJoinIndex>;

/// \brief Uniform join sampler that routes root draws across shards.
///
/// join() is the CANONICAL spec (pointer-identical to the plan's joins),
/// so the union layer's sampler-set validation and cover bookkeeping see
/// the sharded set as the plan itself.
class ShardedJoinSampler : public JoinSampler {
 public:
  /// O(K) over prebuilt indexes: cheap enough for per-worker factories.
  static Result<std::unique_ptr<ShardedJoinSampler>> Create(
      ShardedJoinIndexPtr index);

  std::optional<Tuple> TrySample(Rng& rng) override;
  double SizeUpperBound() const override { return index_->TotalWeight(); }

  const ShardedJoinIndexPtr& shard_index() const { return index_; }

 private:
  ShardedJoinSampler(JoinSpecPtr join, ShardedJoinIndexPtr index)
      : JoinSampler(std::move(join)), index_(std::move(index)) {}

  ShardedJoinIndexPtr index_;
  /// One sampler per shard; each descends below the routed root row.
  std::vector<std::unique_ptr<ExactWeightSampler>> shard_samplers_;
  std::vector<obs::Counter*> draw_counters_;     // suj_shard_draws_total_s<k>
  obs::Counter* total_draws_ = nullptr;          // suj_shard_draws_total
  std::vector<obs::Histogram*> latency_ns_;      // suj_shard_sample_ns_s<k>
};

/// \brief Wander-join walker that routes the uniform root draw by row
/// ranges, then continues the walk inside the owning shard.
class ShardedWanderJoinSampler : public WanderJoinSampler {
 public:
  static Result<std::unique_ptr<ShardedWanderJoinSampler>> Create(
      ShardedJoinIndexPtr index, CompositeIndexCache* cache);

  WalkOutcome Walk(Rng& rng) override;

 private:
  ShardedWanderJoinSampler(JoinSpecPtr join, ShardedJoinIndexPtr index)
      : WanderJoinSampler(std::move(join)), index_(std::move(index)) {}

  ShardedJoinIndexPtr index_;
  std::vector<std::unique_ptr<WanderJoinSampler>> shard_walkers_;
  std::vector<obs::Counter*> draw_counters_;  // suj_shard_walk_draws_total_s<k>
  obs::Counter* total_draws_ = nullptr;       // suj_shard_walk_draws_total
};

}  // namespace suj

#endif  // SUJ_SHARD_SHARDED_JOIN_H_
