#include "shard/shard_coordinator.h"

#include <cmath>
#include <string>
#include <utility>

namespace suj {

Result<std::unique_ptr<ShardMergedOverlapEstimator>>
ShardMergedOverlapEstimator::Create(ShardPlanPtr plan,
                                    CompositeIndexCache* cache) {
  if (plan == nullptr) return Status::InvalidArgument("null shard plan");
  auto est = std::unique_ptr<ShardMergedOverlapEstimator>(
      new ShardMergedOverlapEstimator(std::move(plan)));
  if (est->plan_->options().scheme != ShardScheme::kHashKey) {
    // Per-shard merging is only exact under CONTENT-ADDRESSED
    // partitioning: an intersection tuple then comes from the same shard
    // in every join. Range partitioning assigns the same root content to
    // different shards in different joins, so cross-shard intersection
    // mass would be lost — fall back to one canonical calculator. The
    // fallback is still exact but NOT shard-local; it is surfaced via
    // suj_shard_overlap_delegated_total so operators can see that kRowRange
    // warm-ups run centrally (see docs/ARCHITECTURE.md, "Sharding").
    auto canonical = ExactOverlapCalculator::Create(
        est->plan_->canonical_joins(), cache);
    if (!canonical.ok()) return canonical.status();
    est->canonical_ = std::move(canonical).value();
    static obs::Counter* const delegated =
        obs::MetricsRegistry::Global().GetCounter(
            "suj_shard_overlap_delegated_total");
    delegated->Increment();
    return est;
  }
  const int k = est->plan_->num_shards();
  for (int s = 0; s < k; ++s) {
    std::vector<JoinSpecPtr> shard_joins;
    shard_joins.reserve(est->plan_->num_joins());
    for (size_t j = 0; j < est->plan_->num_joins(); ++j) {
      shard_joins.push_back(
          est->plan_->join_plan(static_cast<int>(j)).shard_specs[s]);
    }
    auto calc = ExactOverlapCalculator::Create(std::move(shard_joins), cache);
    if (!calc.ok()) return calc.status();
    est->per_shard_.push_back(std::move(calc).value());
  }
  return est;
}

Result<std::unique_ptr<ShardMergedOverlapEstimator>>
ShardMergedOverlapEstimator::CreateIncremental(
    ShardPlanPtr plan, const ShardMergedOverlapEstimator& prev,
    uint64_t affected_mask, CompositeIndexCache* cache) {
  if (plan == nullptr) return Status::InvalidArgument("null shard plan");
  if (plan->num_joins() != prev.plan_->num_joins() ||
      plan->options().scheme != prev.plan_->options().scheme ||
      plan->num_shards() != prev.plan_->num_shards()) {
    return Status::InvalidArgument(
        "incremental merged-overlap refresh requires a matching plan");
  }
  auto est = std::unique_ptr<ShardMergedOverlapEstimator>(
      new ShardMergedOverlapEstimator(std::move(plan)));
  if (est->plan_->options().scheme != ShardScheme::kHashKey) {
    auto canonical = ExactOverlapCalculator::CreateIncremental(
        est->plan_->canonical_joins(), *prev.canonical_, affected_mask, cache);
    if (!canonical.ok()) return canonical.status();
    est->canonical_ = std::move(canonical).value();
    static obs::Counter* const delegated =
        obs::MetricsRegistry::Global().GetCounter(
            "suj_shard_overlap_delegated_total");
    delegated->Increment();
    return est;
  }
  const int k = est->plan_->num_shards();
  for (int s = 0; s < k; ++s) {
    std::vector<JoinSpecPtr> shard_joins;
    shard_joins.reserve(est->plan_->num_joins());
    for (size_t j = 0; j < est->plan_->num_joins(); ++j) {
      shard_joins.push_back(
          est->plan_->join_plan(static_cast<int>(j)).shard_specs[s]);
    }
    // Unaffected joins' shard specs are the SAME pointers as the previous
    // plan's, so the per-shard calculator can share their result sets.
    auto calc = ExactOverlapCalculator::CreateIncremental(
        std::move(shard_joins), *prev.per_shard_[s], affected_mask, cache);
    if (!calc.ok()) return calc.status();
    est->per_shard_.push_back(std::move(calc).value());
  }
  return est;
}

Result<double> ShardMergedOverlapEstimator::EstimateOverlap(
    SubsetMask subset) {
  if (canonical_ != nullptr) return canonical_->EstimateOverlap(subset);
  // Hash scheme: every join result (and every intersection — the hash
  // routes identical root content to one shard in all joins) is
  // partitioned by the shard root slices, so overlap cardinalities are
  // additive across shards — integer counts, so the sum is exact.
  double total = 0.0;
  for (auto& calc : per_shard_) {
    auto part = calc->EstimateOverlap(subset);
    if (!part.ok()) return part.status();
    total += part.value();
  }
  return total;
}

ShardCoordinator::ShardCoordinator(ShardPlanPtr plan)
    : plan_(std::move(plan)) {
  refresh_counter_ = obs::MetricsRegistry::Global().GetCounter(
      "suj_shard_weight_refresh_total");
  unavailable_counter_ = obs::MetricsRegistry::Global().GetCounter(
      "suj_shard_unavailable_total");
}

Result<std::shared_ptr<ShardCoordinator>> ShardCoordinator::Build(
    ShardPlanPtr plan, CompositeIndexCache* cache) {
  if (plan == nullptr) return Status::InvalidArgument("null shard plan");
  if (plan->num_shards() > 64) {
    return Status::InvalidArgument(
        "coordinator supports at most 64 shards (fail-mask word)");
  }
  auto coord =
      std::shared_ptr<ShardCoordinator>(new ShardCoordinator(std::move(plan)));
  coord->cache_ = cache;
  for (size_t j = 0; j < coord->plan_->num_joins(); ++j) {
    auto index =
        ShardedJoinIndex::Build(coord->plan_, static_cast<int>(j), cache);
    if (!index.ok()) return index.status();
    coord->join_indexes_.push_back(std::move(index).value());
  }
  SUJ_RETURN_NOT_OK(coord->RefreshWeights());
  return coord;
}

Result<std::shared_ptr<ShardCoordinator>> ShardCoordinator::Build(
    ShardPlanPtr plan, CompositeIndexCache* cache,
    const ShardCoordinator& previous, uint64_t rebuild_mask) {
  if (plan == nullptr) return Status::InvalidArgument("null shard plan");
  if (plan->num_joins() != previous.plan_->num_joins()) {
    return Status::InvalidArgument(
        "epoch coordinator refresh requires positionally matching joins");
  }
  auto coord =
      std::shared_ptr<ShardCoordinator>(new ShardCoordinator(std::move(plan)));
  coord->cache_ = cache;
  for (size_t j = 0; j < coord->plan_->num_joins(); ++j) {
    if ((rebuild_mask >> j) & 1) {
      auto index =
          ShardedJoinIndex::Build(coord->plan_, static_cast<int>(j), cache);
      if (!index.ok()) return index.status();
      coord->join_indexes_.push_back(std::move(index).value());
    } else {
      // Unchanged join: the sharded index is immutable and built over the
      // same canonical spec the new plan carries forward — share it.
      coord->join_indexes_.push_back(previous.join_indexes_[j]);
    }
  }
  SUJ_RETURN_NOT_OK(coord->RefreshWeights());
  return coord;
}

Result<std::vector<std::unique_ptr<JoinSampler>>>
ShardCoordinator::MakeSamplers() const {
  std::vector<std::unique_ptr<JoinSampler>> samplers;
  samplers.reserve(join_indexes_.size());
  for (const auto& index : join_indexes_) {
    auto sampler = ShardedJoinSampler::Create(index);
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(std::move(sampler).value());
  }
  return samplers;
}

Result<std::unique_ptr<WanderJoinSampler>> ShardCoordinator::MakeWanderSampler(
    int j) const {
  if (j < 0 || static_cast<size_t>(j) >= join_indexes_.size()) {
    return Status::InvalidArgument("join index out of range");
  }
  auto walker = ShardedWanderJoinSampler::Create(join_indexes_[j], cache_);
  if (!walker.ok()) return walker.status();
  return std::unique_ptr<WanderJoinSampler>(std::move(walker).value());
}

Result<std::vector<JoinMembershipProberPtr>>
ShardCoordinator::BuildRoutedProbers() const {
  std::vector<JoinMembershipProberPtr> probers;
  probers.reserve(plan_->num_joins());
  for (size_t j = 0; j < plan_->num_joins(); ++j) {
    auto prober = ShardedMembershipProber::Build(plan_, static_cast<int>(j));
    if (!prober.ok()) return prober.status();
    probers.push_back(std::move(prober).value());
  }
  return probers;
}

std::vector<double> ShardCoordinator::shard_union_weights() const {
  std::lock_guard<std::mutex> lock(weights_mu_);
  return shard_union_weights_;
}

Status ShardCoordinator::RefreshWeights() {
  const int k = num_shards();
  std::vector<double> weights(k, 0.0);
  double global = 0.0;
  for (const auto& index : join_indexes_) {
    for (int s = 0; s < k; ++s) {
      weights[s] += index->shard_weights(s)->TotalWeight();
    }
    global += index->TotalWeight();
  }
  double merged = 0.0;
  for (double w : weights) merged += w;
  // All addends are integer-valued EW totals, so the two sums must agree
  // to the last bit; a mismatch means a shard's index drifted from the
  // plan (or weights stopped being integers) and routing is unsound.
  if (merged != global) {
    return Status::Internal(
        "shard weight merge mismatch: sum of shard weights " +
        std::to_string(merged) + " != union total " + std::to_string(global));
  }
  {
    std::lock_guard<std::mutex> lock(weights_mu_);
    shard_union_weights_ = std::move(weights);
  }
  weight_refreshes_.fetch_add(1, std::memory_order_relaxed);
  refresh_counter_->Increment();
  return Status::OK();
}

void ShardCoordinator::FailShard(int s) {
  if (s < 0 || s >= num_shards()) return;
  failed_mask_.fetch_or(uint64_t{1} << s, std::memory_order_acq_rel);
}

void ShardCoordinator::RestoreShard(int s) {
  if (s < 0 || s >= num_shards()) return;
  failed_mask_.fetch_and(~(uint64_t{1} << s), std::memory_order_acq_rel);
}

Status ShardCoordinator::CheckAvailable() const {
  const uint64_t mask = failed_mask_.load(std::memory_order_acquire);
  if (mask == 0) return Status::OK();
  unavailable_errors_.fetch_add(1, std::memory_order_relaxed);
  unavailable_counter_->Increment();
  int first = 0;
  while (((mask >> first) & 1) == 0) ++first;
  return Status::Unavailable("shard " + std::to_string(first) +
                             " unreachable; union draws cannot be routed");
}

}  // namespace suj
