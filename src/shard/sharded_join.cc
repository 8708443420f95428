#include "shard/sharded_join.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace suj {

namespace {

std::vector<obs::Counter*> ShardCounters(const std::string& prefix, int k) {
  std::vector<obs::Counter*> out;
  out.reserve(k);
  for (int s = 0; s < k; ++s) {
    out.push_back(obs::MetricsRegistry::Global().GetCounter(
        prefix + std::to_string(s)));
  }
  return out;
}

}  // namespace

Result<std::shared_ptr<const ShardedJoinIndex>> ShardedJoinIndex::Build(
    ShardPlanPtr plan, int join_index, CompositeIndexCache* cache) {
  if (plan == nullptr) return Status::InvalidArgument("null shard plan");
  if (join_index < 0 || static_cast<size_t>(join_index) >= plan->num_joins()) {
    return Status::InvalidArgument("join_index out of range");
  }
  auto index = std::shared_ptr<ShardedJoinIndex>(
      new ShardedJoinIndex(std::move(plan), join_index));
  const ShardedJoinPlan& jp = index->join_plan();
  const int k = static_cast<int>(jp.shard_specs.size());
  index->total_rows_ = jp.canonical->relation(jp.root)->num_rows();
  index->shard_weights_.reserve(k);
  // Shard s's root rows are canonical rows [row_begin[s], row_begin[s+1]),
  // so concatenating shard root weights in shard order yields the
  // canonical root weights in canonical order.
  std::vector<double> root_weights;
  root_weights.reserve(index->total_rows_);
  for (int s = 0; s < k; ++s) {
    // No per-shard root alias: every root draw goes through the global
    // table built below.
    auto weights = ExactWeightIndex::Build(jp.shard_specs[s], cache,
                                           /*with_root_alias=*/false);
    if (!weights.ok()) return weights.status();
    const ExactWeightIndexPtr& w =
        index->shard_weights_.emplace_back(std::move(weights).value());
    index->exact_ = index->exact_ && w->exact();
    const auto& local = w->weights(w->join()->graph().tree_order()[0]);
    root_weights.insert(root_weights.end(), local.begin(), local.end());
  }
  // Summed in canonical row order, as ExactWeightIndex::Build sums them.
  for (double w : root_weights) index->total_weight_ += w;
  if (index->total_weight_ > 0.0) {
    auto alias = AliasTable::Build(root_weights);
    if (!alias.ok()) return alias.status();
    index->root_alias_ = std::move(alias).value();
  }
  return std::shared_ptr<const ShardedJoinIndex>(index);
}

int ShardedJoinIndex::RouteRow(uint64_t global_row, uint32_t* local_row) const {
  const std::vector<uint32_t>& rb = join_plan().row_begin;
  const uint32_t row = static_cast<uint32_t>(global_row);
  const int s = static_cast<int>(
      std::upper_bound(rb.begin() + 1, rb.end(), row) - (rb.begin() + 1));
  *local_row = row - rb[s];
  return s;
}

Result<std::unique_ptr<ShardedJoinSampler>> ShardedJoinSampler::Create(
    ShardedJoinIndexPtr index) {
  if (index == nullptr) return Status::InvalidArgument("null sharded index");
  auto sampler = std::unique_ptr<ShardedJoinSampler>(
      new ShardedJoinSampler(index->join(), index));
  const int k = index->num_shards();
  for (int s = 0; s < k; ++s) {
    auto inner = ExactWeightSampler::Create(index->shard_weights(s));
    if (!inner.ok()) return inner.status();
    sampler->shard_samplers_.push_back(std::move(inner).value());
  }
  sampler->draw_counters_ = ShardCounters("suj_shard_draws_total_s", k);
  sampler->total_draws_ =
      obs::MetricsRegistry::Global().GetCounter("suj_shard_draws_total");
  sampler->latency_ns_.reserve(k);
  for (int s = 0; s < k; ++s) {
    sampler->latency_ns_.push_back(obs::MetricsRegistry::Global().GetHistogram(
        "suj_shard_sample_ns_s" + std::to_string(s),
        obs::Histogram::DefaultLatencyBoundsNs()));
  }
  return sampler;
}

std::optional<Tuple> ShardedJoinSampler::TrySample(Rng& rng) {
  ++stats_.attempts;
  if (index_->TotalWeight() <= 0.0) {
    ++stats_.dead_ends;
    return std::nullopt;
  }
  const bool timed = obs::MetricsEnabled();
  const int64_t start_ns = timed ? obs::MonotonicNs() : 0;
  // Same root draw as the unsharded sampler over the canonical join: the
  // alias tables are built from identical weights.
  uint32_t local = 0;
  const int s = index_->RouteRow(index_->root_alias().Sample(rng), &local);
  ExactWeightSampler& inner = *shard_samplers_[s];
  const JoinSampleStats& inner_stats = inner.stats();
  const uint64_t dead0 = inner_stats.dead_ends;
  const uint64_t rej0 = inner_stats.rejections;
  std::optional<Tuple> out = inner.DescendColumnar(local, rng);
  stats_.dead_ends += inner_stats.dead_ends - dead0;
  stats_.rejections += inner_stats.rejections - rej0;
  if (out.has_value()) ++stats_.successes;
  draw_counters_[s]->Increment();
  total_draws_->Increment();
  if (timed) {
    latency_ns_[s]->Observe(
        static_cast<uint64_t>(obs::MonotonicNs() - start_ns));
  }
  return out;
}

Result<std::unique_ptr<ShardedWanderJoinSampler>>
ShardedWanderJoinSampler::Create(ShardedJoinIndexPtr index,
                                 CompositeIndexCache* cache) {
  if (index == nullptr) return Status::InvalidArgument("null sharded index");
  auto sampler = std::unique_ptr<ShardedWanderJoinSampler>(
      new ShardedWanderJoinSampler(index->join(), index));
  const ShardedJoinPlan& jp = sampler->index_->join_plan();
  for (const JoinSpecPtr& spec : jp.shard_specs) {
    auto walker = WanderJoinSampler::Create(spec, cache);
    if (!walker.ok()) return walker.status();
    sampler->shard_walkers_.push_back(std::move(walker).value());
  }
  sampler->draw_counters_ =
      ShardCounters("suj_shard_walk_draws_total_s",
                    static_cast<int>(jp.shard_specs.size()));
  sampler->total_draws_ =
      obs::MetricsRegistry::Global().GetCounter("suj_shard_walk_draws_total");
  return sampler;
}

WalkOutcome ShardedWanderJoinSampler::Walk(Rng& rng) {
  ++num_walks_;
  const uint64_t n = index_->total_rows();
  if (n == 0) return WalkOutcome{};
  // Same draw as the unsharded walk: a uniform canonical root row; the
  // shard's local offset points at the identical row contents.
  uint32_t local = 0;
  const int s = index_->RouteRow(rng.UniformInt(n), &local);
  WalkOutcome out =
      shard_walkers_[s]->WalkFromRoot(local, 1.0 / static_cast<double>(n), rng);
  if (out.success) ++num_successes_;
  draw_counters_[s]->Increment();
  total_draws_->Increment();
  return out;
}

Result<std::shared_ptr<const ShardedMembershipProber>>
ShardedMembershipProber::Build(ShardPlanPtr plan, int join_index) {
  if (plan == nullptr) return Status::InvalidArgument("null shard plan");
  if (plan->options().scheme != ShardScheme::kHashKey) {
    return Status::InvalidArgument(
        "routed membership probes require ShardScheme::kHashKey");
  }
  const ShardedJoinPlan& jp = plan->join_plan(join_index);
  auto prober = std::shared_ptr<ShardedMembershipProber>(
      new ShardedMembershipProber(jp.canonical, plan));
  for (const JoinSpecPtr& spec : jp.shard_specs) {
    auto inner = JoinMembershipProber::Build(spec);
    if (!inner.ok()) return inner.status();
    prober->shard_probers_.push_back(std::move(inner).value());
  }
  const Schema& root_schema = jp.canonical->relation(jp.root)->schema();
  const Schema& out_schema = jp.canonical->output_schema();
  for (const Field& field : root_schema.fields()) {
    const int idx = out_schema.FieldIndex(field.name);
    if (idx < 0) {
      return Status::Internal("root attribute '" + field.name +
                              "' missing from output schema");
    }
    prober->root_projection_.push_back(idx);
  }
  return std::shared_ptr<const ShardedMembershipProber>(prober);
}

bool ShardedMembershipProber::Contains(const Tuple& output_tuple) const {
  // The projection of an output tuple onto the root schema IS a full root
  // row, so its encoding hashes to the vp the planner assigned that row:
  // exactly one shard's root slice can contain it.
  Tuple root_row = output_tuple.Project(root_projection_);
  const uint32_t vp = static_cast<uint32_t>(
      ShardKeyHash64(root_row.Encode()) %
      static_cast<uint64_t>(plan_->options().virtual_partitions));
  return shard_probers_[plan_->shard_of_vp(vp)]->Contains(output_tuple);
}

}  // namespace suj
