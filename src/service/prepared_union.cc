#include "service/prepared_union.h"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "core/exact_overlap.h"
#include "core/histogram_overlap.h"
#include "core/template_selector.h"
#include "join/exact_weight.h"
#include "join/wander_join.h"
#include "obs/metrics.h"
#include "stats/column_histogram.h"

namespace suj {

namespace {

// Retained warm-up state: for kExact the calculator survives into the
// plan so the NEXT epoch's refresh can re-materialize only affected joins
// (CreateIncremental); other modes keep nothing beyond the estimates.
struct WarmupOutput {
  UnionEstimates estimates;
  std::shared_ptr<const ExactOverlapCalculator> exact;
  std::shared_ptr<const ShardMergedOverlapEstimator> merged;
};

// Warm-up dispatch: produce UnionEstimates per the requested mode. For
// epoch refreshes `prev_exact`/`prev_merged` carry the previous epoch's
// kExact calculators and `affected_mask` marks the joins a delta touched;
// cold builds pass nulls.
Result<WarmupOutput> RunWarmup(const std::vector<JoinSpecPtr>& joins,
                               CompositeIndexCache* cache,
                               const std::vector<JoinMembershipProberPtr>&
                                   probers,
                               const PreparedQueryOptions& options,
                               const ShardCoordinator* shards,
                               const ExactOverlapCalculator* prev_exact =
                                   nullptr,
                               const ShardMergedOverlapEstimator* prev_merged =
                                   nullptr,
                               uint64_t affected_mask = 0) {
  WarmupOutput out;
  switch (options.warmup) {
    case WarmupMode::kExact: {
      // Sharded plans estimate through the merged per-shard calculators —
      // the coordinator's weight-merge math. The shard root slices
      // partition every join result, so the merged estimates equal the
      // canonical ones exactly (asserted by the determinism suite).
      if (shards != nullptr) {
        auto merged =
            prev_merged != nullptr
                ? ShardMergedOverlapEstimator::CreateIncremental(
                      shards->plan(), *prev_merged, affected_mask, cache)
                : ShardMergedOverlapEstimator::Create(shards->plan());
        if (!merged.ok()) return merged.status();
        auto estimates = ComputeUnionEstimates(merged->get());
        if (!estimates.ok()) return estimates.status();
        out.estimates = std::move(estimates).value();
        out.merged = std::move(merged).value();
        return out;
      }
      auto exact = prev_exact != nullptr
                       ? ExactOverlapCalculator::CreateIncremental(
                             joins, *prev_exact, affected_mask, cache)
                       : ExactOverlapCalculator::Create(joins);
      if (!exact.ok()) return exact.status();
      auto estimates = ComputeUnionEstimates(exact->get());
      if (!estimates.ok()) return estimates.status();
      out.estimates = std::move(estimates).value();
      out.exact = std::move(exact).value();
      return out;
    }
    case WarmupMode::kHistogram: {
      // Histogram estimates touch column stats only — recomputing them per
      // epoch is already cheaper than any carried state would be.
      HistogramCatalog histograms;
      HistogramOverlapEstimator::Options h;
      h.template_options = options.template_options;
      auto hist = HistogramOverlapEstimator::Create(joins, &histograms, h);
      if (!hist.ok()) return hist.status();
      auto estimates = ComputeUnionEstimates(hist->get());
      if (!estimates.ok()) return estimates.status();
      out.estimates = std::move(estimates).value();
      return out;
    }
    case WarmupMode::kRandomWalk: {
      // Epoch refreshes replay the SAME warmup_seed over the refreshed
      // probers and the seeded index cache: unaffected joins' walk indexes
      // are carried forward, and the walks themselves are a pure function
      // of (seed, data), so the refreshed estimates equal a cold build's.
      RandomWalkOverlapEstimator::Options w = options.walk_options;
      w.probers = probers;  // already built for the plan; never rebuild
      if (shards != nullptr) {
        w.wander_factory = [shards](int j) {
          return shards->MakeWanderSampler(j);
        };
      }
      auto walker = RandomWalkOverlapEstimator::Create(joins, cache, w);
      if (!walker.ok()) return walker.status();
      Rng warmup_rng(options.warmup_seed);
      SUJ_RETURN_NOT_OK((*walker)->Warmup(warmup_rng));
      auto estimates = ComputeUnionEstimates(walker->get());
      if (!estimates.ok()) return estimates.status();
      out.estimates = std::move(estimates).value();
      return out;
    }
  }
  return Status::Internal("unknown warmup mode");
}

// Base bytes of one relation: column storage by physical type (strings
// are length-summed). The multiplier below scales this to the plan's
// whole pinned footprint (CSR index arrays, alias tables, weight
// prefix sums all materialize per-row state a small constant number of
// times over the base data).
size_t ApproxRelationBytes(const Relation& rel) {
  size_t bytes = 0;
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    switch (rel.schema().field(c).type) {
      case ValueType::kInt64:
      case ValueType::kDouble:
        bytes += rel.num_rows() * 8;
        break;
      case ValueType::kString: {
        const auto& col = rel.StringColumn(c);
        bytes += col.size() * sizeof(std::string);
        for (const auto& s : col) bytes += s.size();
        break;
      }
    }
  }
  return bytes;
}

constexpr size_t kPlanOverheadFactor = 4;

/// Fixed per-shard coordinator bookkeeping (ledger, boundaries, routers).
constexpr size_t kPerShardFixedBytes = 4096;

// Whole-plan resident estimate. Base relations (distinct, counted once)
// scaled by the derived-state factor; sharded plans ADDITIONALLY pin the
// per-shard root slices (one more materialized copy of every partitioned
// canonical root) plus per-shard EW/wander indexes, which scale like the
// unsharded derived state over those roots, plus fixed coordinator state
// per shard. Without the sharded term, sharded plans under-report by
// roughly the whole per-shard index footprint and evade the registry's
// memory budget.
size_t ApproxPlanBytes(const std::vector<JoinSpecPtr>& joins,
                       const ShardCoordinator* shards) {
  std::unordered_map<const Relation*, size_t> seen;
  size_t base_bytes = 0;
  for (const auto& join : joins) {
    for (const auto& rel : join->relations()) {
      if (seen.emplace(rel.get(), 1).second) {
        base_bytes += ApproxRelationBytes(*rel);
      }
    }
  }
  size_t total = base_bytes * kPlanOverheadFactor;
  if (shards != nullptr) {
    const ShardPlan& plan = *shards->plan();
    size_t root_bytes = 0;
    for (size_t j = 0; j < plan.num_joins(); ++j) {
      const ShardedJoinPlan& jp = plan.join_plan(static_cast<int>(j));
      root_bytes += ApproxRelationBytes(*jp.canonical->relation(jp.root));
    }
    total += root_bytes * (1 + kPlanOverheadFactor);
    total += static_cast<size_t>(shards->num_shards()) * kPerShardFixedBytes;
  }
  return total;
}

}  // namespace

Result<std::shared_ptr<const PreparedUnion>> PreparedUnion::Build(
    std::string name, uint64_t plan_id, std::vector<JoinSpecPtr> joins,
    const PreparedQueryOptions& options) {
  auto start = std::chrono::steady_clock::now();
  if (name.empty()) {
    return Status::InvalidArgument("prepared query needs a non-empty name");
  }
  if (plan_id == 0) {
    return Status::InvalidArgument("plan_id 0 is reserved for ad-hoc stats");
  }
  SUJ_RETURN_NOT_OK(ValidateUnionCompatible(joins));

  auto plan = std::shared_ptr<PreparedUnion>(
      new PreparedUnion(std::move(name), plan_id, std::move(joins)));
  plan->index_cache_ = std::make_shared<CompositeIndexCache>();
  plan->options_ = options;
  plan->base_joins_ = plan->joins_;  // pre-canonical: delta targets
  plan->family_latest_ = std::make_shared<std::atomic<uint64_t>>(0);

  // Sharding first: the shard planner rewrites the joins into their
  // canonical (vp-major) form, and EVERYTHING downstream — probers,
  // warm-up, template, samplers — runs against the canonical specs, so
  // the rest of the pipeline is shard-count agnostic.
  if (options.shard.num_shards > 1) {
    auto shard_plan = ShardPlanner::Plan(plan->joins_, options.shard);
    if (!shard_plan.ok()) return shard_plan.status();
    plan->joins_ = (*shard_plan)->canonical_joins();
    auto coordinator =
        ShardCoordinator::Build(std::move(shard_plan).value(),
                                plan->index_cache_.get());
    if (!coordinator.ok()) return coordinator.status();
    plan->shards_ = std::move(coordinator).value();
  }

  // Probers next: the membership oracle f(u) is needed by every session
  // mode, and the random-walk warm-up shares them too. Sharded plans probe
  // the canonical joins directly: a probe is one row-id table lookup per
  // relation either way, so routing it to a shard would only add work.
  auto probers = BuildProbers(plan->joins_);
  if (!probers.ok()) return probers.status();
  plan->probers_ = std::move(probers).value();

  auto warmup = RunWarmup(plan->joins_, plan->index_cache_.get(),
                          plan->probers_, options, plan->shards_.get());
  if (!warmup.ok()) return warmup.status();
  plan->estimates_ = std::move(warmup.value().estimates);
  plan->exact_overlap_ = std::move(warmup.value().exact);
  plan->merged_overlap_ = std::move(warmup.value().merged);

  auto tmpl =
      TemplateSelector::SelectTemplate(plan->joins_, options.template_options);
  if (!tmpl.ok()) return tmpl.status();
  plan->standard_template_ = std::move(tmpl).value();

  // Pin the per-join sampling indexes. Exact-weight indexes make
  // per-session sampler construction O(1); pre-creating one wander-join
  // sampler per join forces its step indexes into the shared cache so
  // online sessions start against a warm cache.
  if (plan->shards_ == nullptr) {
    plan->weight_indexes_.reserve(plan->joins_.size());
    for (const auto& join : plan->joins_) {
      auto index = ExactWeightIndex::Build(join, plan->index_cache_.get());
      if (!index.ok()) return index.status();
      plan->weight_indexes_.push_back(std::move(index).value());
    }
  }
  // (Sharded plans pinned their per-shard weight indexes inside the
  // coordinator; a canonical index would duplicate every root weight.)
  if (options.prebuild_walk_indexes) {
    for (size_t j = 0; j < plan->joins_.size(); ++j) {
      auto wander =
          plan->shards_ != nullptr
              ? plan->shards_->MakeWanderSampler(static_cast<int>(j))
              : WanderJoinSampler::Create(plan->joins_[j],
                                          plan->index_cache_.get());
      if (!wander.ok()) return wander.status();
      // The sampler itself is discarded; only the cached indexes matter.
    }
  }

  // Size estimate for budget eviction (includes per-shard state for
  // sharded plans — they must not evade the registry's memory budget).
  plan->approx_memory_bytes_ =
      ApproxPlanBytes(plan->joins_, plan->shards_.get());

  plan->build_seconds_ = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return std::shared_ptr<const PreparedUnion>(plan);
}

Result<std::shared_ptr<const PreparedUnion>> PreparedUnion::ApplyDelta(
    const std::shared_ptr<const PreparedUnion>& prev,
    const std::vector<RelationDelta>& deltas) {
  auto start = std::chrono::steady_clock::now();
  if (prev == nullptr) return Status::InvalidArgument("null previous plan");
  if (deltas.empty()) {
    return Status::InvalidArgument("delta batch is empty");
  }

  // 1. Fold every delta against prev's base relations, resolved by name.
  std::unordered_map<std::string, RelationPtr> by_name;
  for (const auto& join : prev->base_joins_) {
    for (const auto& rel : join->relations()) {
      auto [it, inserted] = by_name.emplace(rel->name(), rel);
      if (!inserted && it->second != rel) {
        return Status::InvalidArgument("relation name '" + rel->name() +
                                       "' is ambiguous in this union");
      }
    }
  }
  std::unordered_map<const Relation*, FoldedRelation> folds;
  uint64_t delta_rows = 0;
  for (const auto& delta : deltas) {
    auto it = by_name.find(delta.relation);
    if (it == by_name.end()) {
      return Status::NotFound("relation '" + delta.relation +
                              "' is not part of query '" + prev->name_ + "'");
    }
    if (folds.count(it->second.get()) > 0) {
      return Status::InvalidArgument("multiple deltas for relation '" +
                                     delta.relation +
                                     "' in one batch; merge them first");
    }
    auto folded = FoldDelta(*it->second, delta);
    if (!folded.ok()) return folded.status();
    delta_rows += delta.num_rows();
    folds.emplace(it->second.get(), std::move(folded).value());
  }

  // 2. Rebuild the base joins a delta touched; share the rest by pointer.
  uint64_t affected_mask = 0;
  std::vector<JoinSpecPtr> base_joins;
  base_joins.reserve(prev->base_joins_.size());
  for (size_t j = 0; j < prev->base_joins_.size(); ++j) {
    const JoinSpecPtr& join = prev->base_joins_[j];
    bool affected = false;
    for (const auto& rel : join->relations()) {
      if (folds.count(rel.get()) > 0) {
        affected = true;
        break;
      }
    }
    if (!affected) {
      base_joins.push_back(join);
      continue;
    }
    affected_mask |= uint64_t{1} << j;
    std::vector<RelationPtr> rels = join->relations();
    for (auto& rel : rels) {
      auto fit = folds.find(rel.get());
      if (fit != folds.end()) rel = fit->second.relation;
    }
    std::vector<JoinEdge> edges;
    for (const auto& e : join->graph().edges()) {
      edges.push_back(JoinEdge{e.left, e.right});
    }
    auto spec = JoinSpec::Create(join->name(), std::move(rels), edges,
                                 join->output_predicates());
    if (!spec.ok()) return spec.status();
    base_joins.push_back(std::move(spec).value());
  }

  const PreparedQueryOptions& options = prev->options_;
  auto plan = std::shared_ptr<PreparedUnion>(
      new PreparedUnion(prev->name_, prev->plan_id_, std::move(base_joins)));
  plan->index_cache_ = std::make_shared<CompositeIndexCache>();
  plan->options_ = options;
  plan->base_joins_ = plan->joins_;
  plan->data_epoch_ = prev->data_epoch_ + 1;
  plan->delta_rows_ = delta_rows;
  plan->family_latest_ = prev->family_latest_;

  // 3. Shard re-plan: only affected joins are re-partitioned; the rest
  // keep their canonical spec, slices, and vp map from the previous plan.
  ShardPlanPtr shard_plan;
  if (options.shard.num_shards > 1) {
    if (prev->shards_ == nullptr) {
      return Status::Internal("sharded options but no previous coordinator");
    }
    auto replanned = ShardPlanner::Plan(plan->joins_, options.shard,
                                        *prev->shards_->plan(), affected_mask);
    if (!replanned.ok()) return replanned.status();
    shard_plan = std::move(replanned).value();
    plan->joins_ = shard_plan->canonical_joins();
  }

  // 4. Seed the fresh index cache from the previous epoch's: entries over
  // relations the new plan still references carry over untouched; entries
  // over folded relations are maintained incrementally (delta rows indexed
  // in, survivors remapped); entries over re-planned shard state are
  // dropped (their relations were re-materialized). A FRESH cache per
  // epoch is required: cache keys are pointer-derived, so reusing one
  // cache across epochs could alias a freed relation's address.
  std::unordered_set<const Relation*> live;
  for (const auto& join : plan->joins_) {
    for (const auto& rel : join->relations()) live.insert(rel.get());
  }
  if (shard_plan != nullptr) {
    for (size_t j = 0; j < shard_plan->num_joins(); ++j) {
      const ShardedJoinPlan& jp = shard_plan->join_plan(static_cast<int>(j));
      for (const auto& spec : jp.shard_specs) {
        for (const auto& rel : spec->relations()) live.insert(rel.get());
      }
    }
  }
  // Base relations stay reachable through base_joins_ even when sharding
  // replaced them with canonical reorders; keep their indexes carried so
  // later epochs can keep folding them incrementally.
  for (const auto& join : plan->base_joins_) {
    for (const auto& rel : join->relations()) live.insert(rel.get());
  }
  std::unordered_map<const CompositeIndex*, CompositeIndexPtr> index_map;
  for (const auto& index : prev->index_cache_->Indexes()) {
    const Relation* rel = index->relation().get();
    if (live.count(rel) > 0) {
      plan->index_cache_->Insert(index);
      index_map.emplace(index.get(), index);
      continue;
    }
    auto fit = folds.find(rel);
    if (fit == folds.end() || live.count(fit->second.relation.get()) == 0) {
      continue;  // stale (e.g. a re-planned canonical root or shard slice)
    }
    auto inc = CompositeIndex::BuildIncremental(
        *index, fit->second.relation, fit->second.remap,
        fit->second.first_appended_row);
    if (!inc.ok()) return inc.status();
    plan->index_cache_->Insert(inc.value());
    index_map.emplace(index.get(), std::move(inc).value());
  }
  for (const auto& probe : prev->index_cache_->Probes()) {
    auto iit = index_map.find(probe.index.get());
    if (iit == index_map.end()) continue;
    const CompositeIndexPtr& new_index = iit->second;
    const bool index_changed = new_index != probe.index;
    bool index_gained = false;
    if (index_changed) {
      auto fit = folds.find(probe.index->relation().get());
      index_gained = fit != folds.end() && fit->second.num_appended() > 0;
    }
    RelationPtr new_probe = probe.probe;
    const std::vector<uint32_t>* probe_remap = nullptr;
    uint32_t first_appended = static_cast<uint32_t>(probe.probe->num_rows());
    if (live.count(probe.probe.get()) == 0) {
      auto fit = folds.find(probe.probe.get());
      if (fit == folds.end() ||
          live.count(fit->second.relation.get()) == 0) {
        continue;
      }
      new_probe = fit->second.relation;
      probe_remap = &fit->second.remap;
      first_appended = fit->second.first_appended_row;
    }
    if (!index_changed && new_probe == probe.probe) {
      plan->index_cache_->InsertProbe(probe.index, probe.probe, probe.rows);
      continue;
    }
    auto rows = new_index->MapRowsIncremental(
        *probe.rows, probe_remap, first_appended, *new_probe, index_gained);
    if (!rows.ok()) return rows.status();
    plan->index_cache_->InsertProbe(
        new_index, new_probe,
        std::make_shared<const std::vector<uint32_t>>(
            std::move(rows).value()));
  }

  // 5. Coordinator refresh over the seeded cache: unaffected joins share
  // their immutable ShardedJoinIndex; the weight ledger is re-derived and
  // the merge invariant re-verified.
  if (shard_plan != nullptr) {
    auto coordinator =
        ShardCoordinator::Build(shard_plan, plan->index_cache_.get(),
                                *prev->shards_, affected_mask);
    if (!coordinator.ok()) return coordinator.status();
    plan->shards_ = std::move(coordinator).value();
  }

  // 6. Probers: per-join reuse (membership sets of unaffected joins are
  // untouched by the fold).
  plan->probers_.reserve(plan->joins_.size());
  for (size_t j = 0; j < plan->joins_.size(); ++j) {
    if (((affected_mask >> j) & 1) == 0) {
      plan->probers_.push_back(prev->probers_[j]);
      continue;
    }
    auto prober = JoinMembershipProber::Build(plan->joins_[j]);
    if (!prober.ok()) return prober.status();
    plan->probers_.push_back(std::move(prober).value());
  }

  // 7. Warm-up refresh: kExact re-materializes only affected joins via the
  // retained calculators; kRandomWalk replays the same warmup seed over
  // the carried indexes; kHistogram recomputes from column stats.
  auto warmup = RunWarmup(plan->joins_, plan->index_cache_.get(),
                          plan->probers_, options, plan->shards_.get(),
                          prev->exact_overlap_.get(),
                          prev->merged_overlap_.get(), affected_mask);
  if (!warmup.ok()) return warmup.status();
  plan->estimates_ = std::move(warmup.value().estimates);
  plan->exact_overlap_ = std::move(warmup.value().exact);
  plan->merged_overlap_ = std::move(warmup.value().merged);

  auto tmpl =
      TemplateSelector::SelectTemplate(plan->joins_, options.template_options);
  if (!tmpl.ok()) return tmpl.status();
  plan->standard_template_ = std::move(tmpl).value();

  // 8. Union weights: unaffected joins keep their immutable exact-weight
  // index (same join spec pointer); affected joins rebuild against the
  // seeded cache, so carried child indexes are reused inside the build.
  if (plan->shards_ == nullptr) {
    plan->weight_indexes_.reserve(plan->joins_.size());
    for (size_t j = 0; j < plan->joins_.size(); ++j) {
      if (((affected_mask >> j) & 1) == 0) {
        plan->weight_indexes_.push_back(prev->weight_indexes_[j]);
        continue;
      }
      auto index =
          ExactWeightIndex::Build(plan->joins_[j], plan->index_cache_.get());
      if (!index.ok()) return index.status();
      plan->weight_indexes_.push_back(std::move(index).value());
    }
  }
  if (options.prebuild_walk_indexes) {
    for (size_t j = 0; j < plan->joins_.size(); ++j) {
      if (((affected_mask >> j) & 1) == 0) continue;  // carried via cache
      auto wander =
          plan->shards_ != nullptr
              ? plan->shards_->MakeWanderSampler(static_cast<int>(j))
              : WanderJoinSampler::Create(plan->joins_[j],
                                          plan->index_cache_.get());
      if (!wander.ok()) return wander.status();
    }
  }

  plan->approx_memory_bytes_ =
      ApproxPlanBytes(plan->joins_, plan->shards_.get());
  plan->build_seconds_ = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Publish: latest_epoch() on ANY epoch of this family now reports at
  // least this epoch (monotone max — concurrent direct callers race, but
  // the registry serializes delta application per process).
  uint64_t cur = plan->family_latest_->load(std::memory_order_relaxed);
  while (cur < plan->data_epoch_ &&
         !plan->family_latest_->compare_exchange_weak(
             cur, plan->data_epoch_, std::memory_order_acq_rel)) {
  }
  return std::shared_ptr<const PreparedUnion>(plan);
}

UnionSampler::JoinSamplerFactory PreparedUnion::MakeJoinSamplerFactory()
    const {
  // The lambda captures this; factories are only ever used by sessions,
  // which hold the plan by shared_ptr for their whole lifetime.
  if (shards_ != nullptr) {
    return [this]() { return shards_->MakeSamplers(); };
  }
  return [this]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
    std::vector<std::unique_ptr<JoinSampler>> out;
    out.reserve(weight_indexes_.size());
    for (const auto& index : weight_indexes_) {
      auto sampler = ExactWeightSampler::Create(index);
      if (!sampler.ok()) return sampler.status();
      out.push_back(std::move(*sampler));
    }
    return out;
  };
}

WanderSamplerFactory PreparedUnion::MakeWanderFactory() const {
  if (shards_ == nullptr) return nullptr;
  return [this](int j) { return shards_->MakeWanderSampler(j); };
}

Result<PreparedUnionPtr> QueryRegistry::Prepare(
    std::string name, std::vector<JoinSpecPtr> joins,
    const PreparedQueryOptions& options) {
  uint64_t plan_id;
  {
    // Reserve the name with a null placeholder BEFORE the expensive
    // build: a concurrent Prepare of the same query fails immediately
    // instead of silently paying the whole pipeline a second time.
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = queries_.emplace(name, Entry{});
    if (!inserted) {
      return Status::InvalidArgument(
          it->second.plan == nullptr
              ? "query '" + name + "' is being prepared concurrently"
              : "query '" + name + "' is already prepared");
    }
    plan_id = next_plan_id_++;
  }
  // Build outside the lock: preparation is the expensive step, and Get()
  // on other queries must not stall behind it.
  auto plan = PreparedUnion::Build(name, plan_id, std::move(joins), options);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(name);
  if (!plan.ok()) {
    if (it != queries_.end() && it->second.plan == nullptr) queries_.erase(it);
    return plan.status();
  }
  // The placeholder is still ours: Get/Evict treat it as absent, so
  // nothing can have replaced or removed it.
  if (it != queries_.end() && it->second.plan == nullptr) {
    it->second.plan = *plan;
    it->second.last_use = ++use_clock_;
    stats_.resident_bytes += (*plan)->approx_memory_bytes();
    EnforceBudgetLocked(name);
  }
  ++stats_.prepared;
  return *plan;
}

void QueryRegistry::EnforceBudgetLocked(const std::string& keep) {
  auto over_budget = [&](size_t live) {
    return (options_.max_plans > 0 && live > options_.max_plans) ||
           (options_.memory_budget_bytes > 0 &&
            stats_.resident_bytes > options_.memory_budget_bytes);
  };
  for (;;) {
    size_t live = 0;
    auto victim = queries_.end();
    for (auto it = queries_.begin(); it != queries_.end(); ++it) {
      if (it->second.plan == nullptr) continue;  // in-flight placeholder
      ++live;
      if (it->first == keep) continue;
      if (victim == queries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (!over_budget(live) || victim == queries_.end()) break;
    // Unpin only: sessions holding the plan keep sampling; the bytes
    // leave the REGISTRY's account now and the process when the last
    // holder drops the shared_ptr.
    stats_.resident_bytes -=
        std::min(stats_.resident_bytes,
                 victim->second.plan->approx_memory_bytes());
    queries_.erase(victim);
    ++stats_.evicted_for_budget;
    static obs::Counter* const budget_evictions =
        obs::MetricsRegistry::Global().GetCounter(
            "suj_registry_budget_evictions_total");
    budget_evictions->Increment();
  }
}

Result<PreparedUnionPtr> QueryRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(name);
  if (it == queries_.end() || it->second.plan == nullptr) {
    ++stats_.misses;
    return Status::NotFound(
        it == queries_.end()
            ? "no prepared query named '" + name + "'"
            : "query '" + name + "' is still being prepared");
  }
  ++stats_.hits;
  it->second.last_use = ++use_clock_;
  return it->second.plan;
}

Result<PreparedUnionPtr> QueryRegistry::ApplyDelta(
    const std::string& name, const std::vector<RelationDelta>& deltas) {
  // One delta build at a time: epochs are linear per family, and a lost
  // race would waste a whole incremental refresh.
  std::lock_guard<std::mutex> delta_lock(delta_mu_);
  PreparedUnionPtr prev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(name);
    if (it == queries_.end() || it->second.plan == nullptr) {
      return Status::NotFound("no prepared query named '" + name + "'");
    }
    prev = it->second.plan;
  }
  // Build the next epoch outside mu_: Get() on other queries must not
  // stall behind an epoch refresh.
  auto next = PreparedUnion::ApplyDelta(prev, deltas);
  if (!next.ok()) return next.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(name);
  if (it == queries_.end() || it->second.plan != prev) {
    // Evicted while the refresh was building: respect the eviction (the
    // caller still gets the refreshed plan; it is simply not pinned).
    return Status::NotFound("query '" + name +
                            "' was evicted during delta application");
  }
  stats_.resident_bytes -=
      std::min(stats_.resident_bytes, prev->approx_memory_bytes());
  stats_.resident_bytes += (*next)->approx_memory_bytes();
  it->second.plan = *next;
  it->second.last_use = ++use_clock_;
  EnforceBudgetLocked(name);
  return *next;
}

Status QueryRegistry::Evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(name);
  if (it == queries_.end() || it->second.plan == nullptr) {
    return Status::NotFound("no prepared query named '" + name + "'");
  }
  stats_.resident_bytes -= std::min(
      stats_.resident_bytes, it->second.plan->approx_memory_bytes());
  queries_.erase(it);
  ++stats_.evicted;
  static obs::Counter* const evictions =
      obs::MetricsRegistry::Global().GetCounter(
          "suj_registry_evictions_total");
  evictions->Increment();
  return Status::OK();
}

size_t QueryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& [name, entry] : queries_) {
    if (entry.plan != nullptr) ++live;
  }
  return live;
}

QueryRegistry::Snapshot QueryRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace suj
