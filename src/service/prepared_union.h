// PreparedUnion + QueryRegistry: the prepared-query half of the sampling
// service.
//
// A union-of-joins query is accepted ONCE: the registry validates the
// spec, runs the warm-up estimation (exact, histogram, or random-walk —
// the caller picks the cost/accuracy point), selects the standard
// template, builds the membership probers and per-join weight/walk
// indexes, and pins everything as an immutable, refcounted PreparedUnion.
// Sessions share the plan by shared_ptr: evicting a query from the
// registry only unpins it — live sessions keep sampling from the plan
// they hold until they close, so eviction can never invalidate in-flight
// work.
//
// Everything inside a PreparedUnion is immutable after Build except the
// CompositeIndexCache, which is internally synchronized; concurrent
// sessions therefore need no further coordination to share one plan.

#ifndef SUJ_SERVICE_PREPARED_UNION_H_
#define SUJ_SERVICE_PREPARED_UNION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exact_overlap.h"
#include "core/random_walk_overlap.h"
#include "core/template_selector.h"
#include "core/union_sampler.h"
#include "core/union_size_model.h"
#include "index/composite_index.h"
#include "join/exact_weight.h"
#include "join/membership.h"
#include "shard/shard_coordinator.h"
#include "storage/relation_delta.h"

namespace suj {

/// How a prepared query's warm-up estimates are produced.
enum class WarmupMode {
  /// Exact overlaps via full-join materialization. Only viable on small
  /// inputs; the reference mode for tests and demos.
  kExact,
  /// Histogram bounds (§5): column statistics only, no data access.
  /// Cheapest; estimates are upper bounds.
  kHistogram,
  /// Random-walk estimation (§6): unbiased, cost controlled by the walk
  /// budget. The production default.
  kRandomWalk,
};

/// Options for preparing one union-of-joins query.
struct PreparedQueryOptions {
  WarmupMode warmup = WarmupMode::kExact;
  /// Walk budget/confidence for WarmupMode::kRandomWalk.
  RandomWalkOverlapEstimator::Options walk_options;
  /// Seed of the (plan-build-time) warm-up walks. Per-session randomness
  /// never touches this: the plan is a pure function of (spec, options).
  /// MUST differ from the service's session seed family — session rank 0
  /// samples from un-jumped Rng(service seed), so equal seeds would make
  /// a kRandomWalk warm-up and that session replay the same stream,
  /// correlating delivered samples with the estimates. The default is a
  /// seed no one would pick for a service (the splitmix64/golden-ratio
  /// constant), keeping the streams disjoint out of the box.
  uint64_t warmup_seed = 0x9E3779B97F4A7C15ull;
  /// Template-selection knobs (§8.1.2).
  TemplateSelector::Options template_options;
  /// Prebuild the wander-join step indexes so online sessions create
  /// their walkers against a fully warmed cache.
  bool prebuild_walk_indexes = true;
  /// Sharding knobs. num_shards > 1 partitions every join's root relation
  /// at prepare time: joins() becomes the CANONICAL (vp-major reordered)
  /// specs, all samplers route through the shard coordinator, and the
  /// plan's output is byte-identical at every shard count (for fixed
  /// virtual_partitions).
  ShardOptions shard;
};

/// \brief One accepted query: joins + estimates + shared sampling state.
class PreparedUnion {
 public:
  /// Runs the full preparation pipeline. `plan_id` must be non-zero and
  /// unique per registry (the registry assigns it); it tags every stats
  /// block produced under this plan.
  static Result<std::shared_ptr<const PreparedUnion>> Build(
      std::string name, uint64_t plan_id, std::vector<JoinSpecPtr> joins,
      const PreparedQueryOptions& options);

  /// Epoch refresh: folds `deltas` (at most one per relation name) into
  /// `prev`'s base relations and produces the next data epoch's plan,
  /// maintaining indexes, probe arrays, overlap estimates, union weights,
  /// and the shard ledger INCREMENTALLY — state belonging to joins no
  /// delta touches is shared by pointer, and delta rows are folded into
  /// the rest rather than rebuilt from scratch. `prev` is never mutated:
  /// sessions holding it keep sampling their pinned epoch, byte-for-byte.
  /// The refreshed plan keeps the name/plan_id and shares the epoch family
  /// (latest_epoch() on ANY epoch's plan reports the family's newest).
  static Result<std::shared_ptr<const PreparedUnion>> ApplyDelta(
      const std::shared_ptr<const PreparedUnion>& prev,
      const std::vector<RelationDelta>& deltas);

  const std::string& name() const { return name_; }
  uint64_t plan_id() const { return plan_id_; }
  const std::vector<JoinSpecPtr>& joins() const { return joins_; }
  const UnionEstimates& estimates() const { return estimates_; }
  const std::vector<JoinMembershipProberPtr>& probers() const {
    return probers_;
  }
  /// The shared (internally synchronized) index cache; online sessions
  /// hand it to their walkers and parallel fresh-walk tails.
  const std::shared_ptr<CompositeIndexCache>& index_cache() const {
    return index_cache_;
  }
  /// Prebuilt exact-weight indexes, one per join (immutable, shared).
  /// Empty for sharded plans, whose per-shard indexes live in shards().
  const std::vector<ExactWeightIndexPtr>& weight_indexes() const {
    return weight_indexes_;
  }
  /// The shard coordinator, or null for unsharded plans.
  const ShardCoordinatorPtr& shards() const { return shards_; }
  /// The selected standard template (§8.1).
  const std::vector<std::string>& standard_template() const {
    return standard_template_;
  }
  /// Wall-clock seconds the preparation pipeline took (what sessions
  /// save on every request by reusing the plan). For epoch refreshes this
  /// is the incremental refresh time, not a cold build.
  double build_seconds() const { return build_seconds_; }

  /// This plan's data epoch: 0 for a cold Build, +1 per applied delta
  /// batch. A session pins the epoch of the plan it opened with (it holds
  /// the plan by shared_ptr), so resumable kRevision states stay valid
  /// across later deltas.
  uint64_t data_epoch() const { return data_epoch_; }
  /// Newest epoch in this plan's family (shared across all epochs of one
  /// prepared query). data_epoch() < latest_epoch() means this reader is
  /// pinned to a superseded snapshot.
  uint64_t latest_epoch() const {
    return family_latest_->load(std::memory_order_acquire);
  }
  /// The pre-canonical input joins this epoch was built over (deltas are
  /// resolved against these relations by name).
  const std::vector<JoinSpecPtr>& base_joins() const { return base_joins_; }
  /// Total delta rows (appends + deletes) folded into this epoch's
  /// refresh; 0 for a cold build.
  uint64_t delta_rows() const { return delta_rows_; }

  /// Heuristic resident-size estimate, fixed at Build time: base
  /// relation bytes (columns summed per type) times a constant factor
  /// for the derived state pinned alongside them (CSR composite
  /// indexes, weight/alias tables, probers). Used by the registry's
  /// memory-budget eviction — relative plan sizes matter there, not
  /// absolute accuracy. Relations shared between joins (the synthetic
  /// overlap workloads do this by construction) are counted once.
  size_t approx_memory_bytes() const { return approx_memory_bytes_; }

  /// Factory building one private exact-weight sampler set over the
  /// prebuilt weight indexes — O(1) per sampler, so per-session (and
  /// per-parallel-worker) construction costs nothing measurable.
  UnionSampler::JoinSamplerFactory MakeJoinSamplerFactory() const;

  /// Per-join wander-walker factory for warm-up estimators and online
  /// sessions: shard-routed walkers for sharded plans, null (callers use
  /// the default WanderJoinSampler::Create path) otherwise.
  WanderSamplerFactory MakeWanderFactory() const;

 private:
  PreparedUnion(std::string name, uint64_t plan_id,
                std::vector<JoinSpecPtr> joins)
      : name_(std::move(name)), plan_id_(plan_id), joins_(std::move(joins)) {}

  std::string name_;
  uint64_t plan_id_;
  std::vector<JoinSpecPtr> joins_;
  UnionEstimates estimates_;
  std::vector<JoinMembershipProberPtr> probers_;
  std::shared_ptr<CompositeIndexCache> index_cache_;
  std::vector<ExactWeightIndexPtr> weight_indexes_;
  ShardCoordinatorPtr shards_;
  std::vector<std::string> standard_template_;
  double build_seconds_ = 0.0;
  size_t approx_memory_bytes_ = 0;

  // Epoch state. options_/base_joins_ let ApplyDelta re-run the pipeline;
  // the retained exact/merged calculators make kExact warm-up refreshes
  // incremental (only affected joins re-materialize).
  PreparedQueryOptions options_;
  std::vector<JoinSpecPtr> base_joins_;
  uint64_t data_epoch_ = 0;
  uint64_t delta_rows_ = 0;
  std::shared_ptr<std::atomic<uint64_t>> family_latest_;
  std::shared_ptr<const ExactOverlapCalculator> exact_overlap_;
  std::shared_ptr<const ShardMergedOverlapEstimator> merged_overlap_;
};

using PreparedUnionPtr = std::shared_ptr<const PreparedUnion>;

/// \brief Thread-safe name -> PreparedUnion map with build-once semantics
/// and optional LRU eviction under a plan-count or memory budget.
///
/// Eviction (explicit or budget-driven) only unpins: sessions hold their
/// plan by shared_ptr, so a plan evicted mid-session stays fully
/// servable until the last session closes — the budget bounds what the
/// REGISTRY keeps warm for future OpenSession calls, never what live
/// sessions use.
class QueryRegistry {
 public:
  struct Options {
    /// Most plans kept pinned at once; 0 = unlimited. Exceeding the cap
    /// evicts least-recently-used plans (recency = Prepare or Get).
    size_t max_plans = 0;
    /// Budget over the pinned plans' approx_memory_bytes(); 0 =
    /// unlimited. The newest plan is never evicted to fit the budget —
    /// a single over-budget plan stays (and evicts everything else),
    /// so Prepare cannot succeed yet leave the plan unusable.
    size_t memory_budget_bytes = 0;
  };

  struct Snapshot {
    uint64_t prepared = 0;  ///< successful Prepare calls
    uint64_t hits = 0;      ///< successful Get calls
    uint64_t misses = 0;    ///< Get calls for unknown names
    uint64_t evicted = 0;   ///< successful explicit Evict calls
    uint64_t evicted_for_budget = 0;  ///< LRU evictions under the budget
    size_t resident_bytes = 0;  ///< approx bytes pinned right now
  };

  QueryRegistry() = default;
  explicit QueryRegistry(Options options) : options_(options) {}

  /// Prepares and pins a query under `name`. Fails with InvalidArgument
  /// if the name is taken (prepare-once: callers Get, not re-Prepare).
  Result<PreparedUnionPtr> Prepare(std::string name,
                                   std::vector<JoinSpecPtr> joins,
                                   const PreparedQueryOptions& options);

  /// The pinned plan, or NotFound.
  Result<PreparedUnionPtr> Get(const std::string& name) const;

  /// Applies a delta batch to the prepared query `name`: builds the next
  /// data epoch via PreparedUnion::ApplyDelta (outside the registry lock;
  /// concurrent deltas serialize on a dedicated mutex), swaps it in,
  /// re-accounts the memory budget, and bumps the family's latest epoch.
  /// Sessions holding the superseded epoch are unaffected; new sessions
  /// adopt the latest. Fails with NotFound if the query is unknown or was
  /// evicted while the refresh was building.
  Result<PreparedUnionPtr> ApplyDelta(const std::string& name,
                                      const std::vector<RelationDelta>& deltas);

  /// Unpins `name`. Live sessions holding the plan are unaffected; the
  /// plan's memory is reclaimed when the last session closes.
  Status Evict(const std::string& name);

  size_t size() const;
  Snapshot snapshot() const;

 private:
  struct Entry {
    PreparedUnionPtr plan;   // null while a Prepare is in flight
    uint64_t last_use = 0;   // LRU stamp (Prepare/Get bump it)
  };

  /// Evicts LRU plans until both budgets hold (mu_ held). `keep` (the
  /// plan just prepared) is exempt.
  void EnforceBudgetLocked(const std::string& keep);

  Options options_;
  mutable std::mutex mu_;
  /// Serializes ApplyDelta builds (never held together with mu_).
  std::mutex delta_mu_;
  mutable std::unordered_map<std::string, Entry> queries_;
  uint64_t next_plan_id_ = 1;
  mutable uint64_t use_clock_ = 0;
  mutable Snapshot stats_;
};

}  // namespace suj

#endif  // SUJ_SERVICE_PREPARED_UNION_H_
