// Exact-weight (EW) join sampling, the strongest instantiation of Zhao et
// al.'s framework (§3.2, §9 "EW").
//
// Each tuple t of each relation is weighted by the number of join results it
// yields within the spanning tree of the join: leaves weigh 1; an internal
// row's weight is the product over children of the summed weights of the
// child rows matching it. Sampling draws the root row proportionally to its
// weight and recurses into children proportionally to theirs, yielding a
// uniform sample with NO rejection when the tree captures every join
// constraint (chain and acyclic joins). For cyclic joins the tree weights
// are upper bounds (Zhao et al.'s skeleton join); a consistency check on
// the non-tree equalities rejects invalid assignments, preserving
// uniformity at the cost of a rejection rate.
//
// Sampling is one columnar descent: every probe resolves through flat
// integer arrays built at index-build time — parent row id -> child group
// id -> alias-table draw -> child row id — so a whole walk touches no
// Tuple, no Value, no string, and no hash table, and every weighted draw
// is O(1). A child's group is probed from its tree parent's row. For
// cyclic joins the parent may not be the first relation to assign an
// edge attribute; a parent value that disagrees with the assigned one is
// rejected when the walk is accepted (JoinSpec::PassesChecks), so every
// accepted walk probed with the assigned value.

#ifndef SUJ_JOIN_EXACT_WEIGHT_H_
#define SUJ_JOIN_EXACT_WEIGHT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/alias_table.h"
#include "common/result.h"
#include "index/composite_index.h"
#include "join/join_sampler.h"

namespace suj {

/// \brief Precomputed per-row exact weights over the join's spanning tree.
class ExactWeightIndex {
 public:
  /// Builds weights for `join`, creating composite indexes through `cache`.
  static Result<std::shared_ptr<const ExactWeightIndex>> Build(
      JoinSpecPtr join, CompositeIndexCache* cache);

  const JoinSpecPtr& join() const { return join_; }

  /// Sum of root-row weights: the exact join size when exact() is true,
  /// otherwise an upper bound (skeleton size).
  double TotalWeight() const { return total_weight_; }

  /// True iff TotalWeight() equals |J| exactly: the spanning tree captures
  /// all constraints and the join has no on-the-fly predicates.
  bool exact() const { return exact_; }

  /// Per-relation, per-row weights (indexed by relation index, then row).
  const std::vector<double>& weights(int relation) const {
    return weights_[relation];
  }

  /// \brief Flat-array descent plan for one tree edge (child relation r).
  ///
  /// `parent_probe` maps a parent row id to r's group id in r's composite
  /// index on its tree-edge attributes (kNoGroup for dangling parents).
  /// Groups are re-sliced to POSITIVE-weight rows only: group g's
  /// candidate rows are
  /// rows[offsets[g] .. offsets[g+1]) with a matching alias-table slice at
  /// the same offsets, so a weighted child draw is one alias lookup and one
  /// array read. A group whose rows all have zero weight is an empty slice
  /// (a dead end).
  struct ColumnarEdge {
    ProbeArrayPtr parent_probe;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> rows;
    FlatAliasGroups alias;
  };

  /// O(1) root draw over root-row weights (valid iff TotalWeight() > 0;
  /// empty in the per-shard indexes of a ShardedJoinIndex, which draws
  /// the root from one table over every shard's root weights).
  const AliasTable& root_alias() const { return root_alias_; }
  /// Descent plan of non-root relation r (valid iff TotalWeight() > 0).
  const ColumnarEdge& columnar_edge(int relation) const {
    return columnar_edges_[relation];
  }

 private:
  friend class ShardedJoinIndex;

  explicit ExactWeightIndex(JoinSpecPtr join) : join_(std::move(join)) {}

  /// Build(), optionally without the root alias table (sharded indexes
  /// only descend through their per-shard indexes).
  static Result<std::shared_ptr<const ExactWeightIndex>> Build(
      JoinSpecPtr join, CompositeIndexCache* cache, bool with_root_alias);

  /// `child_indexes[r]` is r's composite index on its tree-edge
  /// attributes (null for the root).
  Status BuildColumnar(const std::vector<CompositeIndexPtr>& child_indexes,
                       CompositeIndexCache* cache, bool with_root_alias);

  JoinSpecPtr join_;
  double total_weight_ = 0.0;
  bool exact_ = true;
  std::vector<std::vector<double>> weights_;
  AliasTable root_alias_;
  std::vector<ColumnarEdge> columnar_edges_;
};

using ExactWeightIndexPtr = std::shared_ptr<const ExactWeightIndex>;

/// \brief Uniform join sampler driven by exact weights.
class ExactWeightSampler : public JoinSampler {
 public:
  /// Builds the weight index (or reuses a prebuilt one) and the sampler.
  static Result<std::unique_ptr<ExactWeightSampler>> Create(
      JoinSpecPtr join, CompositeIndexCache* cache);
  static Result<std::unique_ptr<ExactWeightSampler>> Create(
      ExactWeightIndexPtr weights);

  bool TrySampleRows(Rng& rng, RowDraw* draw) override;

  /// Columnar batched walk: runs up to `count` attempts level-
  /// synchronously, prefetching the next level's probe/alias cache lines
  /// across in-flight walks so dependent misses overlap, and appends the
  /// successful tuples to `out`. Returns the number appended. Consumes the
  /// RNG in level-major order, so a batch's output is a pure function of
  /// (rng state, count) but differs from `count` sequential TrySample
  /// calls.
  size_t TrySampleBatch(size_t count, Rng& rng, std::vector<Tuple>* out);

  /// One attempt below an externally chosen root row (requires
  /// TotalWeight() > 0 and a positive-weight `root_row`): samples the
  /// remaining relations into `rows` (join() relation order) with exactly
  /// the RNG consumption TrySampleRows has after its root alias draw, and
  /// returns whether the walk was accepted. Shard routers draw the root
  /// from one alias table over the concatenated shard root weights and
  /// delegate here, which keeps sharded output byte-identical to the
  /// unsharded sampler.
  bool DescendColumnar(uint32_t root_row, Rng& rng, uint32_t* rows);

  double SizeUpperBound() const override { return weights_->TotalWeight(); }

  const ExactWeightIndexPtr& weight_index() const { return weights_; }

 private:
  ExactWeightSampler(JoinSpecPtr join, ExactWeightIndexPtr weights)
      : JoinSampler(std::move(join)), weights_(std::move(weights)) {}

  /// Accepts a complete walk (`rows` in join() relation order) unless it
  /// breaks a non-tree constraint or a predicate, counting the outcome.
  bool Accept(uint32_t* rows);

  ExactWeightIndexPtr weights_;
  // Scratch reused across TrySampleBatch calls (sized on first use).
  std::vector<uint32_t> batch_rows_;   // [relation * count + walk]
  std::vector<uint32_t> batch_begin_;  // per walk: group slice begin
  std::vector<uint32_t> batch_len_;    // per walk: group slice length
  std::vector<uint8_t> batch_alive_;
};

}  // namespace suj

#endif  // SUJ_JOIN_EXACT_WEIGHT_H_
