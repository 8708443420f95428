// JoinSpec: immutable description of one multi-way natural join.
//
// A JoinSpec is the unit the union framework works over: the paper's
// S = {J_1..J_n} is a vector of JoinSpecs sharing an output schema. The spec
// owns the relation list, the structural analysis (JoinGraph), the output
// schema (union of attributes in sorted name order, so equal-attribute joins
// produce byte-identical tuple encodings), and optional on-the-fly selection
// predicates evaluated on output tuples (§8.3).
//
// The spec also owns the join's materialization plan. A sampler's draw is
// a RowDraw: the spec plus the chosen row of each relation. The plan says
// which relation column supplies each output field (its first assigner in
// spanning-tree order) and which later carriers must agree with it, so a
// draw can be checked, probed, encoded or turned into a Tuple straight
// from the columns, without resolving a field name.

#ifndef SUJ_JOIN_JOIN_SPEC_H_
#define SUJ_JOIN_JOIN_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "join/join_graph.h"
#include "join/predicate.h"
#include "storage/relation.h"

namespace suj {

class JoinSpec;

/// Most relations one join may have: samplers keep a walk's rows in
/// fixed-size stack arrays.
constexpr int kMaxJoinRelations = 64;

/// \brief One draw from a join, before materialization: the spec it was
/// drawn from and the chosen row of each of its relations, in the spec's
/// relation order (`rows` holds spec->num_relations() slots, which the
/// caller owns). The cells read through it borrow the spec's relations.
struct RowDraw {
  const JoinSpec* spec = nullptr;
  uint32_t* rows = nullptr;

  /// Output field `field` of the drawn tuple, read in place.
  CellRef Cell(int field) const;
  /// The drawn tuple (over the spec's output schema).
  Tuple Materialize() const;
  /// Appends Materialize().Encode()'s bytes without building the tuple.
  void EncodeTo(std::string* out) const;
};

/// \brief One join J_j = R_1 |><| R_2 |><| ... |><| R_m.
class JoinSpec {
 public:
  /// Creates and validates a join over `relations`.
  ///
  /// \param name        label used in reports.
  /// \param relations   base relations (assumed duplicate-free, per §3).
  /// \param declared_edges  optional structural edges; inferred from shared
  ///                    attribute names when empty.
  /// \param output_predicates  selection predicates applied to output tuples
  ///                    on the fly (pushdown filtering is done by the caller
  ///                    with FilterRelation before building the spec).
  static Result<std::shared_ptr<const JoinSpec>> Create(
      std::string name, std::vector<RelationPtr> relations,
      std::vector<JoinEdge> declared_edges = {},
      std::vector<Predicate> output_predicates = {});

  const std::string& name() const { return name_; }
  const std::vector<RelationPtr>& relations() const { return relations_; }
  const RelationPtr& relation(int i) const { return relations_[i]; }
  int num_relations() const { return static_cast<int>(relations_.size()); }

  const JoinGraph& graph() const { return graph_; }
  JoinType type() const { return graph_.type(); }

  /// Output schema: every distinct attribute, sorted by name. Two joins are
  /// union-compatible iff their output schemas are equal.
  const Schema& output_schema() const { return output_schema_; }

  const std::vector<Predicate>& output_predicates() const {
    return output_predicates_;
  }
  bool has_predicates() const { return !output_predicates_.empty(); }

  /// True iff `tuple` (over output_schema()) passes all predicates.
  bool SatisfiesPredicates(const Tuple& tuple) const;
  /// The same test on a draw from any union-compatible join.
  bool SatisfiesPredicates(const RowDraw& draw) const;

  /// True iff the spanning tree misses a join constraint (cyclic joins),
  /// so a tree walk's rows may disagree on a shared attribute.
  bool needs_checks() const { return !graph_.tree_captures_all_constraints(); }

  /// Output field `field` of the draw with relation rows `rows`: its first
  /// assigner's cell.
  CellRef Cell(const uint32_t* rows, int field) const {
    const FieldSource& src = sources_[field];
    return src.column.At(rows[src.relation]);
  }
  /// True iff every later carrier of an output field holds the same
  /// encoding as its first assigner, and no such double is NaN (a NaN
  /// never equals itself as a join value). Only cyclic walks can fail it
  /// (needs_checks()); every draw that passes is a member of the join by
  /// encoding identity.
  bool PassesChecks(const uint32_t* rows) const;

  std::string ToString() const;

 private:
  /// Where an output field's value comes from.
  struct FieldSource {
    uint16_t relation = 0;
    ColumnRef column;
  };
  /// A later carrier's column that must match an assigned output field.
  struct FieldCheck {
    ColumnRef column;
    uint16_t field = 0;
  };

  JoinSpec(std::string name, std::vector<RelationPtr> relations,
           JoinGraph graph, Schema output_schema,
           std::vector<Predicate> output_predicates);

  std::string name_;
  std::vector<RelationPtr> relations_;
  JoinGraph graph_;
  Schema output_schema_;
  std::vector<Predicate> output_predicates_;
  std::vector<int> predicate_fields_;  // output field per predicate, or -1
  // The materialization plan, in spanning-tree order: each output field's
  // first assigner (sources_) and, per relation, the fields an earlier
  // relation assigned that its own cells must match (checks_).
  std::vector<FieldSource> sources_;  // per output field
  std::vector<std::vector<FieldCheck>> checks_;  // per relation
};

using JoinSpecPtr = std::shared_ptr<const JoinSpec>;

inline CellRef RowDraw::Cell(int field) const {
  return spec->Cell(rows, field);
}

/// Validates that all joins share one output schema (the precondition of
/// every union algorithm; §2 assumes it).
Status ValidateUnionCompatible(const std::vector<JoinSpecPtr>& joins);

}  // namespace suj

#endif  // SUJ_JOIN_JOIN_SPEC_H_
