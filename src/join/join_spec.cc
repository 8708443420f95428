#include "join/join_spec.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace suj {

Result<std::shared_ptr<const JoinSpec>> JoinSpec::Create(
    std::string name, std::vector<RelationPtr> relations,
    std::vector<JoinEdge> declared_edges,
    std::vector<Predicate> output_predicates) {
  auto graph = JoinGraph::Build(relations, std::move(declared_edges));
  if (!graph.ok()) return graph.status();

  // Output schema: distinct attributes sorted by name; types of same-named
  // attributes must agree across relations.
  std::map<std::string, ValueType> attrs;
  for (const auto& rel : relations) {
    for (const auto& f : rel->schema().fields()) {
      auto it = attrs.find(f.name);
      if (it == attrs.end()) {
        attrs.emplace(f.name, f.type);
      } else if (it->second != f.type) {
        return Status::InvalidArgument(
            "attribute '" + f.name + "' has conflicting types across "
            "relations of join '" + name + "'");
      }
    }
  }
  std::vector<Field> fields;
  fields.reserve(attrs.size());
  for (const auto& [attr_name, type] : attrs) {
    fields.push_back({attr_name, type});
  }

  if (relations.size() > static_cast<size_t>(kMaxJoinRelations) ||
      fields.size() > UINT16_MAX) {
    return Status::InvalidArgument("join '" + name +
                                   "' has too many relations or attributes");
  }
  return std::shared_ptr<const JoinSpec>(new JoinSpec(
      std::move(name), std::move(relations), std::move(graph).value(),
      Schema(std::move(fields)), std::move(output_predicates)));
}

JoinSpec::JoinSpec(std::string name, std::vector<RelationPtr> relations,
                   JoinGraph graph, Schema output_schema,
                   std::vector<Predicate> output_predicates)
    : name_(std::move(name)),
      relations_(std::move(relations)),
      graph_(std::move(graph)),
      output_schema_(std::move(output_schema)),
      output_predicates_(std::move(output_predicates)) {
  for (const auto& p : output_predicates_) {
    predicate_fields_.push_back(output_schema_.FieldIndex(p.attribute()));
  }
  // In tree order, the first relation carrying an output field writes it;
  // later carriers only check it. Sampling walks probe a child's group
  // from its tree parent's row even when the parent is not an edge
  // attribute's first assigner: tree edge attributes are exactly those
  // parent and child share, so the parent's checks reject any walk whose
  // parent value disagrees with the assigned one.
  sources_.resize(output_schema_.num_fields());
  checks_.assign(relations_.size(), {});
  std::vector<bool> assigned(output_schema_.num_fields(), false);
  for (int r : graph_.tree_order()) {
    const Relation& rel = *relations_[r];
    for (size_t c = 0; c < rel.schema().num_fields(); ++c) {
      const int out = output_schema_.FieldIndex(rel.schema().field(c).name);
      SUJ_CHECK(out >= 0);
      if (!assigned[out]) {
        assigned[out] = true;
        sources_[out] = FieldSource{static_cast<uint16_t>(r), rel.Column(c)};
      } else {
        checks_[r].push_back(
            FieldCheck{rel.Column(c), static_cast<uint16_t>(out)});
      }
    }
  }
}

bool JoinSpec::SatisfiesPredicates(const Tuple& tuple) const {
  for (const auto& p : output_predicates_) {
    if (!p.EvalOnTuple(tuple, output_schema_)) return false;
  }
  return true;
}

bool JoinSpec::SatisfiesPredicates(const RowDraw& draw) const {
  for (size_t i = 0; i < output_predicates_.size(); ++i) {
    // A predicate on an attribute the schema lacks does not apply.
    const int field = predicate_fields_[i];
    if (field >= 0 && !output_predicates_[i].Eval(draw.Cell(field).ToValue())) {
      return false;
    }
  }
  return true;
}

bool JoinSpec::PassesChecks(const uint32_t* rows) const {
  for (size_t r = 0; r < checks_.size(); ++r) {
    for (const FieldCheck& check : checks_[r]) {
      const CellRef mine = check.column.At(rows[r]);
      if (!mine.SameEncoding(Cell(rows, check.field)) ||
          (mine.type == ValueType::kDouble && mine.d != mine.d)) {
        return false;
      }
    }
  }
  return true;
}

Tuple RowDraw::Materialize() const {
  const size_t n = spec->output_schema().num_fields();
  std::vector<Value> values;
  values.reserve(n);
  for (size_t f = 0; f < n; ++f) {
    values.push_back(Cell(static_cast<int>(f)).ToValue());
  }
  return Tuple(std::move(values));
}

void RowDraw::EncodeTo(std::string* out) const {
  const size_t n = spec->output_schema().num_fields();
  for (size_t f = 0; f < n; ++f) Cell(static_cast<int>(f)).EncodeTo(out);
}

std::string JoinSpec::ToString() const {
  std::string out = name_;
  out += " [";
  out += JoinTypeName(type());
  out += "]: ";
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (i > 0) out += " |><| ";
    out += relations_[i]->name();
  }
  return out;
}

Status ValidateUnionCompatible(const std::vector<JoinSpecPtr>& joins) {
  if (joins.empty()) {
    return Status::InvalidArgument("union needs at least one join");
  }
  for (const auto& j : joins) {
    if (j == nullptr) return Status::InvalidArgument("null join in union");
  }
  const Schema& schema = joins[0]->output_schema();
  for (size_t i = 1; i < joins.size(); ++i) {
    if (joins[i]->output_schema() != schema) {
      return Status::InvalidArgument(
          "join '" + joins[i]->name() + "' output schema " +
          joins[i]->output_schema().ToString() +
          " differs from '" + joins[0]->name() + "' schema " +
          schema.ToString());
    }
  }
  return Status::OK();
}

}  // namespace suj
