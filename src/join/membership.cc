#include "join/membership.h"

#include "common/logging.h"

namespace suj {

Result<std::shared_ptr<const JoinMembershipProber>>
JoinMembershipProber::Build(JoinSpecPtr join) {
  if (join == nullptr) return Status::InvalidArgument("null join");
  auto prober = std::shared_ptr<JoinMembershipProber>(
      new JoinMembershipProber(std::move(join)));
  const JoinSpec& spec = *prober->join_;
  const Schema& out_schema = spec.output_schema();
  for (const auto& rel : spec.relations()) {
    std::vector<std::string> attrs = rel->schema().FieldNames();
    auto index = RowMembershipIndex::Build(rel, attrs);
    if (!index.ok()) return index.status();
    prober->indexes_.push_back(std::move(index).value());
    std::vector<int> fields;
    fields.reserve(attrs.size());
    for (const auto& a : attrs) {
      int idx = out_schema.FieldIndex(a);
      if (idx < 0) {
        return Status::Internal("attribute '" + a +
                                "' missing from output schema");
      }
      fields.push_back(idx);
    }
    prober->projection_fields_.push_back(std::move(fields));
  }
  return std::shared_ptr<const JoinMembershipProber>(prober);
}

bool JoinMembershipProber::Contains(const Tuple& output_tuple) const {
  if (!join_->SatisfiesPredicates(output_tuple)) return false;
  for (size_t r = 0; r < indexes_.size(); ++r) {
    if (!indexes_[r]->Contains(output_tuple, projection_fields_[r])) {
      return false;
    }
  }
  return true;
}

bool JoinMembershipProber::Contains(const RowDraw& draw) const {
  if (join_->has_predicates() && !join_->SatisfiesPredicates(draw)) {
    return false;
  }
  for (size_t r = 0; r < indexes_.size(); ++r) {
    const std::vector<int>& fields = projection_fields_[r];
    if (!indexes_[r]->ContainsCells(
            fields.size(), [&](size_t k) { return draw.Cell(fields[k]); })) {
      return false;
    }
  }
  return true;
}

int FirstOwner(const std::vector<JoinMembershipProberPtr>& probers,
               const Tuple& tuple) {
  for (size_t i = 0; i < probers.size(); ++i) {
    if (probers[i]->Contains(tuple)) return static_cast<int>(i);
  }
  return -1;
}

bool OwnedBy(const std::vector<JoinMembershipProberPtr>& probers,
             const RowDraw& draw, int j) {
  SUJ_DCHECK(probers[j]->Contains(draw));
  for (int i = 0; i < j; ++i) {
    if (probers[i]->Contains(draw)) return false;
  }
  return true;
}

bool OwnedBy(const std::vector<JoinMembershipProberPtr>& probers,
             const Tuple& tuple, int j) {
  SUJ_DCHECK(probers[j]->Contains(tuple));
  for (int i = 0; i < j; ++i) {
    if (probers[i]->Contains(tuple)) return false;
  }
  return true;
}

Result<std::vector<JoinMembershipProberPtr>> BuildProbers(
    const std::vector<JoinSpecPtr>& joins) {
  std::vector<JoinMembershipProberPtr> probers;
  probers.reserve(joins.size());
  for (const auto& j : joins) {
    auto p = JoinMembershipProber::Build(j);
    if (!p.ok()) return p.status();
    probers.push_back(std::move(p).value());
  }
  return probers;
}

}  // namespace suj
