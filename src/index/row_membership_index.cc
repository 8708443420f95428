#include "index/row_membership_index.h"

#include "common/logging.h"

namespace suj {

Result<std::shared_ptr<const RowMembershipIndex>> RowMembershipIndex::Build(
    RelationPtr relation, const std::vector<std::string>& attributes) {
  if (relation == nullptr) {
    return Status::InvalidArgument("null relation");
  }
  const Relation& rel = *relation;
  if (rel.num_rows() >= kEmptySlot) {
    return Status::OutOfRange("relation '" + rel.name() +
                              "' has too many rows for 32-bit row ids");
  }
  std::vector<ColumnRef> columns;
  columns.reserve(attributes.size());
  for (const auto& a : attributes) {
    int idx = rel.schema().FieldIndex(a);
    if (idx < 0) {
      return Status::NotFound("relation '" + rel.name() +
                              "' has no attribute '" + a + "'");
    }
    columns.push_back(rel.Column(idx));
  }
  auto index = std::shared_ptr<RowMembershipIndex>(
      new RowMembershipIndex(std::move(relation), attributes));
  index->columns_ = std::move(columns);

  const uint32_t rows = static_cast<uint32_t>(rel.num_rows());
  size_t capacity = 2;
  while (capacity < 2 * static_cast<size_t>(rows)) capacity <<= 1;
  index->slots_.assign(capacity, Slot{0, kEmptySlot});
  index->mask_ = capacity - 1;
  for (uint32_t row = 0; row < rows; ++row) {
    const uint64_t h = index->HashRow(row);
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t i = h & index->mask_;; i = (i + 1) & index->mask_) {
      Slot& slot = index->slots_[i];
      if (slot.row == kEmptySlot) {
        slot = Slot{tag, row};
        ++index->num_distinct_;
        break;
      }
      if (slot.tag == tag && index->RowsEqual(slot.row, row)) break;
    }
  }
  return std::shared_ptr<const RowMembershipIndex>(index);
}

uint64_t RowMembershipIndex::HashRow(uint32_t row) const {
  uint64_t h = row_hash::kSeed;
  for (const ColumnRef& c : columns_) h = row_hash::CombineCell(h, c.At(row));
  return row_hash::Finalize(h);
}

bool RowMembershipIndex::RowsEqual(uint32_t a, uint32_t b) const {
  for (const ColumnRef& c : columns_) {
    if (!c.At(a).SameEncoding(c.At(b))) return false;
  }
  return true;
}

bool RowMembershipIndex::Contains(const Tuple& projected) const {
  return ContainsCells(projected.size(),
               [&](size_t k) { return CellRef::Of(projected.value(k)); });
}

bool RowMembershipIndex::Contains(const Tuple& t,
                                  const std::vector<int>& fields) const {
  return ContainsCells(fields.size(), [&](size_t k) {
    SUJ_CHECK(fields[k] >= 0 && static_cast<size_t>(fields[k]) < t.size());
    return CellRef::Of(t.value(fields[k]));
  });
}


}  // namespace suj
