// RowMembershipIndex: O(1) probe for "does this projected row exist in R?".
//
// This powers the membership oracle `t in J` used by the random-walk overlap
// estimator (§6.2) and by the centralized mode of the union sampler: for a
// natural join J over relations R_1..R_m, an output tuple t is in J iff for
// every R_k, the projection of t onto attrs(R_k) is a row of R_k.
//
// The index is an open-addressing (linear probing) table of (hash tag, row
// id) slots over the relation's typed column vectors: a build hashes each
// row's attribute cells in place, and a probe hashes the probe values in
// place and confirms a tag hit by comparing the candidate row's cells
// directly. Nothing is projected, encoded or allocated on either side.
//
// Equality is encoding identity, i.e. exactly the equality of the
// canonical `Tuple::Encode()` bytes: the same value type at every
// position, int64 and double cells compared bitwise (so -0.0 != 0.0 and
// NaNs with equal payloads match), strings compared byte for byte.

#ifndef SUJ_INDEX_ROW_MEMBERSHIP_INDEX_H_
#define SUJ_INDEX_ROW_MEMBERSHIP_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/relation.h"

namespace suj {

/// \brief Hash table of a relation's distinct rows projected onto a subset
/// of its attributes, keyed by row id.
class RowMembershipIndex {
 public:
  /// Builds the index over `attributes` of `relation` (attributes must all
  /// exist; order given here defines the probe-tuple order). Row ids are
  /// 32-bit, so relations of 2^32 - 1 rows or more are refused.
  static Result<std::shared_ptr<const RowMembershipIndex>> Build(
      RelationPtr relation, const std::vector<std::string>& attributes);

  /// True iff some row of the relation projects to `projected` (values in
  /// the attribute order passed to Build).
  bool Contains(const Tuple& projected) const;

  /// True iff some row projects to `t`'s values at `fields` (`fields[k]`
  /// is the position in `t` of attribute k). Same answer as
  /// `Contains(t.Project(fields))`, without building the projection.
  bool Contains(const Tuple& t, const std::vector<int>& fields) const;

  const std::vector<std::string>& attributes() const { return attributes_; }
  size_t NumDistinctRows() const { return num_distinct_; }

 private:
  /// One indexed attribute: its type and its column's storage (only the
  /// pointer matching `type` is set; the relation keeps it alive).
  struct Column {
    ValueType type = ValueType::kInt64;
    const int64_t* ints = nullptr;
    const double* doubles = nullptr;
    const std::string* strings = nullptr;
  };
  /// Upper 32 hash bits and the row id; row == kEmptySlot marks a free
  /// slot.
  struct Slot {
    uint32_t tag;
    uint32_t row;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  RowMembershipIndex(RelationPtr relation,
                     std::vector<std::string> attributes)
      : relation_(std::move(relation)), attributes_(std::move(attributes)) {}

  uint64_t HashRow(uint32_t row) const;
  bool RowsEqual(uint32_t a, uint32_t b) const;
  template <typename ValueAt>
  bool Probe(size_t arity, const ValueAt& value_at) const;

  RelationPtr relation_;
  std::vector<std::string> attributes_;
  std::vector<Column> columns_;  // parallel to attributes_
  std::vector<Slot> slots_;      // power-of-two size, at most half full
  size_t mask_ = 0;              // slots_.size() - 1
  size_t num_distinct_ = 0;
};

using RowMembershipIndexPtr = std::shared_ptr<const RowMembershipIndex>;

}  // namespace suj

#endif  // SUJ_INDEX_ROW_MEMBERSHIP_INDEX_H_
