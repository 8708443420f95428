// RowMembershipIndex: O(1) probe for "does this projected row exist in R?".
//
// This powers the membership oracle `t in J` used by the random-walk overlap
// estimator (§6.2) and by the centralized mode of the union sampler: for a
// natural join J over relations R_1..R_m, an output tuple t is in J iff for
// every R_k, the projection of t onto attrs(R_k) is a row of R_k.
//
// The index is an open-addressing (linear probing) table of (hash tag, row
// id) slots over the relation's typed column vectors: a build hashes each
// row's attribute cells in place, and a probe hashes typed cells (CellRef)
// and confirms a tag hit by comparing the candidate row's cells directly.
// A probe's cells may come from a Tuple's values or straight from another
// relation's columns (a row draw, join/join_spec.h); nothing is projected,
// encoded or allocated on either side.
//
// Equality is encoding identity, i.e. exactly the equality of the
// canonical `Tuple::Encode()` bytes: the same value type at every
// position, int64 and double cells compared bitwise (so -0.0 != 0.0 and
// NaNs with equal payloads match), strings compared byte for byte.

#ifndef SUJ_INDEX_ROW_MEMBERSHIP_INDEX_H_
#define SUJ_INDEX_ROW_MEMBERSHIP_INDEX_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/relation.h"

namespace suj {

namespace row_hash {

// The table's own hash: never persisted or compared across processes,
// only required to agree between a column cell and the equal Value.
constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;

inline uint64_t Combine(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 32);
}

inline uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t CombineBytes(uint64_t h, const std::string& s) {
  // The length goes in first, so a zero-padded tail cannot collide with
  // a longer string by construction (equality is still decided by bytes).
  h = Combine(h, s.size());
  const char* p = s.data();
  size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = Combine(h, word);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = Combine(h, word);
  }
  return h;
}

inline uint64_t CombineCell(uint64_t h, const CellRef& c) {
  switch (c.type) {
    case ValueType::kInt64:
      return Combine(h, static_cast<uint64_t>(c.i));
    case ValueType::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &c.d, sizeof(bits));
      return Combine(h, bits);
    }
    case ValueType::kString:
      return CombineBytes(h, *c.s);
  }
  return h;
}

}  // namespace row_hash

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

  /// True iff some row projects to the cells `cell_at(0..arity)` (a
  /// callable returning the CellRef of attribute k, in the attribute
  /// order passed to Build). Inlined so a caller's accessor can read its
  /// cells from wherever they live: a Tuple's values, or another
  /// relation's columns.
  template <typename CellAt>
  bool ContainsCells(size_t arity, const CellAt& cell_at) const {
    if (arity != columns_.size()) return false;
    uint64_t h = row_hash::kSeed;
    for (size_t k = 0; k < arity; ++k) {
      const CellRef c = cell_at(k);
      // A different type tag never encodes equal, whatever the payload.
      if (c.type != columns_[k].type) return false;
      h = row_hash::CombineCell(h, c);
    }
    h = row_hash::Finalize(h);
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.row == kEmptySlot) return false;
      if (slot.tag != tag) continue;
      bool equal = true;
      for (size_t k = 0; k < arity && equal; ++k) {
        equal = columns_[k].At(slot.row).SameEncoding(cell_at(k));
      }
      if (equal) return true;
    }
  }

  const std::vector<std::string>& attributes() const { return attributes_; }
  size_t NumDistinctRows() const { return num_distinct_; }

 private:
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

  RelationPtr relation_;
  std::vector<std::string> attributes_;
  std::vector<ColumnRef> columns_;  // parallel to attributes_
  std::vector<Slot> slots_;      // power-of-two size, at most half full
  size_t mask_ = 0;              // slots_.size() - 1
  size_t num_distinct_ = 0;
};

using RowMembershipIndexPtr = std::shared_ptr<const RowMembershipIndex>;

}  // namespace suj

#endif  // SUJ_INDEX_ROW_MEMBERSHIP_INDEX_H_
