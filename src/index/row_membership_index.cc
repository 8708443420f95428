#include "index/row_membership_index.h"

#include <cstring>

#include "common/logging.h"

namespace suj {

namespace {

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

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
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

inline uint64_t CombineValue(uint64_t h, const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return Combine(h, static_cast<uint64_t>(v.int64()));
    case ValueType::kDouble:
      return Combine(h, DoubleBits(v.dbl()));
    case ValueType::kString:
      return CombineBytes(h, v.str());
  }
  return h;
}

}  // namespace

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
  std::vector<Column> columns;
  columns.reserve(attributes.size());
  for (const auto& a : attributes) {
    int idx = rel.schema().FieldIndex(a);
    if (idx < 0) {
      return Status::NotFound("relation '" + rel.name() +
                              "' has no attribute '" + a + "'");
    }
    Column c;
    c.type = rel.schema().field(idx).type;
    switch (c.type) {
      case ValueType::kInt64:
        c.ints = rel.Int64Column(idx).data();
        break;
      case ValueType::kDouble:
        c.doubles = rel.DoubleColumn(idx).data();
        break;
      case ValueType::kString:
        c.strings = rel.StringColumn(idx).data();
        break;
    }
    columns.push_back(c);
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
  uint64_t h = kSeed;
  for (const Column& c : columns_) {
    switch (c.type) {
      case ValueType::kInt64:
        h = Combine(h, static_cast<uint64_t>(c.ints[row]));
        break;
      case ValueType::kDouble:
        h = Combine(h, DoubleBits(c.doubles[row]));
        break;
      case ValueType::kString:
        h = CombineBytes(h, c.strings[row]);
        break;
    }
  }
  return Finalize(h);
}

bool RowMembershipIndex::RowsEqual(uint32_t a, uint32_t b) const {
  for (const Column& c : columns_) {
    switch (c.type) {
      case ValueType::kInt64:
        if (c.ints[a] != c.ints[b]) return false;
        break;
      case ValueType::kDouble:
        if (DoubleBits(c.doubles[a]) != DoubleBits(c.doubles[b])) {
          return false;
        }
        break;
      case ValueType::kString:
        if (c.strings[a] != c.strings[b]) return false;
        break;
    }
  }
  return true;
}

template <typename ValueAt>
bool RowMembershipIndex::Probe(size_t arity, const ValueAt& value_at) const {
  if (arity != columns_.size()) return false;
  uint64_t h = kSeed;
  for (size_t k = 0; k < arity; ++k) {
    const Value& v = value_at(k);
    // A different type tag never encodes equal, whatever the payload.
    if (v.type() != columns_[k].type) return false;
    h = CombineValue(h, v);
  }
  h = Finalize(h);
  const uint32_t tag = static_cast<uint32_t>(h >> 32);
  for (size_t i = h & mask_;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.row == kEmptySlot) return false;
    if (slot.tag != tag) continue;
    bool equal = true;
    for (size_t k = 0; k < arity && equal; ++k) {
      const Column& c = columns_[k];
      const Value& v = value_at(k);
      switch (c.type) {
        case ValueType::kInt64:
          equal = c.ints[slot.row] == v.int64();
          break;
        case ValueType::kDouble:
          equal = DoubleBits(c.doubles[slot.row]) == DoubleBits(v.dbl());
          break;
        case ValueType::kString:
          equal = c.strings[slot.row] == v.str();
          break;
      }
    }
    if (equal) return true;
  }
}

bool RowMembershipIndex::Contains(const Tuple& projected) const {
  return Probe(projected.size(),
               [&](size_t k) -> const Value& { return projected.value(k); });
}

bool RowMembershipIndex::Contains(const Tuple& t,
                                  const std::vector<int>& fields) const {
  return Probe(fields.size(), [&](size_t k) -> const Value& {
    SUJ_DCHECK(fields[k] >= 0 && static_cast<size_t>(fields[k]) < t.size());
    return t.value(fields[k]);
  });
}

}  // namespace suj
