// Value: the cell type of the storage layer.
//
// A Value is a tagged union over the three column types the workloads need
// (INT64, DOUBLE, STRING). Values are totally ordered and hashable so they
// can serve as join keys and as components of the canonical tuple encoding
// (`t.val` in the paper) that defines set-union identity.

#ifndef SUJ_STORAGE_VALUE_H_
#define SUJ_STORAGE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace suj {

/// Physical type of a column / value.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

const char* ValueTypeName(ValueType type);

/// \brief A single cell value.
class Value {
 public:
  /// Default: INT64 zero (needed by container resizing only).
  Value() : type_(ValueType::kInt64), int_(0), double_(0) {}

  static Value Int64(int64_t v) {
    Value out;
    out.type_ = ValueType::kInt64;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = ValueType::kDouble;
    out.double_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = ValueType::kString;
    out.string_ = std::move(v);
    return out;
  }

  ValueType type() const { return type_; }
  int64_t int64() const { return int_; }
  double dbl() const { return double_; }
  const std::string& str() const { return string_; }

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;

  /// 64-bit hash, consistent with operator==.
  uint64_t Hash() const;

  /// Appends a self-delimiting binary encoding to `out`. Distinct values
  /// always produce distinct encodings (type tag + fixed width or length
  /// prefix), which makes the concatenated tuple encoding injective.
  void EncodeTo(std::string* out) const;

  /// Human-readable rendering for examples and debugging.
  std::string ToString() const;

 private:
  ValueType type_;
  int64_t int_;
  double double_;
  std::string string_;
};

/// \brief A typed cell read in place: a Value's payload or one cell of a
/// relation column, with any string borrowed (it must outlive the
/// reference). Encodes exactly as the Value it stands for; its equality
/// is encoding identity.
struct CellRef {
  ValueType type = ValueType::kInt64;
  int64_t i = 0;
  double d = 0.0;
  const std::string* s = nullptr;

  static CellRef Of(const Value& v) {
    return CellRef{v.type(), v.int64(), v.dbl(), &v.str()};
  }

  /// An owning copy.
  Value ToValue() const;

  /// Appends the bytes Value::EncodeTo appends for the same value.
  void EncodeTo(std::string* out) const;

  /// True iff both cells encode to the same bytes: the same type, int64
  /// and double payloads bitwise equal (so -0.0 differs from 0.0 and NaNs
  /// with equal payloads match), strings byte for byte.
  bool SameEncoding(const CellRef& other) const {
    if (type != other.type) return false;
    switch (type) {
      case ValueType::kInt64:
        return i == other.i;
      case ValueType::kDouble:
        return std::memcmp(&d, &other.d, sizeof(d)) == 0;
      case ValueType::kString:
        return *s == *other.s;
    }
    return false;
  }
};

/// Hasher for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace suj

#endif  // SUJ_STORAGE_VALUE_H_
