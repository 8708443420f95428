// Relation: columnar in-memory table.
//
// Storage is column-major with typed columns (like Arrow arrays) so scans,
// histogram builds, and index builds touch contiguous memory. Rows are
// addressed by index; samplers pick uniform row ids in O(1).

#ifndef SUJ_STORAGE_RELATION_H_
#define SUJ_STORAGE_RELATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace suj {

/// \brief One column's typed storage, for reading cells in place. Only the
/// pointer matching `type` is set; the relation keeps the storage alive.
struct ColumnRef {
  ValueType type = ValueType::kInt64;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const std::string* strings = nullptr;

  CellRef At(size_t row) const {
    CellRef c;
    c.type = type;
    switch (type) {
      case ValueType::kInt64:
        c.i = ints[row];
        break;
      case ValueType::kDouble:
        c.d = doubles[row];
        break;
      case ValueType::kString:
        c.s = &strings[row];
        break;
    }
    return c;
  }
};

/// \brief An immutable, named, columnar table.
///
/// Build with RelationBuilder; once built, Relations are shared read-only
/// (std::shared_ptr<const Relation>) across indexes, samplers, and joins.
class Relation {
 public:
  Relation(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Cell accessors. `col` is a schema index; `row` in [0, num_rows()).
  Value GetValue(size_t row, size_t col) const;
  int64_t GetInt64(size_t row, size_t col) const;
  double GetDouble(size_t row, size_t col) const;
  const std::string& GetString(size_t row, size_t col) const;

  /// Materializes row `row` as a Tuple over schema().
  Tuple GetTuple(size_t row) const;

  /// Materializes the projection of row `row` onto the given column indices.
  Tuple ProjectRow(size_t row, const std::vector<int>& cols) const;

  /// Column `col`'s storage, typed by its schema field.
  ColumnRef Column(size_t col) const;

  /// Raw column storage (used by histogram/index builds for fast scans).
  const std::vector<int64_t>& Int64Column(size_t col) const;
  const std::vector<double>& DoubleColumn(size_t col) const;
  const std::vector<std::string>& StringColumn(size_t col) const;

 private:
  friend class RelationBuilder;

  std::string name_;
  Schema schema_;
  size_t num_rows_ = 0;
  // Parallel to schema fields; only the vector matching the field type is
  // populated for each column.
  std::vector<std::vector<int64_t>> int_cols_;
  std::vector<std::vector<double>> double_cols_;
  std::vector<std::vector<std::string>> string_cols_;
};

using RelationPtr = std::shared_ptr<const Relation>;

/// \brief Row-at-a-time builder for Relation.
class RelationBuilder {
 public:
  RelationBuilder(std::string name, Schema schema);

  /// Appends a row. The tuple must match the schema arity and types.
  Status AppendTuple(const Tuple& tuple);

  /// Appends a row of values (checked like AppendTuple).
  Status AppendRow(std::vector<Value> values);

  size_t num_rows() const { return relation_->num_rows_; }

  /// Finalizes and returns the relation. The builder is left empty.
  RelationPtr Finish();

 private:
  std::shared_ptr<Relation> relation_;
};

}  // namespace suj

#endif  // SUJ_STORAGE_RELATION_H_
