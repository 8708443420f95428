#include "storage/relation.h"

#include "common/logging.h"

namespace suj {

Relation::Relation(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  size_t n = schema_.num_fields();
  int_cols_.resize(n);
  double_cols_.resize(n);
  string_cols_.resize(n);
}

Value Relation::GetValue(size_t row, size_t col) const {
  SUJ_CHECK(row < num_rows_ && col < schema_.num_fields());
  switch (schema_.field(col).type) {
    case ValueType::kInt64:
      return Value::Int64(int_cols_[col][row]);
    case ValueType::kDouble:
      return Value::Double(double_cols_[col][row]);
    case ValueType::kString:
      return Value::String(string_cols_[col][row]);
  }
  return Value();
}

int64_t Relation::GetInt64(size_t row, size_t col) const {
  SUJ_CHECK(schema_.field(col).type == ValueType::kInt64);
  return int_cols_[col][row];
}

double Relation::GetDouble(size_t row, size_t col) const {
  SUJ_CHECK(schema_.field(col).type == ValueType::kDouble);
  return double_cols_[col][row];
}

const std::string& Relation::GetString(size_t row, size_t col) const {
  SUJ_CHECK(schema_.field(col).type == ValueType::kString);
  return string_cols_[col][row];
}

Tuple Relation::GetTuple(size_t row) const {
  std::vector<Value> values;
  values.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    values.push_back(GetValue(row, c));
  }
  return Tuple(std::move(values));
}

Tuple Relation::ProjectRow(size_t row, const std::vector<int>& cols) const {
  std::vector<Value> values;
  values.reserve(cols.size());
  for (int c : cols) {
    values.push_back(GetValue(row, static_cast<size_t>(c)));
  }
  return Tuple(std::move(values));
}

ColumnRef Relation::Column(size_t col) const {
  ColumnRef c;
  c.type = schema_.field(col).type;
  switch (c.type) {
    case ValueType::kInt64:
      c.ints = int_cols_[col].data();
      break;
    case ValueType::kDouble:
      c.doubles = double_cols_[col].data();
      break;
    case ValueType::kString:
      c.strings = string_cols_[col].data();
      break;
  }
  return c;
}

const std::vector<int64_t>& Relation::Int64Column(size_t col) const {
  SUJ_CHECK(schema_.field(col).type == ValueType::kInt64);
  return int_cols_[col];
}

const std::vector<double>& Relation::DoubleColumn(size_t col) const {
  SUJ_CHECK(schema_.field(col).type == ValueType::kDouble);
  return double_cols_[col];
}

const std::vector<std::string>& Relation::StringColumn(size_t col) const {
  SUJ_CHECK(schema_.field(col).type == ValueType::kString);
  return string_cols_[col];
}

RelationBuilder::RelationBuilder(std::string name, Schema schema)
    : relation_(std::make_shared<Relation>(std::move(name),
                                           std::move(schema))) {}

Status RelationBuilder::AppendTuple(const Tuple& tuple) {
  const Schema& schema = relation_->schema();
  if (tuple.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " +
        std::to_string(schema.num_fields()));
  }
  for (size_t c = 0; c < tuple.size(); ++c) {
    if (tuple.value(c).type() != schema.field(c).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema.field(c).name + "': expected " +
          ValueTypeName(schema.field(c).type) + ", got " +
          ValueTypeName(tuple.value(c).type()));
    }
  }
  for (size_t c = 0; c < tuple.size(); ++c) {
    const Value& v = tuple.value(c);
    switch (v.type()) {
      case ValueType::kInt64:
        relation_->int_cols_[c].push_back(v.int64());
        break;
      case ValueType::kDouble:
        relation_->double_cols_[c].push_back(v.dbl());
        break;
      case ValueType::kString:
        relation_->string_cols_[c].push_back(v.str());
        break;
    }
  }
  relation_->num_rows_++;
  return Status::OK();
}

Status RelationBuilder::AppendRow(std::vector<Value> values) {
  return AppendTuple(Tuple(std::move(values)));
}

RelationPtr RelationBuilder::Finish() {
  RelationPtr out = relation_;
  relation_ = std::make_shared<Relation>(out->name(), out->schema());
  return out;
}

}  // namespace suj
