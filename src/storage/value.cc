#include "storage/value.h"

#include <cstring>

#include "common/logging.h"

namespace suj {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kInt64:
      return int_ == other.int_;
    case ValueType::kDouble:
      return double_ == other.double_;
    case ValueType::kString:
      return string_ == other.string_;
  }
  return false;
}

bool Value::operator<(const Value& other) const {
  if (type_ != other.type_) return type_ < other.type_;
  switch (type_) {
    case ValueType::kInt64:
      return int_ < other.int_;
    case ValueType::kDouble:
      return double_ < other.double_;
    case ValueType::kString:
      return string_ < other.string_;
  }
  return false;
}

uint64_t Value::Hash() const {
  // FNV-1a over the typed payload; mixed at the end for avalanche.
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(type_);
  auto mix_bytes = [&h](const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  switch (type_) {
    case ValueType::kInt64:
      mix_bytes(&int_, sizeof(int_));
      break;
    case ValueType::kDouble:
      mix_bytes(&double_, sizeof(double_));
      break;
    case ValueType::kString:
      mix_bytes(string_.data(), string_.size());
      break;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

void Value::EncodeTo(std::string* out) const {
  CellRef::Of(*this).EncodeTo(out);
}

Value CellRef::ToValue() const {
  switch (type) {
    case ValueType::kInt64:
      return Value::Int64(i);
    case ValueType::kDouble:
      return Value::Double(d);
    case ValueType::kString:
      return Value::String(*s);
  }
  return Value();
}

void CellRef::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type));
  switch (type) {
    case ValueType::kInt64: {
      char buf[8];
      std::memcpy(buf, &i, 8);
      out->append(buf, 8);
      break;
    }
    case ValueType::kDouble: {
      char buf[8];
      std::memcpy(buf, &d, 8);
      out->append(buf, 8);
      break;
    }
    case ValueType::kString: {
      uint32_t len = static_cast<uint32_t>(s->size());
      char buf[4];
      std::memcpy(buf, &len, 4);
      out->append(buf, 4);
      out->append(*s);
      break;
    }
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(int_);
    case ValueType::kDouble:
      return std::to_string(double_);
    case ValueType::kString:
      return string_;
  }
  return "?";
}

}  // namespace suj
