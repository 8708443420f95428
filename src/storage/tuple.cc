#include "storage/tuple.h"

#include "common/logging.h"

namespace suj {

std::string Tuple::Encode() const {
  std::string out;
  out.reserve(values_.size() * 9);
  for (const auto& v : values_) v.EncodeTo(&out);
  return out;
}

uint64_t Tuple::Hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& v : values_) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

Tuple Tuple::Project(const std::vector<int>& indices) const {
  std::vector<Value> out;
  out.reserve(indices.size());
  for (int i : indices) {
    SUJ_CHECK(i >= 0 && static_cast<size_t>(i) < values_.size());
    out.push_back(values_[i]);
  }
  return Tuple(std::move(out));
}

Tuple Tuple::MapToSchema(const Schema& from, const Schema& to) const {
  SUJ_CHECK(values_.size() == from.num_fields());
  std::vector<Value> out;
  out.reserve(to.num_fields());
  for (const auto& f : to.fields()) {
    int idx = from.FieldIndex(f.name);
    SUJ_CHECK(idx >= 0);
    out.push_back(values_[idx]);
  }
  return Tuple(std::move(out));
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace suj
