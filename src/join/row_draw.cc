#include "join/row_draw.h"

#include <algorithm>

#include "common/logging.h"

namespace suj {

RowDrawBatch::RowDrawBatch(std::vector<JoinSpecPtr> joins)
    : joins_(std::move(joins)) {
  for (const auto& j : joins_) {
    width_ = std::max(width_, static_cast<size_t>(j->num_relations()));
  }
}

RowDraw RowDrawBatch::Next() {
  rows_.resize((specs_.size() + 1) * width_);
  return RowDraw{nullptr, rows_.data() + specs_.size() * width_};
}

void RowDrawBatch::Commit(const RowDraw& draw) {
  SUJ_DCHECK(draw.rows == rows_.data() + specs_.size() * width_);
  SUJ_DCHECK(std::any_of(joins_.begin(), joins_.end(),
                         [&](const JoinSpecPtr& j) {
                           return j.get() == draw.spec;
                         }));
  specs_.push_back(draw.spec);
}

void RowDrawBatch::Reserve(size_t n) {
  specs_.reserve(n);
  rows_.reserve((n + 1) * width_);
}

void RowDrawBatch::Truncate(size_t n) {
  if (n >= specs_.size()) return;
  specs_.resize(n);
  rows_.resize(n * width_);
}

void RowDrawBatch::Append(const RowDrawBatch& other) {
  if (joins_.empty()) {
    joins_ = other.joins_;
    width_ = other.width_;
  }
  SUJ_DCHECK(other.empty() || joins_ == other.joins_);
  rows_.resize(specs_.size() * width_);  // drop Next()'s scratch record
  specs_.insert(specs_.end(), other.specs_.begin(), other.specs_.end());
  rows_.insert(rows_.end(), other.rows_.begin(),
               other.rows_.begin() + other.specs_.size() * other.width_);
}

std::vector<Tuple> RowDrawBatch::Materialize() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back((*this)[i].Materialize());
  return out;
}

}  // namespace suj
