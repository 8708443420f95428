// RowDrawBatch: accepted row draws over one union, before materialization.
//
// Each record is a join spec plus one uint32_t row id per relation, at a
// fixed width (the most relations any join of the union has). Oracle-mode
// union sampling fills these records and hands them across the parallel
// executor and the service; a Tuple is built only at an in-process API
// edge (Materialize), and the server writes each record's canonical
// encoding straight from the columns into its response
// (RowDraw::EncodeTo).
//
// The batch holds the union's specs, which hold their relations, so its
// draws stay readable after the sampler that produced them is gone.

#ifndef SUJ_JOIN_ROW_DRAW_H_
#define SUJ_JOIN_ROW_DRAW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "join/join_spec.h"

namespace suj {

/// \brief Fixed-width records of accepted row draws.
class RowDrawBatch {
 public:
  /// An empty batch that can hold no draw (the executor's empty result).
  RowDrawBatch() = default;
  /// An empty batch for draws from `joins`, which it keeps alive.
  explicit RowDrawBatch(std::vector<JoinSpecPtr> joins);

  size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }

  /// Room for one more draw: a RowDraw whose rows point at a scratch
  /// record past the end. Valid until the next call that changes the
  /// batch; Commit keeps it, anything else discards it.
  RowDraw Next();
  /// Keeps the draw the last Next() handed out, as filled by a sampler.
  void Commit(const RowDraw& draw);

  /// Draw `i`. Its rows alias the batch's storage.
  RowDraw operator[](size_t i) const {
    // A read-only view; RowDraw's rows pointer is mutable only so that
    // samplers can fill the scratch record Next() hands out.
    return RowDraw{specs_[i],
                   const_cast<uint32_t*>(rows_.data() + i * width_)};
  }

  void Reserve(size_t n);
  /// Drops every draw past the first `n`.
  void Truncate(size_t n);
  /// Appends `other`'s draws (both batches must be over the same union,
  /// or this one empty and default-constructed).
  void Append(const RowDrawBatch& other);

  /// The draws as tuples, in order.
  std::vector<Tuple> Materialize() const;

 private:
  std::vector<JoinSpecPtr> joins_;
  size_t width_ = 0;
  std::vector<const JoinSpec*> specs_;
  std::vector<uint32_t> rows_;  // size() records, plus Next()'s scratch
};

}  // namespace suj

#endif  // SUJ_JOIN_ROW_DRAW_H_
