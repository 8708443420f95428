// Extended Olken (EO) join sampling (§3.2).
//
// The walk draws a uniform row of the first relation, then at each step a
// uniform row among the d_i rows of the next relation matching all bound
// attributes, and finally accepts with probability prod(d_i / M_i), where
// M_i is the max degree of step i's probe key. Every accepted tuple has
// probability 1 / (|R_w0| * prod M_i) -- uniform. Dangling tuples (d_i = 0)
// end the walk, which realizes the paper's extension of Olken's algorithm
// to non key-foreign-key joins (zero weight for non-joinable tuples).
//
// Compared to EW: no weight precomputation (setup is just the composite
// indexes), but a rejection rate that grows with degree skew -- exactly the
// EW/EO trade-off Fig 5 explores.

#ifndef SUJ_JOIN_OLKEN_SAMPLER_H_
#define SUJ_JOIN_OLKEN_SAMPLER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "index/composite_index.h"
#include "join/join_sampler.h"

namespace suj {

/// \brief Accept/reject sampler with degree-bound weights.
class OlkenJoinSampler : public JoinSampler {
 public:
  static Result<std::unique_ptr<OlkenJoinSampler>> Create(
      JoinSpecPtr join, CompositeIndexCache* cache);

  bool TrySampleRows(Rng& rng, RowDraw* draw) override;

  /// The extended Olken bound |R_w0| * prod M_i.
  double SizeUpperBound() const override { return size_bound_; }

  /// True iff every step probes through a precomputed row->group array.
  /// The columnar walk consumes the same RNG stream as the generic walk
  /// and produces identical outcomes.
  bool columnar() const { return columnar_; }

 private:
  struct Step {
    int relation;                 // relation index in the spec
    CompositeIndexPtr index;      // probe index on the bound attributes
    std::vector<int> key_fields;  // output-schema indexes of the bound attrs
    size_t max_degree;            // M_i
    // Columnar probe (see WanderJoinSampler::Step): walk position whose
    // chosen row feeds `probe`, or -1 to probe generically.
    int source_pos = -1;
    ProbeArrayPtr probe;
  };

  explicit OlkenJoinSampler(JoinSpecPtr join) : JoinSampler(std::move(join)) {}

  bool ApplyRow(int relation, uint32_t row, std::vector<Value>* assignment,
                std::vector<bool>* assigned) const;

  // Both walks write the chosen row of each relation to `rows` (join()
  // relation order) and return whether the walk reached the accept test.
  bool WalkGeneric(Rng& rng, uint32_t* rows, double* accept_prob);
  bool WalkColumnar(Rng& rng, uint32_t* rows, double* accept_prob);

  std::vector<Step> steps_;  // walk positions 1..m-1
  bool columnar_ = false;
  double size_bound_ = 0.0;
};

}  // namespace suj

#endif  // SUJ_JOIN_OLKEN_SAMPLER_H_
