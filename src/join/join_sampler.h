// JoinSampler: interface for uniform random sampling from one join.
//
// This is the "join random sampling" subroutine of Algorithm 1 (line 7),
// revisiting Zhao et al.'s framework (§3.2): a sampler draws tuples that are
// uniform over the join result. A single draw attempt may fail (accept/
// reject step, dead-end walk, predicate rejection); TrySampleRows surfaces
// the attempt so cost accounting can distinguish accepted from rejected
// work, and Sample() retries until success.
//
// A draw leaves the sampler as row ids (RowDraw: the chosen row of each
// relation), already checked against the join's non-tree constraints and
// predicates. Callers that need a Tuple materialize it (TrySample does);
// the union samplers probe ownership and write wire bytes straight from
// the rows.

#ifndef SUJ_JOIN_JOIN_SAMPLER_H_
#define SUJ_JOIN_JOIN_SAMPLER_H_

#include <cstdint>
#include <optional>

#include "common/result.h"
#include "common/rng.h"
#include "join/join_spec.h"

namespace suj {

/// Attempt accounting for rejection-rate analysis (Fig 5f-h).
struct JoinSampleStats {
  uint64_t attempts = 0;    ///< TrySampleRows calls
  uint64_t successes = 0;   ///< accepted tuples
  uint64_t dead_ends = 0;   ///< walks that hit a zero-degree step
  uint64_t rejections = 0;  ///< accept/reject or predicate rejections

  double RejectionRatio() const {
    return attempts == 0
               ? 0.0
               : 1.0 - static_cast<double>(successes) /
                           static_cast<double>(attempts);
  }
};

/// \brief Uniform sampler over one join result.
class JoinSampler {
 public:
  virtual ~JoinSampler() = default;

  /// One sampling attempt. On success writes the chosen row of each
  /// relation to `draw->rows` (which must hold join()->num_relations()
  /// slots), points `draw->spec` at the spec those rows index, and returns
  /// true; returns false if this attempt was rejected (caller may retry).
  /// Every accepted draw is uniform over the join result and is a member
  /// of it by encoding identity, so join()'s membership prober contains it.
  virtual bool TrySampleRows(Rng& rng, RowDraw* draw) = 0;

  /// TrySampleRows, materialized: a tuple over the join's output schema,
  /// or nullopt on a rejected attempt. Consumes the RNG identically.
  std::optional<Tuple> TrySample(Rng& rng);

  /// Publishes counts the sampler keeps locally (per-shard draw counters)
  /// to the process-wide metrics. Union samplers call it before each of
  /// their Sample calls returns, so the metrics are exact between calls.
  virtual void FlushMetrics() {}

  /// Upper bound on the join size implied by this sampler's weights
  /// (== exact size for exact-weight samplers on non-cyclic joins).
  virtual double SizeUpperBound() const = 0;

  /// True iff the join result is certainly empty (Sample would never
  /// succeed).
  virtual bool IsEmpty() const { return SizeUpperBound() <= 0.0; }

  /// Retries TrySampleRows until success. Fails after `max_attempts`
  /// attempts (guards against sampling an empty or pathologically
  /// selective join).
  Status SampleRows(Rng& rng, RowDraw* draw,
                    uint64_t max_attempts = 10'000'000);
  /// SampleRows, materialized.
  Result<Tuple> Sample(Rng& rng, uint64_t max_attempts = 10'000'000);

  const JoinSpecPtr& join() const { return join_; }
  const JoinSampleStats& stats() const { return stats_; }
  void ResetStats() { stats_ = JoinSampleStats(); }

 protected:
  explicit JoinSampler(JoinSpecPtr join) : join_(std::move(join)) {}

  JoinSpecPtr join_;
  JoinSampleStats stats_;
};

}  // namespace suj

#endif  // SUJ_JOIN_JOIN_SAMPLER_H_
