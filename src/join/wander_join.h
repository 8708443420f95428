// Wander join: random walks over the join data graph (§6.1, after Li et
// al. SIGMOD'16).
//
// A walk picks a uniform row of the first relation, then a uniform matching
// row at each subsequent step. The resulting tuple t is NOT uniform, but its
// sampling probability p(t) = 1/|R_w0| * prod 1/d_i is known exactly, which
// makes 1/p(t) a Horvitz-Thompson unbiased estimate of the join size and --
// crucially for the online union sampler (§7) -- lets walk tuples be reused
// for uniform sampling after an accept/reject correction.

#ifndef SUJ_JOIN_WANDER_JOIN_H_
#define SUJ_JOIN_WANDER_JOIN_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "index/composite_index.h"
#include "join/join_spec.h"
#include "stats/estimators.h"

namespace suj {

/// Outcome of one random walk.
struct WalkOutcome {
  /// True iff the walk completed and passed all predicates.
  bool success = false;
  /// The joined tuple over the join's output schema (valid iff success).
  Tuple tuple;
  /// Exact probability with which this walk produces `tuple` (valid iff
  /// success; failures have zero contribution).
  double probability = 0.0;
};

/// \brief Random-walk tuple generator with exact probability tracking.
class WanderJoinSampler {
 public:
  static Result<std::unique_ptr<WanderJoinSampler>> Create(
      JoinSpecPtr join, CompositeIndexCache* cache);

  virtual ~WanderJoinSampler() = default;

  /// Performs one walk. Virtual so shard routers can substitute a
  /// global-root draw while keeping the per-step RNG stream identical.
  virtual WalkOutcome Walk(Rng& rng);

  /// Continues a walk whose root row was chosen externally (with
  /// probability `root_probability`): the per-step RNG consumption is
  /// exactly Walk's after its own root draw. Shard routers resolve a
  /// global uniform root draw to (shard, local row) and delegate here.
  WalkOutcome WalkFromRoot(uint32_t root_row, double root_probability,
                           Rng& rng);

  const JoinSpecPtr& join() const { return join_; }
  uint64_t num_walks() const { return num_walks_; }
  uint64_t num_successes() const { return num_successes_; }

  /// True iff every step resolves its probe through a precomputed row->
  /// group array (no per-step key encoding or hash lookups). The columnar
  /// walk draws the SAME RNG stream as the generic walk and produces
  /// byte-identical outcomes; it only skips the Tuple/Value/string work.
  bool columnar() const { return columnar_; }

 protected:
  explicit WanderJoinSampler(JoinSpecPtr join) : join_(std::move(join)) {}

  JoinSpecPtr join_;
  uint64_t num_walks_ = 0;
  uint64_t num_successes_ = 0;

 private:
  struct Step {
    int relation;
    CompositeIndexPtr index;
    std::vector<int> key_fields;  // output-schema indexes of bound attrs
    // Columnar probe: the walk position whose chosen row feeds `probe`
    // (valid because every bound attribute of a step is part of some
    // earlier step's probe key, so any earlier relation carrying it holds
    // the same value). -1 when no single earlier relation covers all
    // bound attrs; then this step probes generically.
    int source_pos = -1;
    ProbeArrayPtr probe;
  };

  WalkOutcome WalkGenericFrom(uint32_t root_row, double root_probability,
                              Rng& rng);
  WalkOutcome WalkColumnarFrom(uint32_t root_row, double root_probability,
                               Rng& rng);

  std::vector<Step> steps_;
  bool columnar_ = false;
};

/// Builds the wander-join sampler for join index `j` of a union. Plans
/// whose joins are shard-routed supply a factory producing shard routers;
/// a null factory means plain WanderJoinSampler::Create over the caller's
/// index cache.
using WanderSamplerFactory =
    std::function<Result<std::unique_ptr<WanderJoinSampler>>(int)>;

/// \brief Online join-size (COUNT) estimator built on wander-join walks.
///
/// |J|_S = (1/m) sum_t 1/p(t) over m walks (failed walks contribute 0), the
/// running estimator of §6.1 with the confidence-interval termination rule.
class WanderJoinSizeEstimator {
 public:
  explicit WanderJoinSizeEstimator(WanderJoinSampler* sampler)
      : sampler_(sampler) {}

  /// Performs one walk and folds it into the estimate. Returns the outcome
  /// so callers (the online union sampler) can reuse the tuple.
  WalkOutcome Step(Rng& rng);

  /// Walks until the relative CI half-width at `confidence` drops below
  /// `relative_halfwidth`, or `max_walks` is reached; always performs at
  /// least `min_walks`. Mirrors the paper's "terminate when the half-width
  /// becomes less than the threshold" rule with the 1,000-sample cap used
  /// in §9.
  void RunUntilConfident(Rng& rng, double confidence,
                         double relative_halfwidth, uint64_t min_walks,
                         uint64_t max_walks);

  /// Current point estimate of |J|.
  double Estimate() const { return ht_.Estimate(); }
  /// CI half-width at `confidence`.
  double HalfWidth(double confidence) const {
    return ht_.HalfWidth(confidence);
  }
  uint64_t num_walks() const { return ht_.num_draws(); }

  const HorvitzThompsonEstimator& estimator() const { return ht_; }

 private:
  WanderJoinSampler* sampler_;
  HorvitzThompsonEstimator ht_;
};

}  // namespace suj

#endif  // SUJ_JOIN_WANDER_JOIN_H_
