// RevisionState: the protocol state of the epoch-reconciled revision
// driver (the decentralized Algorithm 1).
//
// UnionSampler runs every Mode::kRevision draw through one epoch driver
// over a RevisionState: the learned cover (OwnershipMap), the epoch ramp
// position, the epoch-seed stream, the live selection weights, and a
// buffer of finalized, undelivered tuples. Two kinds of state feed it:
//
//  * a caller-owned state threaded through repeated
//    UnionSampler::Sample(n, rng, state) calls — the learned cover, the
//    epoch schedule, and the epoch-seed stream all continue where the
//    previous call stopped (service sessions own one for their lifetime);
//  * a call-local state that UnionSampler::Sample(n, rng) creates and
//    drops per call. Nothing outlives the call, so its epochs are clamped
//    to the call's shortfall and it never buffers past the call.
//
// ## The deterministic-stream contract (caller-owned states)
//
// A resumed protocol is only useful if chunking is invisible: splitting n
// draws across K calls must deliver the byte-identical sequence a single
// n-draw call would, at every worker-thread count. That forces every
// input of the generation process to be a function of the STATE, never of
// the call pattern:
//
//  * Epoch sizes follow a pure ramp — batch_size * 4^e, capped at
//    batch_size * 16 — never clamped by the current call's shortfall (a
//    shortfall clamp would cut different batch layouts for different
//    chunkings). An epoch that overshoots the call's need parks the
//    surplus in the state's buffer; the next call drains the buffer
//    before generating again. The cap bounds both the surplus a session
//    can buffer and the latency of the one serial reconcile pass.
//  * Epoch e's executor seed is the e-th value of the state's seed
//    stream, fixed at initialization from ONE draw of the caller's RNG.
//    Continuation calls consume nothing from the caller's RNG.
//  * Reconciliation finalizes each epoch: a revision purges stale copies
//    of the re-assigned value from the CURRENT epoch's claims only, and
//    the epoch's survivors append to the buffer as immutable output.
//    Tuples already finalized — delivered or buffered — are beyond
//    purging; the re-assignment itself still lands in the ownership map,
//    so later epochs reject the stale join immediately. Confining the
//    purge horizon to the epoch is what makes the emitted stream
//    prefix-stable, and prefix-stability is what makes chunking
//    invisible. The residual effect — stale copies accepted before a
//    value's ownership was learned stand in the output — is the
//    constant-NUMBER-of-draws learning transient the epoch ramp already
//    bounds (chi-square-verified in uniformity_test).
//  * Cover abandonment discovered during an epoch folds into the state's
//    selection weights (and the owning sampler's persistent exclusion
//    set) BETWEEN epochs — the deterministic serial point — so it takes
//    effect from the next epoch no matter how calls are chunked. The
//    fan-out itself never touches the exclusion set; the driver
//    SUJ_CHECKs that at every epoch.
//
// ## Lifecycle (call -> session -> eviction)
//
// A state is created empty, binds to the first UnionSampler it is used
// with (resuming on a different sampler is refused), and lives as long as
// the caller wants the protocol to continue. It owns only values (tuples,
// keys, weights) and points into nothing outside itself; the worker
// contexts belong to the sampler, which re-binds them to the current
// state at every epoch. So destroying a state mid-stream — on session
// close, eviction, or error — frees the learned cover and any undelivered
// surplus and nothing else. The sampler notices nothing; a fresh state
// started afterwards simply re-learns from the sampler's current
// (persisted) exclusion set.

#ifndef SUJ_CORE_REVISION_STATE_H_
#define SUJ_CORE_REVISION_STATE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/ownership_map.h"
#include "storage/tuple.h"

namespace suj {

class UnionSampler;

/// \brief Resumable revision-protocol state carried across Sample calls.
class RevisionState {
 public:
  RevisionState() = default;
  // Not copyable or movable: the OwnershipMap member owns a mutex.
  RevisionState(const RevisionState&) = delete;
  RevisionState& operator=(const RevisionState&) = delete;

  /// True once the first Sample call has seeded the state.
  bool initialized() const { return bound_to_ != nullptr; }

  /// Finalized tuples generated ahead of demand and not yet delivered.
  size_t buffered() const { return buffer_.size() - buffer_head_; }

  /// Tuples handed out across all Sample calls on this state.
  uint64_t delivered() const { return delivered_; }

 private:
  friend class UnionSampler;

  /// Binds to `owner`, fixes the epoch-seed stream, and freezes the
  /// initial selection weights (the owner's estimates minus its already
  /// abandoned covers).
  void Initialize(const UnionSampler* owner, uint64_t seed,
                  std::vector<double> weights);

  /// Appends one reconciled epoch's surviving tuples as finalized output.
  void AppendFinalized(std::vector<Tuple>&& tuples);

  /// Moves up to `max` finalized tuples into `*out`; returns the count.
  size_t DrainInto(std::vector<Tuple>* out, size_t max);

  const UnionSampler* bound_to_ = nullptr;
  /// Epoch e's executor seed is the e-th Next() of this stream.
  Rng epoch_seeds_{0};
  uint64_t epoch_index_ = 0;
  /// The carried reconciled cover (value -> owning join).
  OwnershipMap ownership_;
  /// Live selection weights: initialization freezes them from the bound
  /// sampler's estimates; abandonment folds zeros in between epochs.
  std::vector<double> weights_;
  /// Finalized, undelivered tuples ([buffer_head_, end) is live).
  std::vector<Tuple> buffer_;
  size_t buffer_head_ = 0;
  uint64_t delivered_ = 0;
  /// Total finalized ever (delivered_ + buffered(), SUJ_CHECK-maintained).
  uint64_t finalized_ = 0;
};

}  // namespace suj

#endif  // SUJ_CORE_REVISION_STATE_H_
