// OwnershipMap: epoch-reconciled cover ownership for the revision-mode
// protocol (Algorithm 1, decentralized).
//
// Algorithm 1 learns the cover assignment f(u) on the fly: every accepted
// tuple claims its value for the join it was drawn from, later draws from
// earlier joins revise the claim and purge the stale copies. Learning in
// one shared mutable map would pin the protocol to one thread, so the
// epoch driver splits the learning into EPOCHS:
//
//   1. During an epoch, workers sample batches against an immutable
//      SNAPSHOT of the reconciled map (`Owner()`), layering batch-local
//      tentative claims on top. Claims are journaled per batch, in
//      acceptance order, into slots indexed by batch — never shared
//      between batches — so batch output stays a pure function of
//      (seed, batch index, snapshot).
//   2. Between epochs, a single deterministic reconciliation pass
//      (`Reconcile()`) replays every claim in GLOBAL ROUND ORDER (batch
//      order, then in-batch order — never thread arrival order) and
//      applies Algorithm 1's rules: first claim wins, an earlier-join
//      claim triggers a revision that re-assigns the value and purges
//      every stale copy from the result, a later-join claim of an owned
//      value is dropped (Algorithm 1 rejects such a draw and re-draws; the
//      epoch driver tops the shortfall up in the next epoch).
//
// Because both the per-batch sampling and the replay order are functions
// of the seed alone, the delivered sample sequence is byte-identical for
// every thread count, including 1 — the same guarantee the oracle-mode
// executor path makes.
//
// Thread-safety contract: Owner()/size()/epochs() may run concurrently
// with each other AND with one Reconcile() (readers see either the
// previous or the new epoch's assignments, never a torn map). Reconcile()
// calls must be externally serialized — the epoch driver runs them on one
// thread between fan-outs, which also gives every worker of epoch e+1 the
// complete epoch-e assignments.

#ifndef SUJ_CORE_OWNERSHIP_MAP_H_
#define SUJ_CORE_OWNERSHIP_MAP_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/tuple.h"

namespace suj {

/// One tentative ownership claim: a batch's local revision protocol
/// accepted a tuple with canonical encoding `key` drawn from join `join`.
struct OwnershipClaim {
  std::string key;
  int join = -1;
};

/// The claims of one batch in acceptance order: exactly one claim per
/// tuple the batch returned, index-aligned with the batch's tuples.
using ClaimBatch = std::vector<OwnershipClaim>;

/// What one reconciliation pass did (per-epoch accounting).
struct ReconcileOutcome {
  uint64_t appended = 0;   ///< claims whose tuples joined the result
  uint64_t dropped = 0;    ///< claims lost to an earlier-join owner
  uint64_t revisions = 0;  ///< values re-assigned to an earlier join
  uint64_t purged = 0;     ///< result tuples removed by those revisions
};

/// \brief Reconciled cover-ownership state shared across batch epochs.
class OwnershipMap {
 public:
  OwnershipMap() = default;
  OwnershipMap(const OwnershipMap&) = delete;
  OwnershipMap& operator=(const OwnershipMap&) = delete;

  /// Owner of `key` per the completed epochs, or -1 if unclaimed. Safe to
  /// call concurrently from any number of workers, including while one
  /// Reconcile() is running.
  int Owner(const std::string& key) const;

  /// \brief Lock-free read-only view of the reconciled owners.
  ///
  /// For the sampling hot path: one Owner() probe per non-local draw
  /// would otherwise take the shared mutex millions of times per
  /// request, bouncing its cache line across every worker. Only valid
  /// while no Reconcile() runs — the epoch driver guarantees that by
  /// fanning workers out strictly between reconciliation passes (worker
  /// create/join provide the happens-before edges). Callers without
  /// that structural guarantee must use the locked Owner() instead.
  class View {
   public:
    int Owner(const std::string& key) const {
      auto it = owners_->find(key);
      return it == owners_->end() ? -1 : it->second;
    }

   private:
    friend class OwnershipMap;
    explicit View(const std::unordered_map<std::string, int>* owners)
        : owners_(owners) {}
    const std::unordered_map<std::string, int>* owners_;
  };

  /// The unsynchronized view (see View for the validity contract).
  View UnsynchronizedView() const { return View(&owners_); }

  /// Replays one epoch's claims in global round order against the
  /// reconciled map, appending each surviving claim's tuple to `*result`
  /// (and its key to `*result_keys`, kept index-aligned). `claims` and
  /// `tuples` are the epoch's batches concatenated IN BATCH ORDER and must
  /// be the same length. Revisions purge stale copies of the re-assigned
  /// value from the whole of `*result` — tuples appended in earlier
  /// epochs and earlier in this epoch alike, exactly as the sequential
  /// protocol purges its call-local result. Consumes both inputs (claim
  /// keys move into *result_keys). Must not run concurrently with
  /// another Reconcile (Owner lookups remain safe).
  ReconcileOutcome Reconcile(std::vector<OwnershipClaim>&& claims,
                             std::vector<Tuple>&& tuples,
                             std::vector<Tuple>* result,
                             std::vector<std::string>* result_keys);

  /// Distinct values with a reconciled owner.
  size_t size() const;

  /// Completed Reconcile passes.
  uint64_t epochs() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, int> owners_;
  uint64_t epochs_ = 0;
};

}  // namespace suj

#endif  // SUJ_CORE_OWNERSHIP_MAP_H_
