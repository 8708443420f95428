// SamplingSession + SessionManager: per-client sampling state over a
// shared PreparedUnion.
//
// A session owns everything one client's protocol needs — an RNG
// substream, a long-lived sampler (Algorithm 1 in its oracle or
// epoch-reconciled revision instantiation, or the online Algorithm 2
// with its private walker, reuse pool, and backtracking
// state), and cumulative stats — while sharing the plan's heavy immutable
// state (indexes, probers, estimates) with every other session. Repeated
// Sample(n) calls CONTINUE the protocol: the online session's reuse pool
// drains across requests, backtracking refines estimates across
// requests, and abandoned covers stay abandoned. That is the paper's
// reuse story lifted from one call to a client lifetime.
//
// Determinism: session k (creation order) draws from Rng(service seed)
// advanced k jumps (2^128 steps apiece, common/rng.h), so its sample
// sequence is a function of (service seed, k, its own call pattern) only
// — concurrent sessions interleave arbitrarily without perturbing each
// other, and substreams never overlap. One session serves ONE logical
// client: calls on the same session are serialized by an internal mutex,
// but their order is the caller's contract, not the session's.

#ifndef SUJ_SERVICE_SESSION_H_
#define SUJ_SERVICE_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/online_union_sampler.h"
#include "core/revision_state.h"
#include "core/union_sampler.h"
#include "service/admission.h"
#include "service/prepared_union.h"

namespace suj {

/// Per-session knobs.
struct SessionOptions {
  enum class Mode {
    /// Algorithm 1, centralized: exact-weight draws over the plan's
    /// prebuilt weight indexes + membership-oracle ownership. Lowest
    /// per-request latency; the default.
    kOracle,
    /// Algorithm 2: session-private wander-join walker, reuse pool, and
    /// optional backtracking, warm-started from the plan's estimates.
    kOnline,
    /// Algorithm 1, decentralized: ownership learned on the fly via the
    /// revision protocol — no membership probes on the hot path. Always
    /// runs the epoch-reconciled executor path (core/ownership_map.h)
    /// on a session-lived RevisionState (core/revision_state.h): the
    /// learned cover, epoch schedule, and epoch-seed stream persist
    /// across the session's Sample calls and SampleStream chunks, so the
    /// session's sequence is byte-identical for every worker_threads
    /// setting (including 1) AND for every chunking of the same total —
    /// K chunked calls deliver exactly what one call for the sum would.
    kRevision,
  };
  Mode mode = Mode::kOracle;
  /// Worker threads for this session's requests (>1 engages the batched
  /// parallel executor inside each Sample call; kRevision sessions use
  /// the executor path even at 1); the admission controller bounds how
  /// many sessions run at once.
  size_t worker_threads = 1;
  size_t batch_size = 64;
  uint64_t max_draws_per_round = 50000;
  // ---- kRevision only ----
  /// Bounds the finalized surplus the session's RevisionState may hold
  /// between requests (epoch overshoot of the fixed ramp). Enforced by
  /// lowering the epoch ramp's cap until the largest epoch fits, floored
  /// at one batch — a pure function of the options, so the session's
  /// stream stays byte-identical under every request chunking. 0 keeps
  /// the default cap (batch_size * 16). Peak usage is reported as
  /// revision_surplus_high_water in the session's stats.
  size_t max_revision_surplus = 0;
  // ---- kOnline only ----
  /// Session-local warm-up walks per join, run lazily on the first
  /// request (streams overlap them with delivery); their records seed
  /// the session's private reuse pool. 0 skips straight to fresh walks.
  uint64_t warmup_walks = 0;
  bool enable_reuse = true;
  /// phi of Algorithm 2; 0 disables backtracking.
  uint64_t backtrack_interval = 0;
};

/// \brief One request's sample as the session's sampler produced it.
///
/// Oracle sessions deliver row draws that no Tuple has been built for
/// (the server writes their bytes straight from the columns); revision
/// and online sessions deliver tuples. Exactly one of the two is filled.
/// The draws hold the plan's specs, so they outlive the session.
struct SessionSample {
  RowDrawBatch draws;
  std::vector<Tuple> tuples;

  size_t size() const { return draws.size() + tuples.size(); }
  bool empty() const { return size() == 0; }
  /// The sample as tuples, in order.
  std::vector<Tuple> ToTuples() &&;
};

/// Cumulative accounting for one session.
struct SessionStatsSnapshot {
  uint64_t session_id = 0;
  uint64_t plan_id = 0;
  std::string query;
  uint64_t requests = 0;        ///< completed Sample calls
  uint64_t tuples_delivered = 0;
  /// kRevision only: finalized tuples the session's RevisionState
  /// generated ahead of demand and holds for the next request (epoch
  /// overshoot; 0 for other modes). Together with the sampler counters
  /// this closes the session-level conservation identity:
  /// accepted - removed_by_revision - reconcile_dropped ==
  /// tuples_delivered + revision_buffered.
  uint64_t revision_buffered = 0;
  /// kRevision only: the highest revision_buffered ever observed at a
  /// request boundary (mirrors sampler.revision_surplus_high_water;
  /// bounded by SessionOptions::max_revision_surplus).
  uint64_t revision_surplus_high_water = 0;
  /// Sampler-level counters (plan_id-stamped). Oracle and revision
  /// sessions fill the UnionSampleStats base (revision sessions include
  /// the epoch/reconciliation counters); online sessions also fill the
  /// reuse / backtracking extension.
  OnlineUnionSampleStats sampler;
};

/// \brief One client's resumable sampling state.
class SamplingSession {
 public:
  /// `rng` must be the session's private substream (SessionManager hands
  /// out jumps of the service seed). Sampler construction is lazy — the
  /// first Sample call (often on a stream's producer thread) pays it.
  static Result<std::unique_ptr<SamplingSession>> Create(
      uint64_t id, PreparedUnionPtr plan, SessionOptions options, Rng rng);

  /// Draws `n` tuples, continuing this session's protocol. Serialized:
  /// concurrent calls on one session run one at a time.
  Result<std::vector<Tuple>> Sample(size_t n);

  /// Same, admission-gated, and left as the sampler produced it
  /// (SessionSample). The permit is taken AFTER this session's
  /// turn comes up (inside the serialization mutex), so a request that
  /// is merely queued behind its own session's previous request never
  /// occupies an admission slot — one slow session cannot starve the
  /// service by parking mutex-waiters on every slot. AdmitMode::kReject
  /// is fail-fast all the way: a session that is mid-request rejects
  /// immediately with ResourceExhausted instead of queueing for its
  /// turn, so load-shedding callers never block. A non-null `cancelled`
  /// aborts a kWait admission wait (after AdmissionController::
  /// CancelWake) and skips sampling once set — stream teardown uses it
  /// so no work is done for a result nobody will read.
  Result<SessionSample> Sample(size_t n, AdmissionController& admission,
                               AdmitMode mode,
                               const std::atomic<bool>* cancelled = nullptr);

  /// Never blocks on an in-flight request: returns the snapshot taken
  /// when the last request completed (monitoring must keep working
  /// precisely when the service is saturated and sessions are busy).
  SessionStatsSnapshot stats() const;

  uint64_t id() const { return id_; }
  const PreparedUnionPtr& plan() const { return plan_; }
  const SessionOptions& options() const { return options_; }

  /// Liveness stamp for server-side idle reaping. The NET layer owns
  /// time: SujServer touches on open and on every served request, then
  /// reaps via SessionManager::ReapIdle. Purely advisory — never read
  /// by the sampling protocol, so stamping cannot perturb determinism.
  void Touch(int64_t now_ns) {
    last_activity_ns_.store(now_ns, std::memory_order_relaxed);
  }
  /// 0 means "never touched" (in-process session outside any server);
  /// ReapIdle skips those.
  int64_t last_activity_ns() const {
    return last_activity_ns_.load(std::memory_order_relaxed);
  }

 private:
  SamplingSession(uint64_t id, PreparedUnionPtr plan, SessionOptions options,
                  Rng rng)
      : id_(id),
        plan_(std::move(plan)),
        options_(options),
        rng_(rng) {}

  /// Builds the mode-appropriate sampler on first use (mu_ held).
  Status EnsureSampler();

  /// The shared protocol body of both Sample overloads (mu_ held).
  Result<SessionSample> SampleLocked(size_t n);

  /// Refreshes stats_snapshot_ from the live sampler (mu_ held).
  void UpdateStatsSnapshot();

  const uint64_t id_;
  const PreparedUnionPtr plan_;
  const SessionOptions options_;

  mutable std::mutex mu_;
  Rng rng_;
  uint64_t requests_ = 0;
  uint64_t tuples_delivered_ = 0;
  // Exactly one of these is live after EnsureSampler, per options_.mode.
  std::unique_ptr<UnionSampler> union_sampler_;
  std::unique_ptr<RandomWalkOverlapEstimator> walker_;  // kOnline
  std::unique_ptr<OnlineUnionSampler> online_sampler_;
  /// kRevision only: the session-lived resumable protocol state (learned
  /// cover + epoch schedule + undelivered surplus + pooled worker
  /// contexts), threaded through every Sample call. Torn down with the
  /// session — after eviction or Close, the last in-flight request to
  /// release the session's shared_ptr frees it; it holds values and its
  /// pooled contexts' samplers share ownership of the plan's immutable
  /// indexes (no back-references), so teardown order is never a hazard.
  std::unique_ptr<RevisionState> revision_state_;

  /// Last-completed-request stats, readable without mu_ (stats_mu_ only).
  mutable std::mutex stats_mu_;
  SessionStatsSnapshot stats_snapshot_;

  /// See Touch(). Atomic: stamped by connection handlers, read by the
  /// reaper, no lock shared with the sampling path.
  std::atomic<int64_t> last_activity_ns_{0};
};

/// \brief Owns the live sessions and their RNG substream assignment.
class SessionManager {
 public:
  struct Options {
    /// Base seed of the substream family. Session k samples from
    /// Rng(seed) advanced k jumps.
    uint64_t seed = 42;
    /// Open-session cap; Open rejects with ResourceExhausted beyond it.
    size_t max_sessions = 64;
  };

  explicit SessionManager(Options options);

  /// Opens a session on `plan`. Substream index = number of sessions
  /// ever opened (NOT current size), so closing sessions never causes
  /// substream reuse.
  Result<std::shared_ptr<SamplingSession>> Open(PreparedUnionPtr plan,
                                                SessionOptions options);

  Result<std::shared_ptr<SamplingSession>> Get(uint64_t id) const;

  /// Drops the manager's reference. In-flight requests holding the
  /// session shared_ptr finish safely.
  Status Close(uint64_t id);

  /// Closes every session whose last Touch is older than `idle_ns`
  /// (abandoned clients: the connection died without Close, or the
  /// tenant walked away mid-protocol). Sessions never touched are
  /// exempt — only the net layer stamps activity, so purely in-process
  /// sessions cannot be reaped out from under a caller. Returns the
  /// reaped ids. Sibling sessions are untouched: substream assignment
  /// happened at Open and closed ids are never reused, so reaping
  /// cannot shift any other session's RNG stream.
  std::vector<uint64_t> ReapIdle(int64_t now_ns, int64_t idle_ns);

  size_t size() const;
  uint64_t ever_opened() const;

 private:
  Options options_;
  mutable std::mutex mu_;
  /// Next session's substream (advanced one Jump per Open; O(1) each).
  Rng substream_cursor_;
  uint64_t next_id_ = 1;
  uint64_t ever_opened_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<SamplingSession>> sessions_;
};

}  // namespace suj

#endif  // SUJ_SERVICE_SESSION_H_
