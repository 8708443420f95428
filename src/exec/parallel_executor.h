// ParallelUnionExecutor: deterministic worker-pool fan-out for union
// sampling.
//
// A request for n tuples is cut into fixed-size batches. Batch i is drawn
// with its own RNG substream — Rng(seed) advanced i jumps (2^128 steps
// each, common/rng.h) — by whichever worker claims it, and the per-batch
// results are reassembled in batch order. Because every batch's output is a
// function of (seed, batch index) alone and never of the claiming thread,
// the concatenated sample sequence is byte-identical for any thread count,
// including 1. That per-batch (not per-thread) seeding is the entire
// determinism story; the pool is otherwise a plain claim-next-batch loop.
//
// Workers run against shared read-only state (indexes, probers, overlap
// estimates); everything mutable — per-join samplers, stats, RNG — is
// per-worker. Worker contexts are created on the calling thread before the
// pool starts, so factories need not be thread-safe.
//
// Two entry points: the factory-based Execute builds fresh contexts for
// one fan-out (one-shot callers), while the WorkerContextPool overload
// runs a fan-out over contexts the caller built once and reuses — a
// UnionSampler keeps one pool per mode and fans out over it once per
// oracle call or revision epoch (see exec/worker_context_pool.h for the
// stats-merge contract).
//
// A batch is whatever its contexts produce: tuples (revision, online) or
// oracle-mode row draws (RowDrawBatch), which stay row ids until the
// caller materializes them or writes their bytes. The fan-out is one
// template over the batch type, instantiated for both.

#ifndef SUJ_EXEC_PARALLEL_EXECUTOR_H_
#define SUJ_EXEC_PARALLEL_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/union_sampler.h"
#include "join/row_draw.h"

namespace suj {

/// \brief One worker's sampling context, producing batches of type
/// `Batch` (std::vector<Tuple> or RowDrawBatch).
///
/// Contract for determinism: SampleBatch(batch_index, count, rng) must be
/// a pure function of (count, rng) plus state that is immutable or reset
/// per call. Memoization of pure functions (e.g. ownership caches) is
/// fine; carrying sampling-relevant state between batches is not.
template <typename Batch>
class BatchSamplerOf {
 public:
  virtual ~BatchSamplerOf() = default;

  /// Draws at least `count` tuples for batch `batch_index` (overshoot is
  /// truncated by the executor, deterministically, since truncation
  /// happens per batch). The batch index is part of the schedule, not the
  /// randomness: samplers that journal per-batch side data (the revision
  /// protocol's ownership claims) write it to slot `batch_index`, which
  /// exactly one worker claims per fan-out, so the journal is race-free
  /// and replayable in batch order. Samplers without side data ignore it.
  virtual Result<Batch> SampleBatch(size_t batch_index, size_t count,
                                    Rng& rng) = 0;

  /// Cumulative union-level stats over every batch this worker ran.
  virtual UnionSampleStats stats() const = 0;
};

using BatchSampler = BatchSamplerOf<std::vector<Tuple>>;
using DrawBatchSampler = BatchSamplerOf<RowDrawBatch>;

/// Builds the context for worker `worker_index` (0 <= index <
/// EffectiveThreads(n), each passed exactly once). The index lets callers
/// bind per-worker output slots without trusting call order or count.
template <typename Batch>
using BatchSamplerFactoryOf =
    std::function<Result<std::unique_ptr<BatchSamplerOf<Batch>>>(
        size_t worker_index)>;
using BatchSamplerFactory = BatchSamplerFactoryOf<std::vector<Tuple>>;

template <typename Batch>
class WorkerContextPoolOf;
using WorkerContextPool = WorkerContextPoolOf<std::vector<Tuple>>;

/// \brief Deterministic batched fan-out over a worker pool.
class ParallelUnionExecutor {
 public:
  struct Options {
    /// Worker threads; 0 resolves to std::thread::hardware_concurrency().
    size_t num_threads = 0;
    /// Tuples per batch: the determinism and scheduling unit. Smaller
    /// batches balance load better; larger ones amortize per-batch setup.
    size_t batch_size = 64;
  };

  explicit ParallelUnionExecutor(Options options);

  /// Draws `n` tuples using worker contexts from `factory` (one per
  /// worker, created up front on the calling thread). The result is
  /// identical for every `num_threads` given the same (n, seed, factory
  /// semantics). Merged per-worker stats (plus batch/worker/wall-time
  /// accounting) are added into `*stats` when non-null.
  Result<std::vector<Tuple>> Execute(size_t n, uint64_t seed,
                                     const BatchSamplerFactory& factory,
                                     UnionSampleStats* stats = nullptr);

  /// Same fan-out over caller-owned reusable contexts: batches are
  /// drained by up to min(pool.size(), batch count) workers, each bound
  /// to one pool context. Unlike the factory overload, `*stats` receives
  /// ONLY the fan-out accounting (parallel_batches, parallel_clipped,
  /// parallel_seconds) — the contexts outlive this call, so their
  /// cumulative sampler stats and the context count must be folded in
  /// by the pool's owner, never per fan-out.
  template <typename Batch>
  Result<Batch> Execute(size_t n, uint64_t seed,
                        WorkerContextPoolOf<Batch>& pool,
                        UnionSampleStats* stats = nullptr);

  /// Threads the pool will actually use for a request of `n` tuples.
  size_t EffectiveThreads(size_t n) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace suj

#endif  // SUJ_EXEC_PARALLEL_EXECUTOR_H_
