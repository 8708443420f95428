// WorkerContextPool: worker BatchSampler contexts built once and reused
// across many executor fan-outs.
//
// A UnionSampler runs one ParallelUnionExecutor fan-out per oracle call
// (over row-draw contexts) or per revision epoch (over tuple contexts).
// The pool splits context construction from fan-out: contexts are built
// exactly once (serially, on the constructing thread, so factories need
// not be thread-safe) and each subsequent Execute reuses them.
//
// Reuse and determinism: the executor's determinism contract
// (exec/parallel_executor.h) already requires batch output to be a pure
// function of (count, rng) plus immutable-or-reset-per-batch state, so
// running later fan-outs on the same contexts cannot change any batch's
// bytes — only per-context accumulators (stats) observe the reuse.
//
// Stats: contexts live across fan-outs, so their cumulative stats() are
// folded into the caller's block once, when the pool retires
// (MergeStatsInto) — merging after every fan-out would double-count every
// earlier one. Owners whose pool never retires fold per-context stats
// themselves.

#ifndef SUJ_EXEC_WORKER_CONTEXT_POOL_H_
#define SUJ_EXEC_WORKER_CONTEXT_POOL_H_

#include <memory>
#include <vector>

#include "exec/parallel_executor.h"

namespace suj {

/// \brief A fixed set of worker contexts shared by successive fan-outs.
template <typename Batch>
class WorkerContextPoolOf {
 public:
  /// Builds `workers` contexts by invoking `factory` once per worker
  /// index, serially on the calling thread (factories may share
  /// non-thread-safe caches). Fails if the factory fails or produces a
  /// null context.
  static Result<WorkerContextPoolOf> Build(
      size_t workers, const BatchSamplerFactoryOf<Batch>& factory) {
    if (factory == nullptr) {
      return Status::InvalidArgument("null batch-sampler factory");
    }
    WorkerContextPoolOf pool;
    pool.contexts_.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      auto context = factory(w);
      if (!context.ok()) return context.status();
      if (*context == nullptr) {
        return Status::InvalidArgument(
            "factory produced a null BatchSampler");
      }
      pool.contexts_.push_back(std::move(*context));
    }
    return pool;
  }

  WorkerContextPoolOf(WorkerContextPoolOf&&) = default;
  WorkerContextPoolOf& operator=(WorkerContextPoolOf&&) = default;
  WorkerContextPoolOf(const WorkerContextPoolOf&) = delete;
  WorkerContextPoolOf& operator=(const WorkerContextPoolOf&) = delete;

  size_t size() const { return contexts_.size(); }
  BatchSamplerOf<Batch>& context(size_t w) { return *contexts_[w]; }

  /// Folds every context's cumulative stats into `*stats`. Call once,
  /// after the pool's last fan-out.
  Status MergeStatsInto(UnionSampleStats* stats) const {
    if (stats == nullptr) {
      return Status::InvalidArgument("null stats sink");
    }
    for (const auto& context : contexts_) {
      SUJ_RETURN_NOT_OK(stats->MergeFrom(context->stats()));
    }
    return Status::OK();
  }

 private:
  WorkerContextPoolOf() = default;

  std::vector<std::unique_ptr<BatchSamplerOf<Batch>>> contexts_;
};

}  // namespace suj

#endif  // SUJ_EXEC_WORKER_CONTEXT_POOL_H_
