#include "exec/worker_context_pool.h"

#include <utility>

namespace suj {

Result<WorkerContextPool> WorkerContextPool::Build(
    size_t workers, const BatchSamplerFactory& factory) {
  if (factory == nullptr) {
    return Status::InvalidArgument("null batch-sampler factory");
  }
  WorkerContextPool pool;
  pool.contexts_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    auto context = factory(w);
    if (!context.ok()) return context.status();
    if (*context == nullptr) {
      return Status::InvalidArgument("factory produced a null BatchSampler");
    }
    pool.contexts_.push_back(std::move(*context));
  }
  return pool;
}

Status WorkerContextPool::MergeStatsInto(UnionSampleStats* stats) const {
  if (stats == nullptr) {
    return Status::InvalidArgument("null stats sink");
  }
  for (const auto& context : contexts_) {
    SUJ_RETURN_NOT_OK(stats->MergeFrom(context->stats()));
  }
  return Status::OK();
}

}  // namespace suj
