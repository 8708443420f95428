#include "exec/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "exec/worker_context_pool.h"
#include "obs/metrics.h"

namespace suj {

namespace {

size_t HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// The batch operations the fan-out needs, per batch type.
void Truncate(std::vector<Tuple>* batch, size_t n) { batch->resize(n); }
void Truncate(RowDrawBatch* batch, size_t n) { batch->Truncate(n); }
void Reserve(std::vector<Tuple>* batch, size_t n) { batch->reserve(n); }
void Reserve(RowDrawBatch* batch, size_t n) { batch->Reserve(n); }
void AppendTo(std::vector<Tuple>* out, std::vector<Tuple>&& batch) {
  for (auto& t : batch) out->push_back(std::move(t));
}
void AppendTo(RowDrawBatch* out, RowDrawBatch&& batch) { out->Append(batch); }

}  // namespace

ParallelUnionExecutor::ParallelUnionExecutor(Options options)
    : options_(options) {
  if (options_.num_threads == 0) options_.num_threads = HardwareThreads();
  if (options_.batch_size == 0) options_.batch_size = 64;
}

size_t ParallelUnionExecutor::EffectiveThreads(size_t n) const {
  size_t batches = (n + options_.batch_size - 1) / options_.batch_size;
  return std::min(options_.num_threads, batches == 0 ? size_t{1} : batches);
}

template <typename Batch>
Result<Batch> ParallelUnionExecutor::Execute(size_t n, uint64_t seed,
                                             WorkerContextPoolOf<Batch>& pool,
                                             UnionSampleStats* stats) {
  auto wall_start = std::chrono::steady_clock::now();
  const size_t batch = options_.batch_size;
  const size_t num_batches = (n + batch - 1) / batch;
  if (num_batches > 0 && pool.size() == 0) {
    return Status::InvalidArgument("empty worker-context pool");
  }
  // One worker per context up to the batch count; surplus contexts stay
  // idle this fan-out (a pool is sized for the call's LARGEST fan-out,
  // and small epochs simply engage a prefix of it).
  const size_t workers = std::min(pool.size(), num_batches);

  std::vector<Batch> slots(num_batches);
  std::vector<Status> worker_status(workers, Status::OK());
  std::vector<uint64_t> worker_clipped(workers, 0);
  std::atomic<size_t> next_batch{0};
  std::atomic<bool> failed{false};

  auto run_worker = [&](size_t w) {
    // Batch i's generator is Rng(seed) jumped i times. Claimed indexes are
    // strictly increasing per worker, so each worker advances one cursor
    // incrementally instead of re-deriving Split(i) from scratch.
    Rng cursor(seed);
    size_t cursor_jumps = 0;
    for (;;) {
      const size_t i = next_batch.fetch_add(1);
      if (i >= num_batches || failed.load(std::memory_order_relaxed)) break;
      while (cursor_jumps < i) {
        cursor.Jump();
        ++cursor_jumps;
      }
      Rng batch_rng = cursor;
      const size_t count = std::min(batch, n - i * batch);
      auto drawn = pool.context(w).SampleBatch(i, count, batch_rng);
      if (!drawn.ok()) {
        worker_status[w] = drawn.status();
        failed.store(true, std::memory_order_relaxed);
        break;
      }
      if (drawn->size() > count) {
        worker_clipped[w] += drawn->size() - count;
        Truncate(&*drawn, count);
      }
      if (drawn->size() < count) {
        worker_status[w] = Status::Internal(
            "batch sampler returned " + std::to_string(drawn->size()) +
            " of " + std::to_string(count) + " requested tuples");
        failed.store(true, std::memory_order_relaxed);
        break;
      }
      slots[i] = std::move(*drawn);
    }
  };

  if (workers == 1) {
    run_worker(0);
  } else if (workers > 1) {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) threads.emplace_back(run_worker, w);
    for (auto& t : threads) t.join();
  }

  for (const Status& s : worker_status) {
    if (!s.ok()) return s;
  }

  if (stats != nullptr) {
    // Fan-out accounting only: the contexts belong to the pool's owner,
    // who folds their stats (and counts the contexts) exactly once.
    for (uint64_t clipped : worker_clipped) stats->parallel_clipped += clipped;
    stats->parallel_batches += num_batches;
    stats->parallel_seconds += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   wall_start)
                                   .count();
  }
  static obs::Counter* const batches =
      obs::MetricsRegistry::Global().GetCounter("suj_exec_batches_total");
  static obs::Histogram* const fanout_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "suj_exec_fanout_ns", obs::Histogram::DefaultLatencyBoundsNs());
  batches->Increment(num_batches);
  fanout_ns->Observe(static_cast<uint64_t>(
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - wall_start)
          .count()));

  Batch result = num_batches > 0 ? std::move(slots[0]) : Batch();
  Reserve(&result, n);
  for (size_t i = 1; i < num_batches; ++i) {
    AppendTo(&result, std::move(slots[i]));
  }
  return result;
}

template Result<std::vector<Tuple>> ParallelUnionExecutor::Execute(
    size_t, uint64_t, WorkerContextPoolOf<std::vector<Tuple>>&,
    UnionSampleStats*);
template Result<RowDrawBatch> ParallelUnionExecutor::Execute(
    size_t, uint64_t, WorkerContextPoolOf<RowDrawBatch>&, UnionSampleStats*);

Result<std::vector<Tuple>> ParallelUnionExecutor::Execute(
    size_t n, uint64_t seed, const BatchSamplerFactory& factory,
    UnionSampleStats* stats) {
  // One-shot contexts: built for this fan-out, retired right after it, so
  // (unlike the pool overload) their stats merge here.
  auto pool = WorkerContextPool::Build(EffectiveThreads(n), factory);
  if (!pool.ok()) return pool.status();
  auto result = Execute<std::vector<Tuple>>(n, seed, *pool, stats);
  if (!result.ok()) return result.status();
  if (stats != nullptr) {
    SUJ_RETURN_NOT_OK(pool->MergeStatsInto(stats));
    stats->parallel_workers += pool->size();
  }
  return result;
}

}  // namespace suj
