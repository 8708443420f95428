#include "service/sampling_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace suj {

// ---------------------------------------------------------------------------
// SampleStream

SampleStream::SampleStream(std::shared_ptr<SamplingSession> session,
                           AdmissionController* admission, size_t total,
                           Options options, std::function<void()> on_destroy)
    : session_(std::move(session)),
      admission_(admission),
      total_(total),
      options_(options),
      on_destroy_(std::move(on_destroy)),
      producer_([this] { ProducerLoop(); }) {}

SampleStream::~SampleStream() {
  Cancel();
  if (producer_.joinable()) producer_.join();
  if (on_destroy_) on_destroy_();
}

void SampleStream::ProducerLoop() {
  // The producer is its own thread, so it carries its own trace: chunk
  // spans (and the admission/walk spans recorded inside Sample) land
  // here, not in the request that opened the stream. Finished at loop
  // exit — a slow STREAM shows up in the slow log as one entry covering
  // its whole lifetime, broken down by stage.
  static obs::Histogram* const chunk_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "suj_service_stream_chunk_ns",
          obs::Histogram::DefaultLatencyBoundsNs());
  obs::TraceContext trace(obs::Tracer::Global().NextTraceId(),
                          "stream_producer");
  obs::TraceScope scope(&trace);
  while (true) {
    size_t count;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return cancelled_.load() ||
               ready_.size() < options_.max_buffered_chunks;
      });
      if (cancelled_.load() || produced_ >= total_) break;
      count = std::min(options_.chunk_size, total_ - produced_);
    }
    // Admission + sampling run unlocked: Next() keeps draining while the
    // next chunk is being produced — that concurrency is the stream's
    // entire point. Each chunk takes its own FIFO turn (inside the
    // session's serialization, so waiting for the session never holds a
    // slot), which keeps a long stream sharing the service with
    // interactive requests. The cancel flag interrupts the admission
    // wait and skips not-yet-started sampling.
    const int64_t chunk_start_ns = obs::MonotonicNs();
    auto chunk =
        session_->Sample(count, *admission_, AdmitMode::kWait, &cancelled_);
    const int64_t chunk_dur_ns = obs::MonotonicNs() - chunk_start_ns;
    chunk_ns->Observe(static_cast<uint64_t>(chunk_dur_ns));
    trace.Record(obs::Stage::kStreamChunk, chunk_start_ns, chunk_dur_ns);
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_.load()) break;  // covers cancellation-induced errors
    if (!chunk.ok()) {
      status_ = chunk.status();
      break;
    }
    produced_ += chunk->size();
    ready_.push_back(std::move(chunk).value());
    cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    cv_.notify_all();
  }
  obs::Tracer::Global().Finish(trace);
}

Result<std::vector<Tuple>> SampleStream::Next() {
  SUJ_ASSIGN_OR_RETURN(SessionSample chunk, NextDeferred());
  return std::move(chunk).ToTuples();
}

Result<SessionSample> SampleStream::NextDeferred() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !ready_.empty() || finished_; });
  if (!ready_.empty()) {
    SessionSample chunk = std::move(ready_.front());
    ready_.pop_front();
    cv_.notify_all();  // frees a buffer slot for the producer
    return chunk;
  }
  if (!status_.ok()) return status_;
  if (cancelled_.load()) {
    return Status::FailedPrecondition("stream was cancelled");
  }
  return SessionSample();  // clean end of stream
}

void SampleStream::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_.store(true);
    ready_.clear();
    cv_.notify_all();
  }
  // Kick a producer parked in the admission queue so it can observe the
  // flag and abandon its FIFO place.
  admission_->CancelWake();
}

// ---------------------------------------------------------------------------
// SamplingService

SamplingService::SamplingService(ServiceOptions options)
    : options_(options),
      registry_(options.registry),
      sessions_(SessionManager::Options{options.seed, options.max_sessions}),
      admission_(AdmissionController::Options{options.max_inflight,
                                              options.max_admission_queue}) {}

Result<std::unique_ptr<SamplingService>> SamplingService::Create(
    ServiceOptions options) {
  if (options.max_inflight == 0) {
    return Status::InvalidArgument("max_inflight must be >= 1");
  }
  if (options.max_sessions == 0) {
    return Status::InvalidArgument("max_sessions must be >= 1");
  }
  if (options.max_streams == 0) {
    return Status::InvalidArgument("max_streams must be >= 1");
  }
  return std::unique_ptr<SamplingService>(new SamplingService(options));
}

namespace {

// Shared by both Prepare overloads: counts the prepare and times it into
// the prepare histogram + the current request's trace (if any).
struct PrepareInstrumentation {
  PrepareInstrumentation() : span(obs::Stage::kPrepare) {
    static obs::Counter* const prepares =
        obs::MetricsRegistry::Global().GetCounter(
            "suj_service_prepares_total");
    prepares->Increment();
  }
  ~PrepareInstrumentation() {
    static obs::Histogram* const prepare_ns =
        obs::MetricsRegistry::Global().GetHistogram(
            "suj_service_prepare_ns",
            obs::Histogram::DefaultLatencyBoundsNs());
    prepare_ns->Observe(static_cast<uint64_t>(obs::MonotonicNs() - start_ns));
  }
  int64_t start_ns = obs::MonotonicNs();
  obs::ScopedSpan span;
};

}  // namespace

Result<PreparedUnionPtr> SamplingService::Prepare(
    std::string name, std::vector<JoinSpecPtr> joins) {
  PrepareInstrumentation prep;
  return registry_.Prepare(std::move(name), std::move(joins),
                           options_.query_defaults);
}

Result<PreparedUnionPtr> SamplingService::Prepare(
    std::string name, std::vector<JoinSpecPtr> joins,
    const PreparedQueryOptions& options) {
  PrepareInstrumentation prep;
  return registry_.Prepare(std::move(name), std::move(joins), options);
}

Result<PreparedUnionPtr> SamplingService::GetQuery(
    const std::string& name) const {
  return registry_.Get(name);
}

Result<PreparedUnionPtr> SamplingService::ApplyDelta(
    const std::string& name, const std::vector<RelationDelta>& deltas) {
  const int64_t start_ns = obs::MonotonicNs();
  auto plan = registry_.ApplyDelta(name, deltas);
  if (!plan.ok()) return plan.status();
  static obs::Counter* const epochs =
      obs::MetricsRegistry::Global().GetCounter("suj_data_epochs_total");
  static obs::Counter* const delta_rows =
      obs::MetricsRegistry::Global().GetCounter("suj_delta_rows_total");
  static obs::Histogram* const refresh_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "suj_epoch_refresh_ns", obs::Histogram::DefaultLatencyBoundsNs());
  epochs->Increment();
  delta_rows->Increment((*plan)->delta_rows());
  refresh_ns->Observe(static_cast<uint64_t>(obs::MonotonicNs() - start_ns));
  return plan;
}

Status SamplingService::Evict(const std::string& name) {
  return registry_.Evict(name);
}

Result<uint64_t> SamplingService::OpenSession(const std::string& query_name,
                                              SessionOptions options) {
  auto plan = registry_.Get(query_name);
  if (!plan.ok()) return plan.status();
  auto session = sessions_.Open(std::move(plan).value(), options);
  if (!session.ok()) return session.status();
  return (*session)->id();
}

Status SamplingService::CloseSession(uint64_t session_id) {
  return sessions_.Close(session_id);
}

Result<SessionStatsSnapshot> SamplingService::SessionStats(
    uint64_t session_id) const {
  auto session = sessions_.Get(session_id);
  if (!session.ok()) return session.status();
  return (*session)->stats();
}

Result<std::vector<Tuple>> SamplingService::Sample(uint64_t session_id,
                                                   size_t n, AdmitMode mode) {
  SUJ_ASSIGN_OR_RETURN(SessionSample sample,
                       SampleDeferred(session_id, n, mode));
  return std::move(sample).ToTuples();
}

Result<SessionSample> SamplingService::SampleDeferred(uint64_t session_id,
                                                      size_t n,
                                                      AdmitMode mode) {
  // The session shared_ptr is snapshotted up front: a concurrent
  // CloseSession then only drops the manager's reference. Admission
  // happens inside the session's serialization (see SamplingSession).
  auto session = sessions_.Get(session_id);
  if (!session.ok()) return session.status();
  return (*session)->Sample(n, admission_, mode);
}

Result<std::unique_ptr<SampleStream>> SamplingService::OpenStream(
    uint64_t session_id, size_t total, SampleStream::Options options) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  if (options.max_buffered_chunks == 0) {
    return Status::InvalidArgument("max_buffered_chunks must be positive");
  }
  auto session = sessions_.Get(session_id);
  if (!session.ok()) return session.status();
  // Bound the producer-thread population BEFORE spawning: admission only
  // throttles requests in flight, and a parked producer holds no slot.
  size_t streams = open_streams_->fetch_add(1);
  if (streams >= options_.max_streams) {
    open_streams_->fetch_sub(1);
    return Status::ResourceExhausted(
        "stream limit reached (" + std::to_string(streams) + "/" +
        std::to_string(options_.max_streams) +
        "); close streams first");
  }
  auto counter = open_streams_;
  try {
    return std::unique_ptr<SampleStream>(new SampleStream(
        std::move(session).value(), &admission_, total, options,
        [counter] { counter->fetch_sub(1); }));
  } catch (const std::system_error& e) {
    // Producer thread creation failed (thread exhaustion): the stream
    // destructor will never run, so give the slot back here.
    counter->fetch_sub(1);
    return Status::ResourceExhausted(
        std::string("cannot start stream producer thread: ") + e.what());
  }
}

}  // namespace suj
