// SamplingService: the serving front end over the union-sampling stack.
//
// Concurrent clients talk to one service instance:
//
//   service.Prepare("q", joins);               // once: estimate + pin plan
//   auto sid = service.OpenSession("q");       // per client: RNG substream
//   auto batch = service.Sample(*sid, 1000);   // continues the protocol
//   auto stream = service.OpenStream(*sid, 100000);
//   while (auto chunk = stream->Next(); ...)   // pull; production overlaps
//
// The pieces: QueryRegistry pins prepared plans (service/prepared_union.h),
// SessionManager owns per-client protocol state on disjoint RNG substreams
// (service/session.h), AdmissionController bounds in-flight requests with
// FIFO-fair blocking or immediate ResourceExhausted rejection
// (service/admission.h), and SampleStream delivers large requests in
// chunks produced ahead of the consumer on a bounded buffer — the first
// chunks are being consumed while warm-up walks and later chunks are
// still running, which is the ROADMAP's "async pipeline that overlaps
// warm-up with the first sample batches".
//
// Determinism contract: a session's sample sequence is a function of
// (service seed, session creation rank, that session's own sequence of
// request sizes) — never of thread interleaving, admission order, or
// other sessions' activity.

#ifndef SUJ_SERVICE_SAMPLING_SERVICE_H_
#define SUJ_SERVICE_SAMPLING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/prepared_union.h"
#include "service/session.h"

namespace suj {

/// \brief Pull-based chunked delivery of one large sample request.
///
/// A producer thread draws chunk after chunk from the session (each chunk
/// individually admission-controlled, so a stream never monopolizes the
/// service) into a bounded buffer; Next() pops in production order.
/// Chunks are produced ahead of consumption up to the buffer bound —
/// the consumer processes chunk i while chunk i+1 is being sampled.
class SampleStream {
 public:
  struct Options {
    size_t chunk_size = 256;
    /// Producer runs this many chunks ahead of the consumer.
    size_t max_buffered_chunks = 4;
  };

  ~SampleStream();
  SampleStream(const SampleStream&) = delete;
  SampleStream& operator=(const SampleStream&) = delete;

  /// Next chunk in order. Blocks while the producer is behind. An empty
  /// vector means the stream is exhausted; errors are sticky.
  Result<std::vector<Tuple>> Next();
  /// Next, left as the session's sampler produced it (SessionSample).
  Result<SessionSample> NextDeferred();

  /// Stops production; buffered chunks are dropped. Interrupts a
  /// producer parked in the admission queue (it abandons its FIFO
  /// place) and skips any not-yet-started sampling, so teardown on a
  /// saturated service does not wait out the queue. Idempotent.
  void Cancel();

  size_t total_requested() const { return total_; }
  const std::shared_ptr<SamplingSession>& session() const { return session_; }

 private:
  friend class SamplingService;
  SampleStream(std::shared_ptr<SamplingSession> session,
               AdmissionController* admission, size_t total, Options options,
               std::function<void()> on_destroy);

  void ProducerLoop();

  const std::shared_ptr<SamplingSession> session_;
  AdmissionController* const admission_;
  const size_t total_;
  const Options options_;
  /// Releases the service's stream-count slot (runs once, in ~SampleStream).
  std::function<void()> on_destroy_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<SessionSample> ready_;
  size_t produced_ = 0;
  bool finished_ = false;   ///< producer exited (done, error, or cancel)
  /// Atomic so the producer's admission wait can poll it lock-free.
  std::atomic<bool> cancelled_{false};
  Status status_;           ///< sticky producer error
  std::thread producer_;    ///< last member: starts after state is ready
};

/// Service-wide configuration.
struct ServiceOptions {
  /// Base seed of the per-session substream family.
  uint64_t seed = 42;
  size_t max_sessions = 64;
  /// Concurrent requests past admission (AdmissionController).
  size_t max_inflight = 4;
  /// Concurrent open streams, service-wide. Each stream runs a producer
  /// thread, so this (not admission, which a merely-parked producer
  /// never consumes) is what bounds the thread count: OpenStream
  /// rejects with ResourceExhausted beyond it.
  size_t max_streams = 16;
  /// Bound on the admission wait queue (kWait callers parked behind the
  /// in-flight slots). 0 = unbounded (legacy in-process behavior); a
  /// serving front end SHOULD set it — under overload it converts
  /// unbounded queueing (latency for everyone) into immediate
  /// ResourceExhausted sheds for the excess.
  size_t max_admission_queue = 0;
  /// Registry plan-count / memory budgets (LRU eviction past them; live
  /// sessions keep evicted plans alive). Zeros = unlimited.
  QueryRegistry::Options registry;
  /// Defaults for Prepare calls without explicit options.
  PreparedQueryOptions query_defaults;
};

/// \brief Facade tying registry, sessions, admission, and streaming
/// together. Thread-safe; one instance serves many client threads.
class SamplingService {
 public:
  static Result<std::unique_ptr<SamplingService>> Create(
      ServiceOptions options);

  // ---- Prepared queries ----
  Result<PreparedUnionPtr> Prepare(std::string name,
                                   std::vector<JoinSpecPtr> joins);
  Result<PreparedUnionPtr> Prepare(std::string name,
                                   std::vector<JoinSpecPtr> joins,
                                   const PreparedQueryOptions& options);
  Result<PreparedUnionPtr> GetQuery(const std::string& name) const;
  /// Applies append/delete batches to the named query's base relations,
  /// producing a new data epoch (incremental refresh; see QueryRegistry).
  /// Existing sessions keep sampling their pinned epoch; new sessions see
  /// the returned plan.
  Result<PreparedUnionPtr> ApplyDelta(const std::string& name,
                                      const std::vector<RelationDelta>& deltas);
  /// Unpins a query; live sessions keep their plan (see QueryRegistry).
  Status Evict(const std::string& name);

  // ---- Sessions ----
  /// Opens a session on a prepared query; returns its id.
  Result<uint64_t> OpenSession(const std::string& query_name,
                               SessionOptions options = SessionOptions());
  Status CloseSession(uint64_t session_id);
  Result<SessionStatsSnapshot> SessionStats(uint64_t session_id) const;

  // ---- Sampling ----
  /// Draws `n` tuples on the session, admission-gated per `mode`.
  Result<std::vector<Tuple>> Sample(uint64_t session_id, size_t n,
                                    AdmitMode mode = AdmitMode::kWait);
  /// Sample, left as the session's sampler produced it: oracle sessions
  /// return row draws, so a caller that only writes bytes never builds a
  /// Tuple.
  Result<SessionSample> SampleDeferred(uint64_t session_id, size_t n,
                                       AdmitMode mode = AdmitMode::kWait);

  /// Starts chunked streaming delivery of `total` tuples. The stream
  /// holds the session alive; closing the session or evicting the query
  /// does not invalidate it. Destroy (or Cancel) the stream to stop.
  /// Lifetime: every stream must be destroyed BEFORE the service — its
  /// producer runs against the service's admission controller.
  Result<std::unique_ptr<SampleStream>> OpenStream(
      uint64_t session_id, size_t total,
      SampleStream::Options options = SampleStream::Options());

  // ---- Introspection ----
  const ServiceOptions& options() const { return options_; }
  QueryRegistry& registry() { return registry_; }
  const QueryRegistry& registry() const { return registry_; }
  AdmissionController& admission() { return admission_; }
  SessionManager& sessions() { return sessions_; }

 private:
  explicit SamplingService(ServiceOptions options);

  ServiceOptions options_;
  QueryRegistry registry_;
  SessionManager sessions_;
  AdmissionController admission_;
  /// Open-stream count. Streams must be destroyed before the service
  /// (see OpenStream); the shared_ptr merely keeps the release hook
  /// self-contained rather than blessing stragglers.
  std::shared_ptr<std::atomic<size_t>> open_streams_ =
      std::make_shared<std::atomic<size_t>>(0);
};

}  // namespace suj

#endif  // SUJ_SERVICE_SAMPLING_SERVICE_H_
