#include "net/server.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace suj {
namespace net {

namespace {

// One cached instrument per shed point / stage, resolved on first use.
obs::Counter* NetCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

const char* OpName(MessageType type) {
  switch (type) {
    case MessageType::kPrepare: return "prepare";
    case MessageType::kOpenSession: return "open_session";
    case MessageType::kSample: return "sample";
    case MessageType::kStreamSample: return "stream_sample";
    case MessageType::kCloseSession: return "close_session";
    case MessageType::kSessionStats: return "session_stats";
    case MessageType::kServerStats: return "server_stats";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kApplyDelta: return "apply_delta";
    default: return "unknown";
  }
}

}  // namespace

SujServer::SujServer(SamplingService* service, SpecResolver resolver,
                     ServerOptions options)
    : service_(service),
      resolver_(std::move(resolver)),
      options_(std::move(options)),
      governor_(TenantGovernor::Options{options_.default_quota}) {}

SujServer::~SujServer() { Stop(); }

int64_t SujServer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SujServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  if (options_.slow_request_ns >= 0) {
    obs::Tracer::Global().set_slow_threshold_ns(options_.slow_request_ns);
  }
  SUJ_ASSIGN_OR_RETURN(
      listener_,
      TcpListener::Listen(options_.host, options_.port, options_.backlog));
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.session_idle_timeout_ns > 0) {
    reaper_thread_ = std::thread([this] { ReaperLoop(); });
  }
  return Status::OK();
}

void SujServer::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock the accept loop, then every connection handler. shutdown()
  // (not close) so handler threads blocked in ReadFull return without a
  // use-after-close race on the fd.
  listener_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    reaper_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) c->conn.Shutdown();
  }
  // Handlers observe the shutdown and exit; join outside conns_mu_ is
  // unnecessary since only this thread mutates conns_ once running_ is
  // false (the accept loop has exited).
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& c : conns_) {
    if (c->thread.joinable()) c->thread.join();
  }
  conns_.clear();
  listener_.Close();
}

void SujServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!running_.load(std::memory_order_acquire)) return;
      continue;  // transient accept error; keep serving
    }
    // Reap finished handler threads so a long-lived server does not
    // accumulate joinable corpses.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      if (conns_.size() >= options_.max_connections) {
        // Shed: tell the client why before hanging up.
        connections_shed_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter* const shed =
            NetCounter("suj_net_connections_shed_total");
        shed->Increment();
        TcpConn conn = std::move(accepted).value();
        SendStatus(conn, Status::ResourceExhausted(
                             "server at connection capacity (" +
                             std::to_string(options_.max_connections) +
                             "); retry with backoff"));
        continue;  // conn closes on scope exit
      }
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter* const accepted_counter =
          NetCounter("suj_net_connections_accepted_total");
      accepted_counter->Increment();
      auto state = std::make_unique<Connection>();
      state->conn = std::move(accepted).value();
      Connection* raw = state.get();
      state->thread = std::thread([this, raw] { HandleConnection(raw); });
      conns_.push_back(std::move(state));
    }
  }
}

void SujServer::ReaperLoop() {
  const auto interval =
      std::chrono::nanoseconds(options_.reap_interval_ns > 0
                                   ? options_.reap_interval_ns
                                   : 50'000'000);
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(reaper_mu_);
      reaper_cv_.wait_for(lock, interval, [this] {
        return !running_.load(std::memory_order_acquire);
      });
    }
    if (!running_.load(std::memory_order_acquire)) return;
    auto reaped = service_->sessions().ReapIdle(
        NowNs(), options_.session_idle_timeout_ns);
    static obs::Counter* const reaped_counter =
        NetCounter("suj_net_sessions_reaped_total");
    for (uint64_t id : reaped) {
      ReleaseSession(id);
      sessions_reaped_.fetch_add(1, std::memory_order_relaxed);
      reaped_counter->Increment();
    }
  }
}

void SujServer::ReleaseSession(uint64_t session_id) {
  std::string tenant;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = session_tenants_.find(session_id);
    if (it == session_tenants_.end()) return;
    tenant = it->second;
    session_tenants_.erase(it);
  }
  governor_.OnSessionClosed(tenant, session_id);
}

Status SujServer::SendStatus(TcpConn& conn, const Status& status) {
  return WriteTimed(conn, MessageType::kStatus,
                    StatusPayload::FromStatus(status).Encode());
}

Status SujServer::WriteTimed(TcpConn& conn, MessageType type,
                             const std::string& body) const {
  obs::ScopedSpan span(obs::Stage::kWireWrite);
  return WriteFrame(conn, type, body, options_.max_frame_bytes);
}

Status SujServer::CheckTuplesFit(uint64_t session_id, uint64_t tuples,
                                 const char* what) const {
  // The smallest frame that can carry the tuples: the type byte, the
  // chunk's u32 count, then per tuple a u32 length prefix and at least
  // one byte per field.
  const uint64_t room =
      options_.max_frame_bytes > 5 ? options_.max_frame_bytes - 5 : 0;
  if (tuples <= room / 5) return Status::OK();  // fits at any arity
  auto session = service_->sessions().Get(session_id);
  if (!session.ok()) return Status::OK();
  const uint64_t fit =
      room / (4 + session.value()->plan()->joins().front()->output_schema()
                      .num_fields());
  if (tuples > fit) {
    return Status::InvalidArgument(
        std::string(what) + " " + std::to_string(tuples) +
        " cannot fit in one " + std::to_string(options_.max_frame_bytes) +
        "-byte frame (at most " + std::to_string(fit) + " tuples)");
  }
  return Status::OK();
}

void SujServer::HandleConnection(Connection* state) {
  TcpConn& conn = state->conn;
  std::string tenant;
  // First frame must be Hello: bind the protocol version and tenant.
  do {
    auto frame = ReadFrame(conn, options_.max_frame_bytes);
    if (!frame.ok()) break;
    if (frame.value().type != MessageType::kHello) {
      SendStatus(conn, Status::FailedPrecondition(
                           "first frame must be Hello"));
      break;
    }
    auto hello = HelloRequest::Decode(frame.value().body);
    if (!hello.ok()) {
      SendStatus(conn, hello.status());
      break;
    }
    if (hello.value().version != kProtocolVersion) {
      version_rejects_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter* const version_rejects =
          NetCounter("suj_net_version_rejects_total");
      version_rejects->Increment();
      SendStatus(conn, Status::InvalidArgument(
                           "protocol version " +
                           std::to_string(hello.value().version) +
                           " unsupported (server speaks " +
                           std::to_string(kProtocolVersion) + ")"));
      break;
    }
    tenant = hello.value().tenant.empty() ? "default" : hello.value().tenant;
    if (!SendStatus(conn, Status::OK()).ok()) break;

    // Request loop: one frame in, one response (or a chunk stream) out.
    static obs::Counter* const requests_counter =
        NetCounter("suj_net_requests_total");
    static obs::Histogram* const request_ns =
        obs::MetricsRegistry::Global().GetHistogram(
            "suj_net_request_ns", obs::Histogram::DefaultLatencyBoundsNs());
    for (;;) {
      const int64_t read_start_ns = obs::MonotonicNs();
      auto request = ReadFrame(conn, options_.max_frame_bytes);
      if (!request.ok()) break;  // peer hung up or sent garbage
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      requests_counter->Increment();
      // The trace starts AFTER the request frame arrives: the wire_read
      // span includes peer think time (the gap between requests), so it
      // is recorded but kept out of the slow-log total.
      obs::TraceContext trace(obs::Tracer::Global().NextTraceId(),
                              OpName(request.value().type));
      trace.Record(obs::Stage::kWireRead, read_start_ns,
                   trace.start_ns() - read_start_ns);
      obs::TraceScope scope(&trace);
      const Status dispatched = Dispatch(conn, tenant, request.value());
      request_ns->Observe(
          static_cast<uint64_t>(obs::MonotonicNs() - trace.start_ns()));
      obs::Tracer::Global().Finish(trace, tenant);
      if (!dispatched.ok()) break;
    }
  } while (false);
  state->done.store(true, std::memory_order_release);
}

Status SujServer::Dispatch(TcpConn& conn, const std::string& tenant,
                           const Frame& frame) {
  switch (frame.type) {
    case MessageType::kPrepare:
      return HandlePrepare(conn, frame);
    case MessageType::kOpenSession:
      return HandleOpenSession(conn, tenant, frame);
    case MessageType::kSample:
      return HandleSample(conn, tenant, frame);
    case MessageType::kStreamSample:
      return HandleStreamSample(conn, tenant, frame);
    case MessageType::kCloseSession:
      return HandleCloseSession(conn, frame);
    case MessageType::kSessionStats:
      return HandleSessionStats(conn, frame);
    case MessageType::kServerStats:
      return HandleServerStats(conn);
    case MessageType::kMetrics:
      return HandleMetrics(conn);
    case MessageType::kApplyDelta:
      return HandleApplyDelta(conn, frame);
    default:
      return SendStatus(
          conn, Status::InvalidArgument(
                    "unexpected message type " +
                    std::to_string(static_cast<int>(frame.type))));
  }
}

Status SujServer::HandlePrepare(TcpConn& conn, const Frame& frame) {
  auto request = PrepareRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());
  const std::string& query = request.value().query;

  // Idempotent: many tenants prepare the same shared query; the first
  // pays the build, the rest get the pinned plan's identity. A repeat
  // Prepare with DIFFERENT shard options does not re-shard — the plan
  // is pinned once; the response's num_shards reports what it is.
  auto plan = service_->GetQuery(query);
  if (!plan.ok()) {
    auto joins = resolver_(query);
    if (!joins.ok()) return SendStatus(conn, joins.status());
    PreparedQueryOptions prep = service_->options().query_defaults;
    if (request.value().num_shards > 0) {
      prep.shard.num_shards = static_cast<int>(request.value().num_shards);
      if (request.value().shard_scheme > 1) {
        return SendStatus(conn, Status::InvalidArgument(
                                    "unknown shard scheme " +
                                    std::to_string(
                                        request.value().shard_scheme)));
      }
      prep.shard.scheme = request.value().shard_scheme == 1
                              ? ShardScheme::kRowRange
                              : ShardScheme::kHashKey;
      if (request.value().virtual_partitions > 0) {
        prep.shard.virtual_partitions =
            static_cast<int>(request.value().virtual_partitions);
      }
    }
    plan = service_->Prepare(query, std::move(joins).value(), prep);
    if (!plan.ok()) {
      // Raced with another connection's Prepare of the same name.
      auto again = service_->GetQuery(query);
      if (!again.ok()) return SendStatus(conn, plan.status());
      plan = std::move(again);
    }
  }
  PrepareResponse rsp;
  rsp.plan_id = plan.value()->plan_id();
  rsp.build_seconds = plan.value()->build_seconds();
  rsp.approx_memory_bytes = plan.value()->approx_memory_bytes();
  rsp.num_shards =
      plan.value()->shards() != nullptr
          ? static_cast<uint32_t>(plan.value()->shards()->num_shards())
          : 1;
  return WriteTimed(conn, MessageType::kPrepareRsp, rsp.Encode());
}

Status SujServer::HandleOpenSession(TcpConn& conn, const std::string& tenant,
                                    const Frame& frame) {
  auto request = OpenSessionRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());
  auto session_options = request.value().ToSessionOptions();
  if (!session_options.ok()) return SendStatus(conn, session_options.status());

  auto session_id = service_->OpenSession(request.value().query,
                                          session_options.value());
  if (!session_id.ok()) return SendStatus(conn, session_id.status());

  // Governor second: it needs the session id for the per-session bucket.
  // On rejection the just-created session is rolled back before the
  // client ever learns its id.
  Status admitted =
      governor_.AdmitSession(tenant, session_id.value(), NowNs());
  if (!admitted.ok()) {
    service_->CloseSession(session_id.value());
    return SendStatus(conn, admitted);
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session_tenants_[session_id.value()] = tenant;
  }
  if (auto session = service_->sessions().Get(session_id.value());
      session.ok()) {
    session.value()->Touch(NowNs());
  }
  OpenSessionResponse rsp;
  rsp.session_id = session_id.value();
  return WriteTimed(conn, MessageType::kOpenSessionRsp, rsp.Encode());
}

Status SujServer::HandleSample(TcpConn& conn, const std::string& tenant,
                               const Frame& frame) {
  auto request = SampleRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());
  const uint64_t session_id = request.value().session_id;
  Status fits = CheckTuplesFit(session_id, request.value().n, "Sample.n");
  if (!fits.ok()) return SendStatus(conn, fits);

  // Counted BEFORE the quota gate: the loadgen reconciliation invariant
  // is sample_requests == admitted + shed, so the counter must see every
  // arrival, shed or not.
  static obs::Counter* const sample_requests =
      NetCounter("suj_net_sample_requests_total");
  sample_requests->Increment();

  Status quota = [&] {
    obs::ScopedSpan span(obs::Stage::kTenantCheck);
    return governor_.AdmitRequest(tenant, session_id, NowNs());
  }();
  if (!quota.ok()) return SendStatus(conn, quota);

  auto sample = service_->SampleDeferred(
      session_id, request.value().n,
      request.value().wait ? AdmitMode::kWait : AdmitMode::kReject);
  if (!sample.ok()) return SendStatus(conn, sample.status());

  if (auto session = service_->sessions().Get(session_id); session.ok()) {
    session.value()->Touch(NowNs());
  }
  Status written = WriteTimed(conn, MessageType::kSampleRsp,
                              TupleChunk::EncodeSample(sample.value()));
  // The pre-check bounds only the smallest encoding. A larger response
  // was refused before any byte went out, so the connection is still in
  // sync for the error reply.
  if (written.code() == StatusCode::kInvalidArgument) {
    return SendStatus(conn, written);
  }
  return written;
}

Status SujServer::HandleStreamSample(TcpConn& conn, const std::string& tenant,
                                     const Frame& frame) {
  auto request = StreamSampleRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());
  const uint64_t session_id = request.value().session_id;
  const uint32_t chunk_size =
      request.value().chunk_size > 0 ? request.value().chunk_size : 256;
  // The largest chunk the stream can send: a chunk_size past the total
  // never fills.
  Status fits = CheckTuplesFit(
      session_id, std::min<uint64_t>(chunk_size, request.value().total),
      "chunk_size");
  if (!fits.ok()) return SendStatus(conn, fits);

  // One stream charges one quota token: the admission controller gates
  // every chunk individually, so per-chunk quota charges would just
  // double-count the same work at a coarser layer.
  Status quota = [&] {
    obs::ScopedSpan span(obs::Stage::kTenantCheck);
    return governor_.AdmitRequest(tenant, session_id, NowNs());
  }();
  if (!quota.ok()) return SendStatus(conn, quota);

  SampleStream::Options stream_options;
  stream_options.chunk_size = chunk_size;
  stream_options.max_buffered_chunks = options_.stream_max_buffered_chunks;
  auto stream = service_->OpenStream(session_id, request.value().total,
                                     stream_options);
  if (!stream.ok()) return SendStatus(conn, stream.status());

  // Touched per DELIVERED chunk, not once after the loop: a long slow
  // stream is live client activity chunk by chunk, and a single
  // post-loop Touch let the idle reaper close the session mid-stream
  // (the stream itself survived — it pins the session shared_ptr — but
  // the id was gone, so follow-up requests failed NotFound).
  auto touch_session = [&] {
    if (auto session = service_->sessions().Get(session_id); session.ok()) {
      session.value()->Touch(NowNs());
    }
  };
  for (;;) {
    auto batch = stream.value()->NextDeferred();
    if (!batch.ok()) {
      // Mid-stream application error: report in StreamEnd; connection
      // stays usable.
      return WriteTimed(conn, MessageType::kStreamEnd,
                        StatusPayload::FromStatus(batch.status()).Encode());
    }
    if (batch.value().empty()) break;  // exhausted
    Status io = WriteTimed(conn, MessageType::kStreamChunk,
                           TupleChunk::EncodeSample(batch.value()));
    if (!io.ok()) {
      stream.value()->Cancel();  // consumer is gone or chunk too large
      if (io.code() != StatusCode::kInvalidArgument) return io;
      // Refused before any byte went out: end the stream with the error.
      return WriteTimed(conn, MessageType::kStreamEnd,
                        StatusPayload::FromStatus(io).Encode());
    }
    touch_session();
  }
  touch_session();
  return WriteTimed(conn, MessageType::kStreamEnd,
                    StatusPayload::FromStatus(Status::OK()).Encode());
}

Status SujServer::HandleCloseSession(TcpConn& conn, const Frame& frame) {
  auto request = CloseSessionRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());
  Status closed = service_->CloseSession(request.value().session_id);
  if (closed.ok()) ReleaseSession(request.value().session_id);
  return SendStatus(conn, closed);
}

Status SujServer::HandleSessionStats(TcpConn& conn, const Frame& frame) {
  auto request = SessionStatsRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());
  auto stats = service_->SessionStats(request.value().session_id);
  if (!stats.ok()) return SendStatus(conn, stats.status());
  // Stats polling is client activity: a monitored session is not an
  // abandoned one, so it must not idle out under the reaper.
  if (auto session = service_->sessions().Get(request.value().session_id);
      session.ok()) {
    session.value()->Touch(NowNs());
  }

  const SessionStatsSnapshot& s = stats.value();
  SessionStatsResponse rsp;
  rsp.session_id = s.session_id;
  rsp.plan_id = s.plan_id;
  rsp.query = s.query;
  rsp.requests = s.requests;
  rsp.tuples_delivered = s.tuples_delivered;
  rsp.revision_buffered = s.revision_buffered;
  rsp.revision_surplus_high_water = s.revision_surplus_high_water;
  rsp.sampler_accepted = s.sampler.accepted;
  rsp.sampler_join_draws = s.sampler.join_draws;
  return WriteTimed(conn, MessageType::kSessionStatsRsp, rsp.Encode());
}

Status SujServer::HandleServerStats(TcpConn& conn) {
  return WriteTimed(conn, MessageType::kServerStatsRsp,
                    StatsSnapshot().Encode());
}

Status SujServer::HandleMetrics(TcpConn& conn) {
  // Gauges are levels, not flows: refresh them at scrape time from the
  // authoritative sources instead of tracking every transition.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("suj_sessions_open")
      ->Set(static_cast<int64_t>(service_->sessions().size()));
  registry.GetGauge("suj_plans_resident")
      ->Set(static_cast<int64_t>(service_->registry().size()));
  registry.GetGauge("suj_registry_resident_bytes")
      ->Set(static_cast<int64_t>(
          service_->registry().snapshot().resident_bytes));
  registry.GetGauge("suj_admission_in_flight")
      ->Set(static_cast<int64_t>(service_->admission().in_flight()));
  MetricsResponse rsp;
  rsp.text = registry.RenderPrometheusText();
  return WriteTimed(conn, MessageType::kMetricsRsp, rsp.Encode());
}

Status SujServer::HandleApplyDelta(TcpConn& conn, const Frame& frame) {
  auto request = ApplyDeltaRequest::Decode(frame.body);
  if (!request.ok()) return SendStatus(conn, request.status());

  std::vector<RelationDelta> deltas;
  deltas.reserve(request.value().deltas.size());
  for (const auto& wire : request.value().deltas) {
    RelationDelta delta;
    delta.relation = wire.relation;
    delta.appends.reserve(wire.encoded_appends.size());
    for (const auto& enc : wire.encoded_appends) {
      auto tuple = DecodeTuple(enc);
      if (!tuple.ok()) return SendStatus(conn, tuple.status());
      delta.appends.push_back(std::move(tuple).value());
    }
    delta.deletes = wire.delete_rows;
    deltas.push_back(std::move(delta));
  }

  auto plan = service_->ApplyDelta(request.value().query, deltas);
  if (!plan.ok()) return SendStatus(conn, plan.status());

  ApplyDeltaResponse rsp;
  rsp.epoch = plan.value()->data_epoch();
  rsp.delta_rows = plan.value()->delta_rows();
  rsp.refresh_seconds = plan.value()->build_seconds();
  rsp.approx_memory_bytes = plan.value()->approx_memory_bytes();
  return WriteTimed(conn, MessageType::kApplyDeltaRsp, rsp.Encode());
}

ServerStatsResponse SujServer::StatsSnapshot() const {
  ServerStatsResponse rsp;
  auto admission = service_->admission().snapshot();
  rsp.admitted = admission.admitted;
  rsp.rejected = admission.rejected;
  rsp.waited = admission.waited;
  rsp.queue_overflows = admission.queue_overflows;
  rsp.peak_in_flight = admission.peak_in_flight;
  rsp.peak_queue_depth = admission.peak_queue_depth;
  auto registry = service_->registry().snapshot();
  rsp.plans_resident = service_->registry().size();
  rsp.plans_evicted_for_budget = registry.evicted_for_budget;
  rsp.registry_resident_bytes = registry.resident_bytes;
  rsp.sessions_open = service_->sessions().size();
  rsp.sessions_ever_opened = service_->sessions().ever_opened();
  rsp.sessions_reaped = sessions_reaped_.load(std::memory_order_relaxed);
  rsp.quota_shed_total = governor_.total_shed();
  rsp.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  rsp.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  rsp.requests_served = requests_served_.load(std::memory_order_relaxed);
  // v2 shed breakdown — per-SERVER sources (a process can host several
  // servers in tests; the process-global obs counters would bleed).
  rsp.version_rejects = version_rejects_.load(std::memory_order_relaxed);
  rsp.quota_shed_tenant = governor_.total_shed_tenant_quota();
  rsp.quota_shed_session = governor_.total_shed_session_quota();
  rsp.sessions_quota_rejected = governor_.total_sessions_rejected();
  rsp.plans_evicted = registry.evicted;
  // v3 shard block — from the process-global obs counters (the shard
  // layer has no per-server state; tests reconciling across servers in
  // one process must diff snapshots rather than compare absolutes).
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  rsp.shard_draws = metrics.GetCounter("suj_shard_draws_total")->Value();
  rsp.shard_walk_draws =
      metrics.GetCounter("suj_shard_walk_draws_total")->Value();
  rsp.shard_weight_refreshes =
      metrics.GetCounter("suj_shard_weight_refresh_total")->Value();
  rsp.shard_unavailable_errors =
      metrics.GetCounter("suj_shard_unavailable_total")->Value();
  return rsp;
}

}  // namespace net
}  // namespace suj
