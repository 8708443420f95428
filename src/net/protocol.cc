#include "net/protocol.h"

namespace suj {
namespace net {

// ---------------------------------------------------------------------------
// Framing

Status WriteFrame(TcpConn& conn, MessageType type, const std::string& body,
                  uint32_t max_frame) {
  // The u32 length prefix counts the type byte too. Refusing here writes
  // nothing, so the connection stays in sync for the caller's reply.
  if (body.size() >= max_frame) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(body.size() + 1) +
        " bytes exceeds the " + std::to_string(max_frame) + "-byte limit");
  }
  std::string frame;
  frame.reserve(5 + body.size());
  WireWriter w(&frame);
  w.PutU32(static_cast<uint32_t>(body.size() + 1));
  w.PutU8(static_cast<uint8_t>(type));
  frame.append(body);
  return conn.WriteFull(frame.data(), frame.size());
}

Result<Frame> ReadFrame(TcpConn& conn, uint32_t max_frame) {
  char len_buf[4];
  SUJ_RETURN_NOT_OK(conn.ReadFull(len_buf, 4));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<unsigned char>(len_buf[i]))
           << (8 * i);
  }
  if (len == 0) {
    return Status::InvalidArgument("empty frame (missing type byte)");
  }
  if (len > max_frame) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(max_frame) + "-byte limit");
  }
  std::string payload(len, '\0');
  SUJ_RETURN_NOT_OK(conn.ReadFull(payload.data(), len));
  Frame frame;
  frame.type = static_cast<MessageType>(static_cast<uint8_t>(payload[0]));
  frame.body = payload.substr(1);
  return frame;
}

// ---------------------------------------------------------------------------
// Messages

std::string HelloRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU32(version);
  w.PutBytes(tenant);
  return body;
}

Result<HelloRequest> HelloRequest::Decode(std::string_view body) {
  WireReader r(body);
  HelloRequest out;
  SUJ_ASSIGN_OR_RETURN(out.version, r.GetU32());
  SUJ_ASSIGN_OR_RETURN(out.tenant, r.GetString());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string PrepareRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutBytes(query);
  w.PutU32(num_shards);
  w.PutU8(shard_scheme);
  w.PutU32(virtual_partitions);
  return body;
}

Result<PrepareRequest> PrepareRequest::Decode(std::string_view body) {
  WireReader r(body);
  PrepareRequest out;
  SUJ_ASSIGN_OR_RETURN(out.query, r.GetString());
  SUJ_ASSIGN_OR_RETURN(out.num_shards, r.GetU32());
  SUJ_ASSIGN_OR_RETURN(out.shard_scheme, r.GetU8());
  SUJ_ASSIGN_OR_RETURN(out.virtual_partitions, r.GetU32());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string PrepareResponse::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(plan_id);
  w.PutDouble(build_seconds);
  w.PutU64(approx_memory_bytes);
  w.PutU32(num_shards);
  return body;
}

Result<PrepareResponse> PrepareResponse::Decode(std::string_view body) {
  WireReader r(body);
  PrepareResponse out;
  SUJ_ASSIGN_OR_RETURN(out.plan_id, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.build_seconds, r.GetDouble());
  SUJ_ASSIGN_OR_RETURN(out.approx_memory_bytes, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.num_shards, r.GetU32());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string OpenSessionRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutBytes(query);
  w.PutU8(mode);
  w.PutU32(worker_threads);
  w.PutU32(batch_size);
  w.PutU64(max_revision_surplus);
  return body;
}

Result<OpenSessionRequest> OpenSessionRequest::Decode(std::string_view body) {
  WireReader r(body);
  OpenSessionRequest out;
  SUJ_ASSIGN_OR_RETURN(out.query, r.GetString());
  SUJ_ASSIGN_OR_RETURN(out.mode, r.GetU8());
  SUJ_ASSIGN_OR_RETURN(out.worker_threads, r.GetU32());
  SUJ_ASSIGN_OR_RETURN(out.batch_size, r.GetU32());
  SUJ_ASSIGN_OR_RETURN(out.max_revision_surplus, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

Result<SessionOptions> OpenSessionRequest::ToSessionOptions() const {
  SessionOptions options;
  switch (mode) {
    case 0:
      options.mode = SessionOptions::Mode::kOracle;
      break;
    case 1:
      options.mode = SessionOptions::Mode::kOnline;
      break;
    case 2:
      options.mode = SessionOptions::Mode::kRevision;
      break;
    default:
      return Status::InvalidArgument("unknown session mode " +
                                     std::to_string(mode));
  }
  options.worker_threads = worker_threads;
  options.batch_size = batch_size;
  options.max_revision_surplus = max_revision_surplus;
  return options;
}

std::string OpenSessionResponse::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(session_id);
  return body;
}

Result<OpenSessionResponse> OpenSessionResponse::Decode(
    std::string_view body) {
  WireReader r(body);
  OpenSessionResponse out;
  SUJ_ASSIGN_OR_RETURN(out.session_id, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string SampleRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(session_id);
  w.PutU64(n);
  w.PutU8(wait ? 1 : 0);
  return body;
}

Result<SampleRequest> SampleRequest::Decode(std::string_view body) {
  WireReader r(body);
  SampleRequest out;
  SUJ_ASSIGN_OR_RETURN(out.session_id, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.n, r.GetU64());
  uint8_t wait_byte;
  SUJ_ASSIGN_OR_RETURN(wait_byte, r.GetU8());
  out.wait = wait_byte != 0;
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string StreamSampleRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(session_id);
  w.PutU64(total);
  w.PutU32(chunk_size);
  return body;
}

Result<StreamSampleRequest> StreamSampleRequest::Decode(
    std::string_view body) {
  WireReader r(body);
  StreamSampleRequest out;
  SUJ_ASSIGN_OR_RETURN(out.session_id, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.total, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.chunk_size, r.GetU32());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string ApplyDeltaRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutBytes(query);
  w.PutU32(static_cast<uint32_t>(deltas.size()));
  for (const auto& d : deltas) {
    w.PutBytes(d.relation);
    w.PutU32(static_cast<uint32_t>(d.encoded_appends.size()));
    for (const auto& t : d.encoded_appends) w.PutBytes(t);
    w.PutU32(static_cast<uint32_t>(d.delete_rows.size()));
    for (uint32_t row : d.delete_rows) w.PutU32(row);
  }
  return body;
}

Result<ApplyDeltaRequest> ApplyDeltaRequest::Decode(std::string_view body) {
  WireReader r(body);
  ApplyDeltaRequest out;
  SUJ_ASSIGN_OR_RETURN(out.query, r.GetString());
  uint32_t num_deltas;
  SUJ_ASSIGN_OR_RETURN(num_deltas, r.GetU32());
  // Each delta costs at least its name prefix + two counts (12 bytes).
  if (static_cast<size_t>(num_deltas) * 12 > r.remaining()) {
    return Status::InvalidArgument("delta count " +
                                   std::to_string(num_deltas) +
                                   " exceeds request payload");
  }
  out.deltas.reserve(num_deltas);
  for (uint32_t i = 0; i < num_deltas; ++i) {
    WireRelationDelta d;
    SUJ_ASSIGN_OR_RETURN(d.relation, r.GetString());
    uint32_t num_appends;
    SUJ_ASSIGN_OR_RETURN(num_appends, r.GetU32());
    if (static_cast<size_t>(num_appends) * 4 > r.remaining()) {
      return Status::InvalidArgument("append count " +
                                     std::to_string(num_appends) +
                                     " exceeds request payload");
    }
    d.encoded_appends.reserve(num_appends);
    for (uint32_t t = 0; t < num_appends; ++t) {
      std::string enc;
      SUJ_ASSIGN_OR_RETURN(enc, r.GetString());
      d.encoded_appends.push_back(std::move(enc));
    }
    uint32_t num_deletes;
    SUJ_ASSIGN_OR_RETURN(num_deletes, r.GetU32());
    if (static_cast<size_t>(num_deletes) * 4 > r.remaining()) {
      return Status::InvalidArgument("delete count " +
                                     std::to_string(num_deletes) +
                                     " exceeds request payload");
    }
    d.delete_rows.reserve(num_deletes);
    for (uint32_t t = 0; t < num_deletes; ++t) {
      uint32_t row;
      SUJ_ASSIGN_OR_RETURN(row, r.GetU32());
      d.delete_rows.push_back(row);
    }
    out.deltas.push_back(std::move(d));
  }
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string ApplyDeltaResponse::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(epoch);
  w.PutU64(delta_rows);
  w.PutDouble(refresh_seconds);
  w.PutU64(approx_memory_bytes);
  return body;
}

Result<ApplyDeltaResponse> ApplyDeltaResponse::Decode(std::string_view body) {
  WireReader r(body);
  ApplyDeltaResponse out;
  SUJ_ASSIGN_OR_RETURN(out.epoch, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.delta_rows, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.refresh_seconds, r.GetDouble());
  SUJ_ASSIGN_OR_RETURN(out.approx_memory_bytes, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string CloseSessionRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(session_id);
  return body;
}

Result<CloseSessionRequest> CloseSessionRequest::Decode(
    std::string_view body) {
  WireReader r(body);
  CloseSessionRequest out;
  SUJ_ASSIGN_OR_RETURN(out.session_id, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string SessionStatsRequest::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(session_id);
  return body;
}

Result<SessionStatsRequest> SessionStatsRequest::Decode(
    std::string_view body) {
  WireReader r(body);
  SessionStatsRequest out;
  SUJ_ASSIGN_OR_RETURN(out.session_id, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string StatusPayload::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU8(code);
  w.PutBytes(message);
  return body;
}

Result<StatusPayload> StatusPayload::Decode(std::string_view body) {
  WireReader r(body);
  StatusPayload out;
  SUJ_ASSIGN_OR_RETURN(out.code, r.GetU8());
  SUJ_ASSIGN_OR_RETURN(out.message, r.GetString());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

StatusPayload StatusPayload::FromStatus(const Status& status) {
  StatusPayload out;
  out.code = StatusCodeToWire(status.code());
  out.message = status.message();
  return out;
}

Status StatusPayload::ToStatus() const {
  StatusCode c = StatusCodeFromWire(code);
  if (c == StatusCode::kOk) return Status::OK();
  switch (c) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    default:
      return Status::Internal(message);
  }
}

std::string TupleChunk::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU32(static_cast<uint32_t>(encoded_tuples.size()));
  for (const auto& t : encoded_tuples) w.PutBytes(t);
  return body;
}

std::string TupleChunk::EncodeSample(const SessionSample& sample) {
  const size_t count = sample.size();
  std::string body;
  WireWriter w(&body);
  w.PutU32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const size_t at = body.size();
    w.PutU32(0);  // the length, patched once the encoding is written
    if (sample.tuples.empty()) {
      sample.draws[i].EncodeTo(&body);
    } else {
      for (const Value& v : sample.tuples[i].values()) v.EncodeTo(&body);
    }
    const uint32_t len = static_cast<uint32_t>(body.size() - at - 4);
    for (int b = 0; b < 4; ++b) {
      body[at + b] = static_cast<char>(len >> (8 * b));
    }
    // Size the body from the first tuple; later growth is geometric.
    if (i == 0) body.reserve(body.size() + (count - 1) * (len + 4) * 5 / 4);
  }
  return body;
}

Result<TupleChunk> TupleChunk::Decode(std::string_view body) {
  WireReader r(body);
  TupleChunk out;
  uint32_t count;
  SUJ_ASSIGN_OR_RETURN(count, r.GetU32());
  // Sanity bound: each tuple costs at least its 4-byte length prefix, so
  // a count that cannot fit in the remaining payload is malformed (and
  // must not drive a huge reserve()).
  if (static_cast<size_t>(count) * 4 > r.remaining()) {
    return Status::InvalidArgument("tuple count " + std::to_string(count) +
                                   " exceeds chunk payload");
  }
  out.encoded_tuples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string tuple;
    SUJ_ASSIGN_OR_RETURN(tuple, r.GetString());
    out.encoded_tuples.push_back(std::move(tuple));
  }
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string SessionStatsResponse::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(session_id);
  w.PutU64(plan_id);
  w.PutBytes(query);
  w.PutU64(requests);
  w.PutU64(tuples_delivered);
  w.PutU64(revision_buffered);
  w.PutU64(revision_surplus_high_water);
  w.PutU64(sampler_accepted);
  w.PutU64(sampler_join_draws);
  return body;
}

Result<SessionStatsResponse> SessionStatsResponse::Decode(
    std::string_view body) {
  WireReader r(body);
  SessionStatsResponse out;
  SUJ_ASSIGN_OR_RETURN(out.session_id, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.plan_id, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.query, r.GetString());
  SUJ_ASSIGN_OR_RETURN(out.requests, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.tuples_delivered, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.revision_buffered, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.revision_surplus_high_water, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.sampler_accepted, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.sampler_join_draws, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string MetricsResponse::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutBytes(text);
  return body;
}

Result<MetricsResponse> MetricsResponse::Decode(std::string_view body) {
  WireReader r(body);
  MetricsResponse out;
  SUJ_ASSIGN_OR_RETURN(out.text, r.GetString());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

std::string ServerStatsResponse::Encode() const {
  std::string body;
  WireWriter w(&body);
  w.PutU64(admitted);
  w.PutU64(rejected);
  w.PutU64(waited);
  w.PutU64(queue_overflows);
  w.PutU64(peak_in_flight);
  w.PutU64(peak_queue_depth);
  w.PutU64(plans_resident);
  w.PutU64(plans_evicted_for_budget);
  w.PutU64(registry_resident_bytes);
  w.PutU64(sessions_open);
  w.PutU64(sessions_ever_opened);
  w.PutU64(sessions_reaped);
  w.PutU64(quota_shed_total);
  w.PutU64(connections_accepted);
  w.PutU64(connections_shed);
  w.PutU64(requests_served);
  w.PutU64(version_rejects);
  w.PutU64(quota_shed_tenant);
  w.PutU64(quota_shed_session);
  w.PutU64(sessions_quota_rejected);
  w.PutU64(plans_evicted);
  w.PutU64(shard_draws);
  w.PutU64(shard_walk_draws);
  w.PutU64(shard_weight_refreshes);
  w.PutU64(shard_unavailable_errors);
  return body;
}

Result<ServerStatsResponse> ServerStatsResponse::Decode(
    std::string_view body) {
  WireReader r(body);
  ServerStatsResponse out;
  SUJ_ASSIGN_OR_RETURN(out.admitted, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.rejected, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.waited, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.queue_overflows, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.peak_in_flight, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.peak_queue_depth, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.plans_resident, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.plans_evicted_for_budget, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.registry_resident_bytes, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.sessions_open, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.sessions_ever_opened, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.sessions_reaped, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.quota_shed_total, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.connections_accepted, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.connections_shed, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.requests_served, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.version_rejects, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.quota_shed_tenant, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.quota_shed_session, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.sessions_quota_rejected, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.plans_evicted, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.shard_draws, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.shard_walk_draws, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.shard_weight_refreshes, r.GetU64());
  SUJ_ASSIGN_OR_RETURN(out.shard_unavailable_errors, r.GetU64());
  SUJ_RETURN_NOT_OK(r.ExpectDone());
  return out;
}

}  // namespace net
}  // namespace suj
