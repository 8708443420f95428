#include "net/client.h"

namespace suj {
namespace net {

Result<SujClient> SujClient::Connect(const std::string& host, uint16_t port,
                                     const std::string& tenant) {
  return Connect(host, port, tenant, Options());
}

Result<SujClient> SujClient::Connect(const std::string& host, uint16_t port,
                                     const std::string& tenant,
                                     Options options) {
  SUJ_ASSIGN_OR_RETURN(TcpConn conn, ConnectTcp(host, port));
  if (options.io_timeout_ms > 0) {
    SUJ_RETURN_NOT_OK(
        conn.SetIoDeadlines(options.io_timeout_ms, options.io_timeout_ms));
  }
  SujClient client(std::move(conn), options);
  HelloRequest hello;
  hello.version = kProtocolVersion;
  hello.tenant = tenant;
  SUJ_ASSIGN_OR_RETURN(
      StatusPayload payload,
      client.CallDecoded<StatusPayload>(MessageType::kHello, hello.Encode(),
                                        MessageType::kStatus));
  SUJ_RETURN_NOT_OK(payload.ToStatus());
  return client;
}

Status SujClient::Broken(Status status) {
  conn_.Close();
  return status;
}

Result<Frame> SujClient::Call(MessageType type, const std::string& body,
                              MessageType expected) {
  if (!conn_.valid()) return Status::Unavailable("client is disconnected");
  Status written = WriteFrame(conn_, type, body, options_.max_frame_bytes);
  if (!written.ok()) return Broken(std::move(written));
  Result<Frame> rsp = ReadFrame(conn_, options_.max_frame_bytes);
  if (!rsp.ok()) return Broken(rsp.status());
  const MessageType got = rsp.value().type;
  if (got == expected) return rsp;
  if (got == MessageType::kStatus) {
    // The server answered with an error instead of the typed response;
    // the frame was read whole, so the connection stays in sync.
    Result<StatusPayload> payload = StatusPayload::Decode(rsp.value().body);
    if (!payload.ok()) return Broken(payload.status());
    Status status = payload.value().ToStatus();
    if (!status.ok()) return status;
    return rsp;  // expected == kStatus handled above; an OK ack
  }
  return Broken(Status::Internal(
      "protocol violation: expected message type " +
      std::to_string(static_cast<int>(expected)) + ", got " +
      std::to_string(static_cast<int>(got))));
}

template <typename Response>
Result<Response> SujClient::CallDecoded(MessageType type,
                                        const std::string& body,
                                        MessageType expected) {
  SUJ_ASSIGN_OR_RETURN(Frame rsp, Call(type, body, expected));
  Result<Response> decoded = Response::Decode(rsp.body);
  if (!decoded.ok()) return Broken(decoded.status());
  return decoded;
}

Result<PrepareResponse> SujClient::Prepare(const std::string& query) {
  return Prepare(query, 0);
}

Result<PrepareResponse> SujClient::Prepare(const std::string& query,
                                           uint32_t num_shards,
                                           uint8_t scheme,
                                           uint32_t virtual_partitions) {
  PrepareRequest request;
  request.query = query;
  request.num_shards = num_shards;
  request.shard_scheme = scheme;
  request.virtual_partitions = virtual_partitions;
  return CallDecoded<PrepareResponse>(MessageType::kPrepare, request.Encode(),
                                      MessageType::kPrepareRsp);
}

Result<ApplyDeltaResponse> SujClient::ApplyDelta(
    const ApplyDeltaRequest& request) {
  return CallDecoded<ApplyDeltaResponse>(MessageType::kApplyDelta,
                                         request.Encode(),
                                         MessageType::kApplyDeltaRsp);
}

Result<uint64_t> SujClient::OpenSession(const OpenSessionRequest& request) {
  SUJ_ASSIGN_OR_RETURN(
      OpenSessionResponse decoded,
      CallDecoded<OpenSessionResponse>(MessageType::kOpenSession,
                                       request.Encode(),
                                       MessageType::kOpenSessionRsp));
  return decoded.session_id;
}

Result<std::vector<std::string>> SujClient::Sample(uint64_t session_id,
                                                   uint64_t n, bool wait) {
  SampleRequest request;
  request.session_id = session_id;
  request.n = n;
  request.wait = wait;
  SUJ_ASSIGN_OR_RETURN(
      TupleChunk chunk,
      CallDecoded<TupleChunk>(MessageType::kSample, request.Encode(),
                              MessageType::kSampleRsp));
  return std::move(chunk.encoded_tuples);
}

Status SujClient::StreamSample(
    uint64_t session_id, uint64_t total, uint32_t chunk_size,
    const std::function<Status(const TupleChunk&)>& on_chunk) {
  if (!conn_.valid()) return Status::Unavailable("client is disconnected");
  StreamSampleRequest request;
  request.session_id = session_id;
  request.total = total;
  request.chunk_size = chunk_size;
  Status written =
      WriteFrame(conn_, MessageType::kStreamSample, request.Encode(),
                 options_.max_frame_bytes);
  if (!written.ok()) return Broken(std::move(written));

  Status callback_status;  // first non-OK from on_chunk; frames drain on
  for (;;) {
    Result<Frame> read = ReadFrame(conn_, options_.max_frame_bytes);
    if (!read.ok()) return Broken(read.status());
    const Frame& frame = read.value();
    if (frame.type == MessageType::kStreamChunk) {
      if (!callback_status.ok()) continue;  // draining after abort
      Result<TupleChunk> chunk = TupleChunk::Decode(frame.body);
      if (!chunk.ok()) return Broken(chunk.status());
      callback_status = on_chunk(chunk.value());
      continue;
    }
    if (frame.type == MessageType::kStreamEnd ||
        frame.type == MessageType::kStatus) {
      Result<StatusPayload> payload = StatusPayload::Decode(frame.body);
      if (!payload.ok()) return Broken(payload.status());
      SUJ_RETURN_NOT_OK(payload.value().ToStatus());
      return callback_status;
    }
    return Broken(Status::Internal(
        "protocol violation: unexpected type " +
        std::to_string(static_cast<int>(frame.type)) + " inside a stream"));
  }
}

Status SujClient::CloseSession(uint64_t session_id) {
  CloseSessionRequest request;
  request.session_id = session_id;
  SUJ_ASSIGN_OR_RETURN(
      StatusPayload payload,
      CallDecoded<StatusPayload>(MessageType::kCloseSession, request.Encode(),
                                 MessageType::kStatus));
  return payload.ToStatus();
}

Result<SessionStatsResponse> SujClient::SessionStats(uint64_t session_id) {
  SessionStatsRequest request;
  request.session_id = session_id;
  return CallDecoded<SessionStatsResponse>(MessageType::kSessionStats,
                                           request.Encode(),
                                           MessageType::kSessionStatsRsp);
}

Result<ServerStatsResponse> SujClient::ServerStats() {
  return CallDecoded<ServerStatsResponse>(MessageType::kServerStats, "",
                                          MessageType::kServerStatsRsp);
}

Result<std::string> SujClient::Metrics() {
  SUJ_ASSIGN_OR_RETURN(
      MetricsResponse decoded,
      CallDecoded<MetricsResponse>(MessageType::kMetrics, "",
                                   MessageType::kMetricsRsp));
  return std::move(decoded.text);
}

}  // namespace net
}  // namespace suj
