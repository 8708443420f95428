// The suj wire protocol: length-prefixed binary frames over TCP.
//
// Frame layout (all integers little-endian, common/wire.h):
//
//   u32 frame_len        length of everything after this field
//   u8  msg_type         MessageType
//   ... body             per-message fields (see the structs below)
//
// A connection speaks strict request/response: the client sends Hello
// once (protocol version + tenant identity), then one request at a
// time. Every request gets exactly one response frame — except
// StreamSample, which answers with zero or more StreamChunk frames
// followed by one StreamEnd. Errors come back as a Status frame (or as
// StreamEnd's status mid-stream); the connection stays usable after an
// error response, so one bad request does not cost the client its
// session affinity.
//
// Tuples travel as their canonical storage encoding (Tuple::Encode(),
// the paper's `t.val`), length-prefixed per tuple. This makes the wire
// bytes directly comparable with in-process sampler output — the
// determinism contract "wire == in-process, byte for byte" is testable
// without any re-encoding step.
//
// Frame length is bounded (ServerOptions::max_frame_bytes on the
// server, kDefaultMaxFrame here): a malformed or hostile length prefix
// fails fast with InvalidArgument instead of allocating gigabytes.

#ifndef SUJ_NET_PROTOCOL_H_
#define SUJ_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/wire.h"
#include "net/socket.h"
#include "service/session.h"

namespace suj {
namespace net {

/// Bumped on any incompatible change; Hello carries it and the server
/// rejects mismatches outright (no negotiation — client and server ship
/// from one tree). v2: kMetrics/kMetricsRsp exposition frames and the
/// per-stage shed breakdown appended to ServerStatsResponse. v3:
/// shard-aware Prepare (shard count/scheme/virtual partitions in the
/// request, resolved shard count in the response) and the shard counter
/// block appended to ServerStatsResponse. v4: kApplyDelta/kApplyDeltaRsp
/// — append/delete batches against a prepared query's base relations,
/// answered with the new data epoch.
constexpr uint32_t kProtocolVersion = 4;

/// Default ceiling on one frame. Large sample responses are chunked well
/// below this by the stream chunk size; a frame that claims to be bigger
/// is a protocol violation, not a big request.
constexpr uint32_t kDefaultMaxFrame = 16u << 20;  // 16 MiB

enum class MessageType : uint8_t {
  // client -> server
  kHello = 1,
  kPrepare = 2,
  kOpenSession = 3,
  kSample = 4,
  kStreamSample = 5,
  kCloseSession = 6,
  kSessionStats = 7,
  kServerStats = 8,
  kMetrics = 9,       ///< Prometheus scrape (empty body)
  kApplyDelta = 10,   ///< append/delete batches -> new data epoch (v4)
  // server -> client
  kStatus = 16,       ///< generic ack / error (code + message)
  kPrepareRsp = 17,
  kOpenSessionRsp = 18,
  kSampleRsp = 19,    ///< one Sample's tuples
  kStreamChunk = 20,  ///< one chunk of a StreamSample
  kStreamEnd = 21,    ///< terminates a StreamSample (ok or error)
  kSessionStatsRsp = 22,
  kServerStatsRsp = 23,
  kMetricsRsp = 24,   ///< Prometheus text exposition
  kApplyDeltaRsp = 25,  ///< new-epoch summary for a kApplyDelta (v4)
};

// ---------------------------------------------------------------------------
// Framing

/// Writes one frame (type + body) to the connection. Fails with
/// InvalidArgument, writing nothing, when the frame (body plus type byte)
/// would exceed `max_frame`; since max_frame is a u32, that also refuses
/// a body whose length would wrap the u32 length prefix.
Status WriteFrame(TcpConn& conn, MessageType type, const std::string& body,
                  uint32_t max_frame = kDefaultMaxFrame);

/// Reads one frame. `max_frame` bounds the advertised length.
/// kUnavailable when the peer hung up cleanly between frames.
struct Frame {
  MessageType type;
  std::string body;
};
Result<Frame> ReadFrame(TcpConn& conn, uint32_t max_frame = kDefaultMaxFrame);

// ---------------------------------------------------------------------------
// Messages. Each struct encodes its body only (the type byte lives in
// the frame); Decode validates and rejects trailing bytes.

struct HelloRequest {
  uint32_t version = kProtocolVersion;
  std::string tenant;

  std::string Encode() const;
  static Result<HelloRequest> Decode(std::string_view body);
};

struct PrepareRequest {
  std::string query;
  /// v3 shard plan shape. num_shards 0 or 1 prepares unsharded;
  /// N > 1 root-partitions every join into N in-process shards.
  /// scheme: 0 = hash-key, 1 = row-range. virtual_partitions 0 takes
  /// the server default (64); it is part of the plan's byte identity,
  /// so clients comparing cross-deployment output pin it explicitly.
  uint32_t num_shards = 0;
  uint8_t shard_scheme = 0;
  uint32_t virtual_partitions = 0;

  std::string Encode() const;
  static Result<PrepareRequest> Decode(std::string_view body);
};

struct PrepareResponse {
  uint64_t plan_id = 0;
  double build_seconds = 0;
  uint64_t approx_memory_bytes = 0;
  /// Resolved shard count of the plan (1 = unsharded), v3.
  uint32_t num_shards = 1;

  std::string Encode() const;
  static Result<PrepareResponse> Decode(std::string_view body);
};

struct OpenSessionRequest {
  std::string query;
  /// Mirrors SessionOptions: mode (0 oracle, 1 online, 2 revision),
  /// executor width, batch size, and the resumable-revision surplus cap
  /// — the remote client controls the session's protocol exactly like
  /// an in-process caller would.
  uint8_t mode = 0;
  uint32_t worker_threads = 1;
  uint32_t batch_size = 64;
  uint64_t max_revision_surplus = 0;

  std::string Encode() const;
  static Result<OpenSessionRequest> Decode(std::string_view body);
  /// Maps onto the service-layer options struct (validating `mode`).
  Result<SessionOptions> ToSessionOptions() const;
};

struct OpenSessionResponse {
  uint64_t session_id = 0;

  std::string Encode() const;
  static Result<OpenSessionResponse> Decode(std::string_view body);
};

struct SampleRequest {
  uint64_t session_id = 0;
  uint64_t n = 0;
  /// true: block (bounded) for an admission slot; false: fail fast with
  /// ResourceExhausted when saturated (client-side load shedding).
  bool wait = true;

  std::string Encode() const;
  static Result<SampleRequest> Decode(std::string_view body);
};

struct StreamSampleRequest {
  uint64_t session_id = 0;
  uint64_t total = 0;
  uint32_t chunk_size = 256;

  std::string Encode() const;
  static Result<StreamSampleRequest> Decode(std::string_view body);
};

/// One relation's mutation batch inside an ApplyDeltaRequest. Appends
/// travel as canonical tuple encodings (Tuple::Encode()); the server
/// decodes them against the relation's schema as found in the prepared
/// plan, so a schema-mismatched append fails loudly before any fold.
struct WireRelationDelta {
  std::string relation;
  std::vector<std::string> encoded_appends;
  std::vector<uint32_t> delete_rows;  ///< row ids in the CURRENT epoch
};

/// v4: applies append/delete batches to a prepared query's base
/// relations, producing a new immutable data epoch. Sessions opened
/// before the delta keep their pinned epoch; sessions opened after see
/// the new one.
struct ApplyDeltaRequest {
  std::string query;
  std::vector<WireRelationDelta> deltas;

  std::string Encode() const;
  static Result<ApplyDeltaRequest> Decode(std::string_view body);
};

struct ApplyDeltaResponse {
  uint64_t epoch = 0;          ///< data epoch of the refreshed plan
  uint64_t delta_rows = 0;     ///< cumulative delta rows folded so far
  double refresh_seconds = 0;  ///< incremental refresh build time
  uint64_t approx_memory_bytes = 0;

  std::string Encode() const;
  static Result<ApplyDeltaResponse> Decode(std::string_view body);
};

struct CloseSessionRequest {
  uint64_t session_id = 0;

  std::string Encode() const;
  static Result<CloseSessionRequest> Decode(std::string_view body);
};

struct SessionStatsRequest {
  uint64_t session_id = 0;

  std::string Encode() const;
  static Result<SessionStatsRequest> Decode(std::string_view body);
};

/// Body of kStatus and kStreamEnd.
struct StatusPayload {
  uint8_t code = 0;  ///< StatusCodeToWire
  std::string message;

  std::string Encode() const;
  static Result<StatusPayload> Decode(std::string_view body);

  static StatusPayload FromStatus(const Status& status);
  Status ToStatus() const;  ///< OK when code == 0
};

/// Body of kSampleRsp and kStreamChunk: length-prefixed canonical tuple
/// encodings. Kept as raw strings so clients can compare bytes without
/// decoding; DecodeTuple (common/wire.h) recovers Values on demand.
struct TupleChunk {
  std::vector<std::string> encoded_tuples;

  std::string Encode() const;
  static Result<TupleChunk> Decode(std::string_view body);

  /// The body Encode() writes for the encodings of `sample`'s tuples,
  /// with each encoding written once, in place, straight from its cells:
  /// a draw's relation columns or a tuple's values. No per-tuple string
  /// is built.
  static std::string EncodeSample(const SessionSample& sample);
};

/// Per-session stats over the wire — the remote face of
/// SessionStatsSnapshot. Carries the resumable-revision surplus
/// instrumentation (high-water + live buffer) so a remote operator can
/// verify a SessionOptions::max_revision_surplus cap is honored without
/// in-process access.
struct SessionStatsResponse {
  uint64_t session_id = 0;
  uint64_t plan_id = 0;
  std::string query;
  uint64_t requests = 0;
  uint64_t tuples_delivered = 0;
  uint64_t revision_buffered = 0;
  uint64_t revision_surplus_high_water = 0;
  uint64_t sampler_accepted = 0;
  uint64_t sampler_join_draws = 0;

  std::string Encode() const;
  static Result<SessionStatsResponse> Decode(std::string_view body);
};

/// Body of kMetricsRsp: the process-wide MetricsRegistry rendered as
/// Prometheus text exposition (obs/metrics.h). One opaque string — the
/// metric set evolves without protocol bumps, exactly like a real
/// /metrics endpoint.
struct MetricsResponse {
  std::string text;

  std::string Encode() const;
  static Result<MetricsResponse> Decode(std::string_view body);
};

/// Service-wide stats: admission, registry, sessions, quota sheds, and
/// the server's own connection counters.
struct ServerStatsResponse {
  // admission
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t waited = 0;
  uint64_t queue_overflows = 0;
  uint64_t peak_in_flight = 0;
  uint64_t peak_queue_depth = 0;
  // registry
  uint64_t plans_resident = 0;
  uint64_t plans_evicted_for_budget = 0;
  uint64_t registry_resident_bytes = 0;
  // sessions
  uint64_t sessions_open = 0;
  uint64_t sessions_ever_opened = 0;
  uint64_t sessions_reaped = 0;
  // tenants
  uint64_t quota_shed_total = 0;
  // server
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;
  uint64_t requests_served = 0;
  // per-stage shed breakdown (v2): WHY traffic was shed, not just that
  // it was. quota_shed_total == quota_shed_tenant + quota_shed_session.
  uint64_t version_rejects = 0;          ///< Hello version mismatches
  uint64_t quota_shed_tenant = 0;        ///< tenant token-bucket sheds
  uint64_t quota_shed_session = 0;       ///< per-session token-bucket sheds
  uint64_t sessions_quota_rejected = 0;  ///< OpenSession over max_sessions
  uint64_t plans_evicted = 0;            ///< explicit registry evictions
  // shard counters (v3): process-wide totals across every sharded plan.
  // shard_unavailable_errors counts requests/chunks rejected because a
  // shard was marked unreachable — fault-injection tests reconcile it
  // against client-observed kUnavailable failures.
  uint64_t shard_draws = 0;               ///< routed exact-weight draws
  uint64_t shard_walk_draws = 0;          ///< routed wander-walk root draws
  uint64_t shard_weight_refreshes = 0;    ///< coordinator weight merges
  uint64_t shard_unavailable_errors = 0;  ///< kUnavailable sheds at routing

  std::string Encode() const;
  static Result<ServerStatsResponse> Decode(std::string_view body);
};

}  // namespace net
}  // namespace suj

#endif  // SUJ_NET_PROTOCOL_H_
