// SujClient: blocking wire-protocol client for SujServer.
//
// One client == one connection == one strict request/response
// conversation (plus streams, which interleave chunk frames before
// their StreamEnd). Not thread-safe — a client belongs to one caller
// thread, exactly like a SamplingSession belongs to one logical client.
//
// Sample results are returned as the tuples' canonical encodings
// (Tuple::Encode bytes) so callers can compare against in-process
// output byte for byte; DecodeTuple (common/wire.h) recovers Values.

#ifndef SUJ_NET_CLIENT_H_
#define SUJ_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace suj {
namespace net {

class SujClient {
 public:
  struct Options {
    uint32_t max_frame_bytes = kDefaultMaxFrame;
    /// Socket read/write deadlines in milliseconds; 0 = block forever
    /// (legacy). Armed right after connect, so even the Hello handshake
    /// is covered. A server that STALLS past a deadline surfaces as
    /// kDeadlineExceeded — distinct from a truncated frame
    /// (kInvalidArgument) and a closed connection (kUnavailable), so
    /// callers can tell "slow peer" from "broken peer" (pinned in
    /// net_wire_test).
    int64_t io_timeout_ms = 0;
  };

  /// Connects and completes the Hello handshake as `tenant`.
  static Result<SujClient> Connect(const std::string& host, uint16_t port,
                                   const std::string& tenant,
                                   Options options);
  static Result<SujClient> Connect(const std::string& host, uint16_t port,
                                   const std::string& tenant);

  SujClient(SujClient&&) = default;
  SujClient& operator=(SujClient&&) = default;
  SujClient(const SujClient&) = delete;
  SujClient& operator=(const SujClient&) = delete;

  /// Prepares (or looks up) `query` server-side.
  Result<PrepareResponse> Prepare(const std::string& query);
  /// Shard-aware Prepare (v3): `num_shards` > 1 asks the server to
  /// root-partition the plan (`scheme`: 0 hash-key, 1 row-range;
  /// `virtual_partitions` 0 = server default). Ignored if the query is
  /// already pinned — the response reports the plan's actual shape.
  Result<PrepareResponse> Prepare(const std::string& query,
                                  uint32_t num_shards, uint8_t scheme = 0,
                                  uint32_t virtual_partitions = 0);

  /// Applies append/delete batches to a prepared query's base relations
  /// (v4). Returns the new data-epoch summary; sessions opened before
  /// the call keep sampling their pinned epoch.
  Result<ApplyDeltaResponse> ApplyDelta(const ApplyDeltaRequest& request);

  /// Opens a session; `request.query` names a prepared query.
  Result<uint64_t> OpenSession(const OpenSessionRequest& request);

  /// Draws `n` tuples, returned as canonical encodings in sample order.
  /// `wait` false sheds instead of queueing when the server is
  /// saturated (ResourceExhausted).
  Result<std::vector<std::string>> Sample(uint64_t session_id, uint64_t n,
                                          bool wait = true);

  /// Streams `total` tuples in chunks, invoking `on_chunk` per chunk in
  /// order. A non-OK status from the callback aborts the stream (the
  /// remaining frames are drained so the connection stays in protocol).
  Status StreamSample(uint64_t session_id, uint64_t total,
                      uint32_t chunk_size,
                      const std::function<Status(const TupleChunk&)>& on_chunk);

  Status CloseSession(uint64_t session_id);

  Result<SessionStatsResponse> SessionStats(uint64_t session_id);
  Result<ServerStatsResponse> ServerStats();
  /// Scrapes the server process's metrics as Prometheus text exposition.
  Result<std::string> Metrics();

  bool connected() const { return conn_.valid(); }
  void Disconnect() { conn_.Close(); }

 private:
  explicit SujClient(TcpConn conn, Options options)
      : conn_(std::move(conn)), options_(options) {}

  /// One round trip: send `body` as `type`, read one response frame.
  /// A kStatus response carrying an error becomes that error; a
  /// response of unexpected type is a protocol violation (Internal).
  Result<Frame> Call(MessageType type, const std::string& body,
                     MessageType expected);
  /// Call, then decode the response body as `Response`.
  template <typename Response>
  Result<Response> CallDecoded(MessageType type, const std::string& body,
                               MessageType expected);
  /// Closes the connection and returns `status`. Used on every framing,
  /// decode, or protocol error: the stream position is then unknown, and
  /// a later call would read leftover frame bytes as a length prefix.
  /// Calls after that return kUnavailable.
  Status Broken(Status status);

  TcpConn conn_;
  Options options_;
};

}  // namespace net
}  // namespace suj

#endif  // SUJ_NET_CLIENT_H_
