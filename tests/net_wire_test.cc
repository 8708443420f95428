// Tests for the wire codec (common/wire.h, net/protocol.h): primitive
// little-endian round trips, bounds-checked decoding (truncation and
// trailing bytes are errors, never UB), StatusCode mapping stability,
// message struct round trips, and canonical tuple decode.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/wire.h"
#include "net/protocol.h"
#include "storage/tuple.h"

namespace suj {
namespace {

using net::kProtocolVersion;

// ---------------------------------------------------------------------------
// WireWriter / WireReader primitives

TEST(WireTest, PrimitiveRoundTrip) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(3.14159);
  w.PutBytes("hello");

  WireReader r(buf);
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.14159);
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_TRUE(r.ExpectDone().ok());
}

TEST(WireTest, LittleEndianLayoutIsPinned) {
  // The wire format is a contract: u32 1 must be 01 00 00 00 regardless
  // of host endianness.
  std::string buf;
  WireWriter w(&buf);
  w.PutU32(1);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 1);
  EXPECT_EQ(static_cast<unsigned char>(buf[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(buf[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0);
}

TEST(WireTest, TruncationIsAnErrorNotUB) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU64(42);
  for (size_t cut = 0; cut < 8; ++cut) {
    WireReader r(std::string_view(buf).substr(0, cut));
    EXPECT_FALSE(r.GetU64().ok()) << "cut=" << cut;
  }
}

TEST(WireTest, StringLengthBeyondPayloadFails) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU32(1000);  // claims 1000 bytes...
  buf += "abc";    // ...delivers 3
  WireReader r(buf);
  EXPECT_FALSE(r.GetString().ok());
}

TEST(WireTest, TrailingBytesRejected) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU8(1);
  w.PutU8(2);
  WireReader r(buf);
  ASSERT_TRUE(r.GetU8().ok());
  EXPECT_FALSE(r.ExpectDone().ok());
}

TEST(WireTest, StatusCodeMappingRoundTripsEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
      StatusCode::kInternal,     StatusCode::kResourceExhausted,
      StatusCode::kUnavailable,  StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : codes) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code);
  }
  // Unknown wire bytes decode to Internal, never to OK.
  EXPECT_EQ(StatusCodeFromWire(0xFF), StatusCode::kInternal);
  // Deadline byte is pinned: v3 peers rely on 9 meaning "slow, not
  // broken".
  EXPECT_EQ(StatusCodeToWire(StatusCode::kDeadlineExceeded), 9);
}

TEST(WireTest, DecodeTupleRoundTripsCanonicalEncoding) {
  Tuple tuple;
  tuple.Append(Value::Int64(-7));
  tuple.Append(Value::Double(2.5));
  tuple.Append(Value::String("abc"));
  auto decoded = DecodeTuple(tuple.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), tuple);
  // And the decode is itself canonical: re-encoding gives the same bytes.
  EXPECT_EQ(decoded.value().Encode(), tuple.Encode());
}

TEST(WireTest, DecodeTupleRejectsGarbage) {
  EXPECT_FALSE(DecodeTuple("\xFF").ok());           // unknown type tag
  EXPECT_FALSE(DecodeTuple(std::string("\x00", 1)).ok());  // truncated i64
}

// ---------------------------------------------------------------------------
// Message structs

TEST(ProtocolTest, HelloRoundTrip) {
  net::HelloRequest msg;
  msg.version = kProtocolVersion;
  msg.tenant = "tenant-a";
  auto decoded = net::HelloRequest::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.tenant, "tenant-a");
}

TEST(ProtocolTest, OpenSessionRoundTripAndValidation) {
  net::OpenSessionRequest msg;
  msg.query = "q";
  msg.mode = 2;
  msg.worker_threads = 4;
  msg.batch_size = 32;
  msg.max_revision_surplus = 128;
  auto decoded = net::OpenSessionRequest::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.query, "q");
  EXPECT_EQ(decoded.mode, 2);
  auto options = decoded.ToSessionOptions().value();
  EXPECT_EQ(options.mode, SessionOptions::Mode::kRevision);
  EXPECT_EQ(options.worker_threads, 4u);
  EXPECT_EQ(options.batch_size, 32u);
  EXPECT_EQ(options.max_revision_surplus, 128u);

  decoded.mode = 9;
  EXPECT_FALSE(decoded.ToSessionOptions().ok());
}

TEST(ProtocolTest, StatusPayloadCarriesErrors) {
  auto payload = net::StatusPayload::FromStatus(
      Status::ResourceExhausted("over quota"));
  auto decoded = net::StatusPayload::Decode(payload.Encode()).value();
  Status status = decoded.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "over quota");

  auto ok = net::StatusPayload::FromStatus(Status::OK());
  EXPECT_TRUE(net::StatusPayload::Decode(ok.Encode()).value().ToStatus().ok());
}

TEST(ProtocolTest, TupleChunkRoundTrip) {
  net::TupleChunk chunk;
  Tuple t1;
  t1.Append(Value::Int64(1));
  Tuple t2;
  t2.Append(Value::String("xyz"));
  chunk.encoded_tuples = {t1.Encode(), t2.Encode()};
  auto decoded = net::TupleChunk::Decode(chunk.Encode()).value();
  ASSERT_EQ(decoded.encoded_tuples.size(), 2u);
  EXPECT_EQ(decoded.encoded_tuples[0], t1.Encode());
  EXPECT_EQ(decoded.encoded_tuples[1], t2.Encode());
}

TEST(ProtocolTest, TupleChunkRejectsAbsurdCount) {
  // A hostile count must fail cleanly before any large allocation.
  std::string body;
  WireWriter w(&body);
  w.PutU32(std::numeric_limits<uint32_t>::max());
  EXPECT_FALSE(net::TupleChunk::Decode(body).ok());
}

TEST(ProtocolTest, SessionStatsRoundTripCarriesSurplusInstrumentation) {
  net::SessionStatsResponse msg;
  msg.session_id = 3;
  msg.plan_id = 9;
  msg.query = "q";
  msg.requests = 5;
  msg.tuples_delivered = 500;
  msg.revision_buffered = 17;
  msg.revision_surplus_high_water = 63;
  msg.sampler_accepted = 520;
  msg.sampler_join_draws = 900;
  auto decoded = net::SessionStatsResponse::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.revision_buffered, 17u);
  EXPECT_EQ(decoded.revision_surplus_high_water, 63u);
  EXPECT_EQ(decoded.sampler_accepted, 520u);
  EXPECT_EQ(decoded.sampler_join_draws, 900u);
}

TEST(ProtocolTest, ServerStatsRoundTrip) {
  net::ServerStatsResponse msg;
  msg.admitted = 1;
  msg.queue_overflows = 2;
  msg.plans_evicted_for_budget = 3;
  msg.sessions_reaped = 4;
  msg.quota_shed_total = 5;
  msg.connections_shed = 6;
  msg.version_rejects = 7;
  msg.quota_shed_tenant = 8;
  msg.quota_shed_session = 9;
  msg.sessions_quota_rejected = 10;
  msg.plans_evicted = 11;
  msg.shard_draws = 12;
  msg.shard_walk_draws = 13;
  msg.shard_weight_refreshes = 14;
  msg.shard_unavailable_errors = 15;
  auto decoded = net::ServerStatsResponse::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.admitted, 1u);
  EXPECT_EQ(decoded.queue_overflows, 2u);
  EXPECT_EQ(decoded.plans_evicted_for_budget, 3u);
  EXPECT_EQ(decoded.sessions_reaped, 4u);
  EXPECT_EQ(decoded.quota_shed_total, 5u);
  EXPECT_EQ(decoded.connections_shed, 6u);
  EXPECT_EQ(decoded.version_rejects, 7u);
  EXPECT_EQ(decoded.quota_shed_tenant, 8u);
  EXPECT_EQ(decoded.quota_shed_session, 9u);
  EXPECT_EQ(decoded.sessions_quota_rejected, 10u);
  EXPECT_EQ(decoded.plans_evicted, 11u);
  EXPECT_EQ(decoded.shard_draws, 12u);
  EXPECT_EQ(decoded.shard_walk_draws, 13u);
  EXPECT_EQ(decoded.shard_weight_refreshes, 14u);
  EXPECT_EQ(decoded.shard_unavailable_errors, 15u);
}

TEST(ProtocolTest, PrepareCarriesShardShape) {
  net::PrepareRequest req;
  req.query = "q7";
  req.num_shards = 4;
  req.shard_scheme = 1;
  req.virtual_partitions = 128;
  auto req_decoded = net::PrepareRequest::Decode(req.Encode()).value();
  EXPECT_EQ(req_decoded.query, "q7");
  EXPECT_EQ(req_decoded.num_shards, 4u);
  EXPECT_EQ(req_decoded.shard_scheme, 1);
  EXPECT_EQ(req_decoded.virtual_partitions, 128u);

  net::PrepareResponse rsp;
  rsp.plan_id = 9;
  rsp.build_seconds = 0.5;
  rsp.approx_memory_bytes = 1024;
  rsp.num_shards = 4;
  auto rsp_decoded = net::PrepareResponse::Decode(rsp.Encode()).value();
  EXPECT_EQ(rsp_decoded.plan_id, 9u);
  EXPECT_EQ(rsp_decoded.num_shards, 4u);
}

TEST(ProtocolTest, ServerStatsWireLayoutIsPinned) {
  // The v3 stats body is a fixed sequence of 25 little-endian u64s in
  // declaration order; the five v2 shed-breakdown fields and the four
  // v3 shard counters sit at the tail. This pins the LAYOUT, not just a
  // round trip — a field reorder that still round-trips would break
  // deployed v3 peers.
  net::ServerStatsResponse msg;
  msg.admitted = 0x0101;
  msg.requests_served = 0x0202;
  msg.version_rejects = 0x0303;
  msg.quota_shed_tenant = 0x0404;
  msg.quota_shed_session = 0x0505;
  msg.sessions_quota_rejected = 0x0606;
  msg.plans_evicted = 0x0707;
  msg.shard_draws = 0x0808;
  msg.shard_walk_draws = 0x0909;
  msg.shard_weight_refreshes = 0x0A0A;
  msg.shard_unavailable_errors = 0x0B0B;
  const std::string body = msg.Encode();
  ASSERT_EQ(body.size(), 25u * 8u);
  auto u64_at = [&](size_t index) {
    uint64_t v = 0;
    for (size_t b = 0; b < 8; ++b) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(body[index * 8 + b]))
           << (8 * b);
    }
    return v;
  };
  EXPECT_EQ(u64_at(0), 0x0101u);   // admitted leads
  EXPECT_EQ(u64_at(15), 0x0202u);  // requests_served ends the v1 block
  EXPECT_EQ(u64_at(16), 0x0303u);  // version_rejects
  EXPECT_EQ(u64_at(17), 0x0404u);  // quota_shed_tenant
  EXPECT_EQ(u64_at(18), 0x0505u);  // quota_shed_session
  EXPECT_EQ(u64_at(19), 0x0606u);  // sessions_quota_rejected
  EXPECT_EQ(u64_at(20), 0x0707u);  // plans_evicted
  EXPECT_EQ(u64_at(21), 0x0808u);  // shard_draws opens the v3 block
  EXPECT_EQ(u64_at(22), 0x0909u);  // shard_walk_draws
  EXPECT_EQ(u64_at(23), 0x0A0Au);  // shard_weight_refreshes
  EXPECT_EQ(u64_at(24), 0x0B0Bu);  // shard_unavailable_errors
}

TEST(ProtocolTest, MetricsResponseRoundTrip) {
  net::MetricsResponse msg;
  msg.text = "# TYPE suj_net_requests_total counter\nsuj_net_requests_total 3\n";
  auto decoded = net::MetricsResponse::Decode(msg.Encode()).value();
  EXPECT_EQ(decoded.text, msg.text);
  EXPECT_FALSE(net::MetricsResponse::Decode(msg.Encode() + "x").ok());
}

TEST(ProtocolTest, DecodeRejectsTrailingBytes) {
  net::CloseSessionRequest msg;
  msg.session_id = 1;
  std::string body = msg.Encode() + "extra";
  EXPECT_FALSE(net::CloseSessionRequest::Decode(body).ok());
}

// ---------------------------------------------------------------------------
// Socket deadline discrimination. A peer that STALLS, a peer that
// CLOSES mid-frame, and a peer that closes cleanly between frames must
// surface as three different codes (kDeadlineExceeded /
// kInvalidArgument / kUnavailable) — callers react differently to each
// (retry elsewhere vs drop the conn vs reconnect), so the mapping is
// load-bearing wire behaviour, pinned here next to the codec.

// Loopback (client, server) pair. Connect lands in the kernel accept
// queue, so Accept() below returns without a helper thread.
void MakeLoopbackPair(TcpConn* client, TcpConn* server) {
  auto listener = TcpListener::Listen("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  auto conn = ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(conn.ok()) << conn.status().message();
  auto accepted = listener->Accept();
  ASSERT_TRUE(accepted.ok()) << accepted.status().message();
  *client = std::move(*conn);
  *server = std::move(*accepted);
}

TEST(SocketDeadlineTest, StalledPeerIsDeadlineExceeded) {
  TcpConn client, server;
  ASSERT_NO_FATAL_FAILURE(MakeLoopbackPair(&client, &server));
  ASSERT_TRUE(client.SetIoDeadlines(/*recv_timeout_ms=*/50,
                                    /*send_timeout_ms=*/50)
                  .ok());
  // The server holds the connection open but never writes a byte.
  auto frame = net::ReadFrame(client);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketDeadlineTest, TruncatedFrameIsInvalidArgumentEvenWithDeadline) {
  TcpConn client, server;
  ASSERT_NO_FATAL_FAILURE(MakeLoopbackPair(&client, &server));
  ASSERT_TRUE(client.SetIoDeadlines(200, 200).ok());
  // Header promises a 10-byte payload; the peer delivers 3 and hangs
  // up. EOF mid-frame must NOT be reported as a timeout.
  std::string partial;
  WireWriter w(&partial);
  w.PutU32(10);
  partial.append("abc");
  ASSERT_TRUE(server.WriteFull(partial.data(), partial.size()).ok());
  server.Close();
  auto frame = net::ReadFrame(client);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(SocketDeadlineTest, CleanCloseBetweenFramesIsUnavailable) {
  TcpConn client, server;
  ASSERT_NO_FATAL_FAILURE(MakeLoopbackPair(&client, &server));
  ASSERT_TRUE(client.SetIoDeadlines(200, 200).ok());
  server.Close();
  auto frame = net::ReadFrame(client);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(SocketDeadlineTest, DisarmedDeadlineRestoresBlockingReads) {
  TcpConn client, server;
  ASSERT_NO_FATAL_FAILURE(MakeLoopbackPair(&client, &server));
  ASSERT_TRUE(client.SetIoDeadlines(50, 50).ok());
  ASSERT_TRUE(client.SetIoDeadlines(0, 0).ok());  // 0 = block forever
  ASSERT_TRUE(net::WriteFrame(server, net::MessageType::kStatus, "ok").ok());
  auto frame = net::ReadFrame(client);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->body, "ok");
}

TEST(FramingTest, OversizedFrameIsRefusedWithoutWritingAByte) {
  TcpConn client, server;
  ASSERT_NO_FATAL_FAILURE(MakeLoopbackPair(&client, &server));
  ASSERT_TRUE(client.SetIoDeadlines(200, 200).ok());
  // The length prefix counts the type byte: a 15-byte body is the most a
  // 16-byte limit admits.
  const std::string body(16, 'x');
  auto refused = net::WriteFrame(server, net::MessageType::kStatus, body, 16);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(net::WriteFrame(server, net::MessageType::kStatus,
                              body.substr(1), 16)
                  .ok());
  // The refused frame left nothing in the stream: the next frame read is
  // the one that was written.
  auto frame = net::ReadFrame(client, 16);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->body, body.substr(1));
}

}  // namespace
}  // namespace suj
