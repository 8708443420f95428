// SujServer: the multi-tenant TCP front end over one SamplingService.
//
// Thread-per-connection (the protocol is strict request/response, so a
// connection is exactly one sequential conversation — a thread is its
// natural executor and keeps the handler code linear). Scale in this
// design comes from bounding, not multiplexing: `max_connections` caps
// the thread count and sheds the excess at accept time with an explicit
// ResourceExhausted frame, never a silent close.
//
// Request path, in shed order (cheapest rejection first):
//
//   accept       -> connection cap        (connections_shed)
//   Hello        -> version check, tenant binding
//   per request  -> TenantGovernor        (tenant + session token buckets)
//                -> AdmissionController   (global slots + bounded queue)
//                -> SamplingService       (the actual work)
//
// A request shed at any layer answers immediately with ResourceExhausted
// and leaves the connection usable — quota pressure from one tenant
// never queues behind another tenant's work.
//
// The server owns liveness, not the service: it stamps every session it
// touches (SamplingSession::Touch) and a reaper thread closes sessions
// abandoned past `session_idle_timeout_ns` via SessionManager::ReapIdle,
// returning their quota slots to the governor. Sessions created
// in-process (never touched) are exempt, and reaping cannot perturb
// surviving sessions' RNG substreams (ids and substream ranks are never
// reused).

#ifndef SUJ_NET_SERVER_H_
#define SUJ_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/protocol.h"
#include "net/socket.h"
#include "service/sampling_service.h"
#include "service/tenant.h"

namespace suj {
namespace net {

/// Maps a wire query name to the join specs it denotes. JoinSpecs hold
/// in-memory relations and cannot cross the wire, so the embedding
/// application registers what its server is willing to prepare; a
/// PrepareRequest for an unknown name fails with whatever the resolver
/// returns (NotFound by convention).
using SpecResolver =
    std::function<Result<std::vector<JoinSpecPtr>>(const std::string&)>;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via port() after Start.
  uint16_t port = 0;
  int backlog = 64;
  /// Concurrent connections (== handler threads). Accepts beyond this
  /// are answered with one ResourceExhausted Status frame and closed.
  size_t max_connections = 64;
  /// Per-frame ceiling passed to ReadFrame.
  uint32_t max_frame_bytes = kDefaultMaxFrame;
  /// Quota applied to tenants on first contact (TenantGovernor).
  TenantQuotaOptions default_quota;
  /// Close sessions with no request activity for this long. 0 disables
  /// the reaper entirely.
  int64_t session_idle_timeout_ns = 0;
  /// How often the reaper scans (only with a timeout set).
  int64_t reap_interval_ns = 50'000'000;  // 50 ms
  /// Producer read-ahead for StreamSample (SampleStream::Options).
  size_t stream_max_buffered_chunks = 4;
  /// Requests slower than this (ns, end to end minus idle wire reads)
  /// are dumped to the slow-request log with a per-stage breakdown.
  /// -1 keeps the process-wide default (SUJ_SLOW_REQUEST_NS env, else
  /// disabled); >= 0 overrides it at Start(). Process-global — the last
  /// server started wins, which only matters to multi-server tests.
  int64_t slow_request_ns = -1;
};

/// \brief One listening server bound to one SamplingService.
class SujServer {
 public:
  /// `service` and `resolver` must outlive the server; the server owns
  /// neither. Call Start() to bind and serve.
  SujServer(SamplingService* service, SpecResolver resolver,
            ServerOptions options);
  ~SujServer();  ///< calls Stop()
  SujServer(const SujServer&) = delete;
  SujServer& operator=(const SujServer&) = delete;

  /// Binds, listens, and starts the accept + reaper threads.
  Status Start();

  /// Stops accepting, shuts every live connection down, joins all
  /// threads. Idempotent. Open sessions survive (the service owns
  /// them); only the reaper or an explicit Close removes them.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after Start; meaningful with options.port == 0).
  uint16_t port() const { return listener_.port(); }

  TenantGovernor& governor() { return governor_; }

  /// The same composite snapshot ServerStats serves over the wire.
  ServerStatsResponse StatsSnapshot() const;

 private:
  struct Connection {
    TcpConn conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  static int64_t NowNs();

  void AcceptLoop();
  void ReaperLoop();
  void HandleConnection(Connection* state);
  /// Dispatches one post-Hello frame. The returned Status is the
  /// CONNECTION's health (I/O failures); application errors are encoded
  /// into response frames and leave the connection usable.
  Status Dispatch(TcpConn& conn, const std::string& tenant,
                  const Frame& frame);

  Status HandlePrepare(TcpConn& conn, const Frame& frame);
  Status HandleOpenSession(TcpConn& conn, const std::string& tenant,
                           const Frame& frame);
  Status HandleSample(TcpConn& conn, const std::string& tenant,
                      const Frame& frame);
  Status HandleStreamSample(TcpConn& conn, const std::string& tenant,
                            const Frame& frame);
  Status HandleCloseSession(TcpConn& conn, const Frame& frame);
  Status HandleSessionStats(TcpConn& conn, const Frame& frame);
  Status HandleServerStats(TcpConn& conn);
  Status HandleMetrics(TcpConn& conn);
  Status HandleApplyDelta(TcpConn& conn, const Frame& frame);

  /// Sends a kStatus frame for `status` (OK or error).
  Status SendStatus(TcpConn& conn, const Status& status);
  /// WriteFrame under max_frame_bytes, recording a wire_write span into
  /// the current trace. An oversized body is refused with
  /// InvalidArgument before any byte goes out.
  Status WriteTimed(TcpConn& conn, MessageType type,
                    const std::string& body) const;
  /// InvalidArgument unless a frame of `tuples` tuples of session
  /// `session_id`'s arity can fit in max_frame_bytes. OK when the
  /// session is unknown (the sample call itself reports that).
  Status CheckTuplesFit(uint64_t session_id, uint64_t tuples,
                        const char* what) const;

  /// Forgets a closed/reaped session: releases its governor slot and
  /// tenant binding. Idempotent.
  void ReleaseSession(uint64_t session_id);

  SamplingService* const service_;
  const SpecResolver resolver_;
  const ServerOptions options_;
  TenantGovernor governor_;

  TcpListener listener_;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::thread reaper_thread_;
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  /// session id -> owning tenant, for quota release on close/reap.
  std::mutex sessions_mu_;
  std::unordered_map<uint64_t, std::string> session_tenants_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> sessions_reaped_{0};
  std::atomic<uint64_t> version_rejects_{0};
};

}  // namespace net
}  // namespace suj

#endif  // SUJ_NET_SERVER_H_
