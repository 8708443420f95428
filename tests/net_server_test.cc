// End-to-end tests for the network front end (src/net/): server spawn on
// an ephemeral port, the full request surface over real TCP loopback,
// the wire determinism contract (wire bytes == in-process bytes, at
// worker_threads 1 and 4), remote surplus-cap enforcement with
// over-the-wire instrumentation, tenant quota shedding, connection-cap
// shedding, and idle-session reaping that leaves sibling sessions'
// sample streams untouched. Runs under the TSan CI job (`concurrency`
// label): server threads, stream producers, and client threads overlap.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/sampling_service.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using net::OpenSessionRequest;
using net::SujClient;
using net::SujServer;
using workloads::MakeOverlappingChains;
using workloads::SyntheticChainOptions;

std::vector<JoinSpecPtr> MakeJoins(uint64_t seed, size_t master_rows = 20) {
  SyntheticChainOptions options;
  options.master_rows = master_rows;
  options.seed = seed;
  return MakeOverlappingChains(options).value();
}

// The resolver every test server uses: any query name of the form
// "chains<seed>" maps to a deterministic synthetic union, so wire
// clients and in-process baselines can prepare identical plans.
net::SpecResolver ChainsResolver() {
  return [](const std::string& name) -> Result<std::vector<JoinSpecPtr>> {
    if (name.rfind("chains", 0) != 0) {
      return Status::NotFound("unknown query '" + name + "'");
    }
    uint64_t seed = std::stoull(name.substr(6));
    return MakeJoins(seed);
  };
}

std::unique_ptr<SamplingService> MakeService(uint64_t seed) {
  ServiceOptions options;
  options.seed = seed;
  return SamplingService::Create(options).value();
}

struct ServerFixture {
  std::unique_ptr<SamplingService> service;
  std::unique_ptr<SujServer> server;

  explicit ServerFixture(uint64_t seed,
                         net::ServerOptions options = net::ServerOptions()) {
    service = MakeService(seed);
    server = std::make_unique<SujServer>(service.get(), ChainsResolver(),
                                         options);
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~ServerFixture() { server->Stop(); }

  SujClient Client(const std::string& tenant) {
    return SujClient::Connect("127.0.0.1", server->port(), tenant).value();
  }
};

// ---------------------------------------------------------------------------
// Basic request surface

TEST(SujServerTest, PrepareOpenSampleCloseOverTheWire) {
  ServerFixture fx(500);
  auto client = fx.Client("t");

  auto prepared = client.Prepare("chains500");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_GT(prepared.value().plan_id, 0u);
  EXPECT_GT(prepared.value().approx_memory_bytes, 0u);
  // Idempotent: a second Prepare reports the same pinned plan.
  EXPECT_EQ(client.Prepare("chains500").value().plan_id,
            prepared.value().plan_id);

  OpenSessionRequest open;
  open.query = "chains500";
  auto session = client.OpenSession(open);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto batch = client.Sample(session.value(), 40);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), 40u);
  // Tuples arrive as canonical encodings and decode cleanly.
  for (const auto& bytes : batch.value()) {
    EXPECT_TRUE(DecodeTuple(bytes).ok());
  }

  auto stats = client.SessionStats(session.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tuples_delivered, 40u);
  EXPECT_EQ(stats.value().requests, 1u);

  EXPECT_TRUE(client.CloseSession(session.value()).ok());
  // Closed session: the error comes back over the wire, the connection
  // survives it.
  EXPECT_EQ(client.Sample(session.value(), 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(client.ServerStats().ok());
}

TEST(SujServerTest, UnknownQueryAndBadRequestsAreClean) {
  ServerFixture fx(501);
  auto client = fx.Client("t");
  EXPECT_EQ(client.Prepare("nope").status().code(), StatusCode::kNotFound);

  OpenSessionRequest open;
  open.query = "chains501";
  ASSERT_TRUE(client.Prepare("chains501").ok());
  open.mode = 42;  // invalid mode must be rejected server-side
  EXPECT_EQ(client.OpenSession(open).status().code(),
            StatusCode::kInvalidArgument);
  // Connection still usable after both errors.
  open.mode = 0;
  EXPECT_TRUE(client.OpenSession(open).ok());
}

TEST(SujServerTest, OversizedResponseBreaksConnectionInsteadOfDesyncing) {
  // A response larger than the client's frame cap is a framing error: the
  // client cannot consume the frame, so its body bytes stay in the socket.
  // The client must close the connection rather than read those bytes as
  // the next frame's length prefix.
  ServerFixture fx(504);
  SujClient::Options options;
  options.max_frame_bytes = 4096;
  auto client =
      SujClient::Connect("127.0.0.1", fx.server->port(), "t", options)
          .value();
  ASSERT_TRUE(client.Prepare("chains504").ok());
  OpenSessionRequest open;
  open.query = "chains504";
  auto session = client.OpenSession(open);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto big = client.Sample(session.value(), 2000);
  ASSERT_FALSE(big.ok()) << "2000 tuples must exceed a 4096-byte frame";
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument)
      << big.status().ToString();
  EXPECT_FALSE(client.connected());

  auto next = client.Sample(session.value(), 1);
  EXPECT_EQ(next.status().code(), StatusCode::kUnavailable)
      << next.status().ToString();
  EXPECT_EQ(client.ServerStats().status().code(), StatusCode::kUnavailable);
}

TEST(SujServerTest, ServerRefusesResponsesLargerThanItsFrameLimit) {
  // The server bounds Sample.n and the stream chunk size by its own frame
  // limit before drawing a tuple, and answers with InvalidArgument on a
  // connection that stays in sync.
  net::ServerOptions options;
  options.max_frame_bytes = 4096;
  ServerFixture fx(505, options);
  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains505").ok());
  OpenSessionRequest open;
  open.query = "chains505";
  auto session = client.OpenSession(open);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto huge = client.Sample(session.value(), 1'000'000);
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument)
      << huge.status().ToString();
  EXPECT_TRUE(client.connected());
  auto stats = client.SessionStats(session.value());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().tuples_delivered, 0u);  // refused before drawing

  auto next = client.Sample(session.value(), 10);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().size(), 10u);

  size_t streamed = 0;
  auto count = [&](const net::TupleChunk& chunk) {
    streamed += chunk.encoded_tuples.size();
    return Status::OK();
  };
  EXPECT_EQ(client.StreamSample(session.value(), 1'000'000, 1'000'000, count)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(streamed, 0u);
  // A chunk size past a small total never fills, so it is not refused.
  EXPECT_TRUE(client.StreamSample(session.value(), 20, 1'000'000, count).ok());
  EXPECT_EQ(streamed, 20u);
}

TEST(SujServerTest, HelloVersionMismatchIsRejected) {
  ServerFixture fx(502);
  auto conn = ConnectTcp("127.0.0.1", fx.server->port()).value();
  net::HelloRequest hello;
  hello.version = net::kProtocolVersion + 1;
  hello.tenant = "t";
  ASSERT_TRUE(
      net::WriteFrame(conn, net::MessageType::kHello, hello.Encode()).ok());
  auto rsp = net::ReadFrame(conn).value();
  ASSERT_EQ(rsp.type, net::MessageType::kStatus);
  EXPECT_EQ(net::StatusPayload::Decode(rsp.body).value().ToStatus().code(),
            StatusCode::kInvalidArgument);
  EXPECT_GE(fx.server->StatsSnapshot().version_rejects, 1u);
}

// ---------------------------------------------------------------------------
// Metrics scrape (kMetrics frame -> Prometheus text)

// Extracts the value of a bare `name value` exposition line; -1 when the
// metric is absent.
int64_t ScrapedValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stoll(text.substr(pos + name.size() + 1));
    }
    ++pos;
  }
  return -1;
}

TEST(SujServerTest, MetricsScrapeExposesServingCounters) {
  ServerFixture fx(503);
  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains503").ok());
  OpenSessionRequest open;
  open.query = "chains503";
  auto session = client.OpenSession(open).value();
  ASSERT_TRUE(client.Sample(session, 16).ok());

  auto scrape = client.Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const std::string& text = scrape.value();

  // Counters are process-global (other suites in this binary feed them
  // too), so the assertions are lower bounds.
  EXPECT_NE(text.find("# TYPE suj_net_requests_total counter"),
            std::string::npos);
  EXPECT_GE(ScrapedValue(text, "suj_net_requests_total"), 3);
  EXPECT_GE(ScrapedValue(text, "suj_net_sample_requests_total"), 1);
  EXPECT_GE(ScrapedValue(text, "suj_net_connections_accepted_total"), 1);
  EXPECT_GE(ScrapedValue(text, "suj_service_prepares_total"), 1);
  EXPECT_GE(ScrapedValue(text, "suj_core_accepted_total"), 16);
  // Latency histograms render the full cumulative series.
  EXPECT_NE(text.find("# TYPE suj_net_request_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("suj_net_request_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_GE(ScrapedValue(text, "suj_net_request_ns_count"), 3);
  EXPECT_GE(ScrapedValue(text, "suj_service_sample_ns_count"), 1);
  // Scrape-time gauges reflect THIS server's live state.
  EXPECT_EQ(ScrapedValue(text, "suj_sessions_open"), 1);
  EXPECT_EQ(ScrapedValue(text, "suj_plans_resident"), 1);
  EXPECT_GT(ScrapedValue(text, "suj_registry_resident_bytes"), 0);
}

// ---------------------------------------------------------------------------
// Wire determinism: the bytes a remote client receives are exactly the
// bytes an in-process caller with the same seed, session rank, and
// request sizes gets.

void CheckWireMatchesInProcess(uint32_t worker_threads, uint8_t mode) {
  const uint64_t seed = 510;
  ServerFixture fx(seed);
  auto baseline = MakeService(seed);
  ASSERT_TRUE(baseline->Prepare("chains510", MakeJoins(510)).ok());

  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains510").ok());

  OpenSessionRequest open;
  open.query = "chains510";
  open.mode = mode;
  open.worker_threads = worker_threads;
  auto wire_session = client.OpenSession(open);
  ASSERT_TRUE(wire_session.ok()) << wire_session.status().ToString();

  SessionOptions in_process;
  in_process.mode = mode == 2 ? SessionOptions::Mode::kRevision
                              : SessionOptions::Mode::kOracle;
  in_process.worker_threads = worker_threads;
  auto local_session = baseline->OpenSession("chains510", in_process).value();

  // Same request-size sequence on both sides.
  for (size_t n : {7u, 64u, 1u, 130u}) {
    auto wire = client.Sample(wire_session.value(), n);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    auto local = baseline->Sample(local_session, n);
    ASSERT_TRUE(local.ok());
    ASSERT_EQ(wire.value().size(), local.value().size());
    for (size_t i = 0; i < local.value().size(); ++i) {
      ASSERT_EQ(wire.value()[i], local.value()[i].Encode())
          << "divergence at tuple " << i << " (n=" << n
          << ", worker_threads=" << worker_threads << ")";
    }
  }
}

TEST(WireDeterminismTest, OracleMatchesInProcess) {
  CheckWireMatchesInProcess(/*worker_threads=*/1, /*mode=*/0);
}

TEST(WireDeterminismTest, RevisionMatchesInProcessSingleThread) {
  CheckWireMatchesInProcess(/*worker_threads=*/1, /*mode=*/2);
}

TEST(WireDeterminismTest, RevisionMatchesInProcessFourThreads) {
  // The acceptance bar: byte-identical at 4 server worker threads.
  CheckWireMatchesInProcess(/*worker_threads=*/4, /*mode=*/2);
}

TEST(WireDeterminismTest, StreamDeliversInProcessBytesInOrder) {
  const uint64_t seed = 511;
  ServerFixture fx(seed);
  auto baseline = MakeService(seed);
  ASSERT_TRUE(baseline->Prepare("chains511", MakeJoins(511)).ok());

  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains511").ok());
  OpenSessionRequest open;
  open.query = "chains511";
  open.mode = 2;  // revision: chunking-invariant by contract
  auto wire_session = client.OpenSession(open).value();

  SessionOptions in_process;
  in_process.mode = SessionOptions::Mode::kRevision;
  auto local_session = baseline->OpenSession("chains511", in_process).value();

  const size_t total = 300;
  const uint32_t chunk_size = 64;
  std::vector<std::string> wire_bytes;
  ASSERT_TRUE(client
                  .StreamSample(wire_session, total, chunk_size,
                                [&](const net::TupleChunk& chunk) {
                                  for (const auto& t : chunk.encoded_tuples) {
                                    wire_bytes.push_back(t);
                                  }
                                  return Status::OK();
                                })
                  .ok());
  ASSERT_EQ(wire_bytes.size(), total);

  auto stream = baseline->OpenStream(local_session, total,
                                     {.chunk_size = chunk_size}).value();
  size_t i = 0;
  for (;;) {
    auto batch = stream->Next();
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const auto& t : batch.value()) {
      ASSERT_LT(i, wire_bytes.size());
      ASSERT_EQ(wire_bytes[i], t.Encode()) << "divergence at tuple " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, total);
}

// ---------------------------------------------------------------------------
// Remote surplus cap: a SessionOptions::max_revision_surplus set over
// the wire is honored, and the high-water instrumentation travels back.

TEST(SujServerTest, RemoteRevisionSurplusCapIsHonored) {
  ServerFixture fx(520);
  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains520").ok());

  const uint64_t cap = 48;
  OpenSessionRequest open;
  open.query = "chains520";
  open.mode = 2;
  open.batch_size = 16;
  open.max_revision_surplus = cap;
  auto session = client.OpenSession(open).value();

  // Odd request sizes force epoch overshoot (surplus buffering).
  uint64_t delivered = 0;
  for (size_t n : {5u, 23u, 57u, 9u, 111u, 3u}) {
    auto batch = client.Sample(session, n);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    delivered += batch.value().size();
  }
  auto stats = client.SessionStats(session).value();
  EXPECT_EQ(stats.tuples_delivered, delivered);
  EXPECT_LE(stats.revision_surplus_high_water, cap)
      << "remote cap not enforced";
  EXPECT_LE(stats.revision_buffered, cap);
  // The wire stats mirror the in-process snapshot exactly.
  auto local = fx.service->SessionStats(stats.session_id).value();
  EXPECT_EQ(stats.revision_surplus_high_water,
            local.revision_surplus_high_water);
  EXPECT_EQ(stats.sampler_accepted, local.sampler.accepted);
}

// ---------------------------------------------------------------------------
// Multi-tenant shedding

TEST(SujServerTest, TenantAtQuotaShedsWhileOthersProceed) {
  net::ServerOptions options;
  options.default_quota.requests_per_second = 0.001;  // ~never refills
  options.default_quota.burst = 3;
  ServerFixture fx(530, options);

  auto greedy = fx.Client("greedy");
  auto polite = fx.Client("polite");
  ASSERT_TRUE(greedy.Prepare("chains530").ok());

  OpenSessionRequest open;
  open.query = "chains530";
  auto greedy_session = greedy.OpenSession(open).value();
  auto polite_session = polite.OpenSession(open).value();

  // Burn greedy's burst (each Sample charges one token).
  int shed = 0;
  for (int i = 0; i < 8; ++i) {
    auto batch = greedy.Sample(greedy_session, 5);
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_GE(shed, 5) << "tenant quota never engaged";

  // The polite tenant's bucket is its own: it keeps sampling.
  for (int i = 0; i < 3; ++i) {
    auto batch = polite.Sample(polite_session, 5);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  }
  auto stats = polite.ServerStats().value();
  EXPECT_GE(stats.quota_shed_total, 5u);
  // v2 breakdown: every shed here came from the TENANT bucket (no
  // per-session rate is configured), and the parts sum to the total.
  EXPECT_EQ(stats.quota_shed_tenant, stats.quota_shed_total);
  EXPECT_EQ(stats.quota_shed_session, 0u);
  EXPECT_EQ(fx.server->governor().snapshot("polite").shed_tenant_quota, 0u);
}

TEST(SujServerTest, ConnectionCapShedsWithExplicitStatus) {
  net::ServerOptions options;
  options.max_connections = 1;
  ServerFixture fx(531, options);

  auto first = fx.Client("a");  // occupies the only slot
  auto second = SujClient::Connect("127.0.0.1", fx.server->port(), "b");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(fx.server->StatsSnapshot().connections_shed, 1u);
}

// ---------------------------------------------------------------------------
// Idle-session reaping over the wire

TEST(SujServerTest, ReaperClosesAbandonedSessionsWithoutPerturbingSiblings) {
  const uint64_t seed = 540;
  net::ServerOptions options;
  options.session_idle_timeout_ns = 50'000'000;  // 50 ms
  options.reap_interval_ns = 10'000'000;         // 10 ms
  ServerFixture fx(seed, options);
  auto baseline = MakeService(seed);
  ASSERT_TRUE(baseline->Prepare("chains540", MakeJoins(540)).ok());

  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains540").ok());
  OpenSessionRequest open;
  open.query = "chains540";
  // Session rank 0: abandoned. Rank 1: the survivor we check.
  auto abandoned = client.OpenSession(open).value();
  auto survivor = client.OpenSession(open).value();

  auto local_abandoned = baseline->OpenSession("chains540").value();
  (void)local_abandoned;
  auto local_survivor = baseline->OpenSession("chains540").value();

  // Prefix before the reap...
  auto before = client.Sample(survivor, 30).value();
  // ...abandon the other session long enough for the reaper.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!fx.service->sessions().Get(abandoned).ok()) break;
    // Keep the survivor warm so only the abandoned session idles out.
    ASSERT_TRUE(client.SessionStats(survivor).ok());
  }
  EXPECT_FALSE(fx.service->sessions().Get(abandoned).ok())
      << "reaper never fired";
  EXPECT_EQ(client.Sample(abandoned, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_GE(fx.server->StatsSnapshot().sessions_reaped, 1u);

  // The survivor's stream continues exactly where an unperturbed
  // in-process session (same rank, same request sizes) would be.
  auto after = client.Sample(survivor, 30).value();
  auto local = baseline->Sample(local_survivor, 60).value();
  ASSERT_EQ(local.size(), 60u);
  std::vector<std::string> wire_bytes = before;
  wire_bytes.insert(wire_bytes.end(), after.begin(), after.end());
  ASSERT_EQ(wire_bytes.size(), 60u);
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_EQ(wire_bytes[i], local[i].Encode()) << "divergence at " << i;
  }
  // The reaped slot went back to the governor.
  EXPECT_EQ(fx.server->governor().snapshot("t").sessions_open, 1u);
}

TEST(SujServerTest, SlowStreamKeepsSessionAliveAcrossIdleTimeout) {
  const uint64_t seed = 541;
  const int64_t timeout_ms = 400;
  net::ServerOptions options;
  options.session_idle_timeout_ns = timeout_ms * 1'000'000;
  options.reap_interval_ns = 10'000'000;  // 10 ms
  ServerFixture fx(seed, options);

  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains541").ok());
  OpenSessionRequest open;
  open.query = "chains541";
  // Oracle mode: per-chunk cost is uniform, so the inter-touch gap
  // stays far below the timeout even under TSan. (Revision mode's
  // first chunk pays cover learning and can alone outlast the
  // timeout under sanitizers — a chunk no per-chunk Touch can cover.)
  open.mode = 1;
  auto session = client.OpenSession(open).value();

  // The reaper must be starved of excuses by a stream whose PRODUCTION
  // outlasts the idle timeout many times over (loopback kernel buffers
  // absorb megabytes, so client-side pacing cannot reliably block the
  // server's writes — production time is the only deterministic pacer).
  // A fixed tuple count can't do that portably: it is trivially short
  // on a fast Release runner (the test passes with the bug present) and
  // minutes long under oversubscribed TSan. So calibrate: a short
  // stream measures THIS machine's wire throughput, and the main
  // stream is sized to ~4x the timeout from it.
  size_t delivered = 0;
  auto count_tuples = [&](const net::TupleChunk& chunk) {
    delivered += chunk.encoded_tuples.size();
    return Status::OK();
  };
  const auto calib_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      client.StreamSample(session, 4096, /*chunk_size=*/256, count_tuples)
          .ok());
  const double calib_ms = std::max<double>(
      1.0, std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - calib_start)
               .count());
  const double tuples_per_ms = static_cast<double>(delivered) / calib_ms;
  const uint64_t total = std::clamp<uint64_t>(
      static_cast<uint64_t>(tuples_per_ms * 4 * timeout_ms), 20'000,
      500'000);

  // The session's only liveness signal across the stream is the
  // per-chunk Touch in HandleStreamSample; the regression this pins
  // was a single post-loop Touch, which let the reaper close the
  // session mid-stream (the stream itself finished — it pins the
  // session shared_ptr — but the follow-up Sample below failed
  // NotFound). Small chunks keep the inter-touch gap tiny relative to
  // the timeout even when a parallel ctest run oversubscribes the box.
  // The client drains at full speed, so the Sample lands within
  // milliseconds of the server's final chunk.
  delivered = 0;
  const auto stream_start = std::chrono::steady_clock::now();
  auto streamed =
      client.StreamSample(session, total, /*chunk_size=*/64, count_tuples);
  const auto stream_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - stream_start).count();
  ASSERT_TRUE(streamed.ok()) << streamed.ToString();
  EXPECT_EQ(delivered, total);
  EXPECT_GT(stream_ms, timeout_ms)
      << "stream too fast to exercise the reaper — raise the calibration "
         "multiplier to keep this test meaningful";

  EXPECT_TRUE(fx.service->sessions().Get(session).ok())
      << "idle reaper closed a session that was mid-stream the whole time";
  auto after = client.Sample(session, 5);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().size(), 5u);
  EXPECT_EQ(fx.server->StatsSnapshot().sessions_reaped, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency smoke: many tenants hammering one server under TSan.

TEST(SujServerTest, ConcurrentTenantsSeeOnlyTheirOwnStreams) {
  const uint64_t seed = 550;
  ServerFixture fx(seed);
  {
    auto bootstrap = fx.Client("setup");
    ASSERT_TRUE(bootstrap.Prepare("chains550").ok());
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, Status::OK());
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&fx, &results, i] {
      auto run = [&]() -> Status {
        SUJ_ASSIGN_OR_RETURN(
            SujClient client,
            SujClient::Connect("127.0.0.1", fx.server->port(),
                               "tenant" + std::to_string(i)));
        OpenSessionRequest open;
        open.query = "chains550";
        open.mode = i % 2 == 0 ? 0 : 2;
        SUJ_ASSIGN_OR_RETURN(uint64_t session, client.OpenSession(open));
        size_t got = 0;
        for (int r = 0; r < 5; ++r) {
          SUJ_ASSIGN_OR_RETURN(std::vector<std::string> batch,
                               client.Sample(session, 20));
          got += batch.size();
        }
        if (got != 100) return Status::Internal("short delivery");
        return client.CloseSession(session);
      };
      results[i] = run();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(results[i].ok()) << "thread " << i << ": "
                                 << results[i].ToString();
  }
  auto stats = fx.server->StatsSnapshot();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.sessions_open, 0u);
}

// ---------------------------------------------------------------------------
// Sharded serving over the wire: shard-aware Prepare, byte identity
// against an in-process sharded baseline, and shard fault injection with
// counter reconciliation.

TEST(SujServerTest, ShardedPrepareReportsPlanShape) {
  ServerFixture fx(560);
  auto client = fx.Client("t");

  auto prepared = client.Prepare("chains560", /*num_shards=*/4);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().num_shards, 4u);

  // The plan is pinned: a later Prepare with a different shard count
  // reports the existing shape instead of rebuilding.
  auto again = client.Prepare("chains560", 8);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().plan_id, prepared.value().plan_id);
  EXPECT_EQ(again.value().num_shards, 4u);

  // Unknown partition schemes are rejected cleanly, connection intact.
  EXPECT_EQ(client.Prepare("chains561", 2, /*scheme=*/7).status().code(),
            StatusCode::kInvalidArgument);

  // Sampling from the sharded plan works end to end.
  OpenSessionRequest open;
  open.query = "chains560";
  auto session = client.OpenSession(open);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto batch = client.Sample(session.value(), 25);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), 25u);
}

TEST(WireDeterminismTest, ShardedPlanMatchesInProcessShardedBaseline) {
  const uint64_t seed = 563;
  ServerFixture fx(seed);
  auto baseline = MakeService(seed);
  PreparedQueryOptions prep = baseline->options().query_defaults;
  prep.shard.num_shards = 4;
  ASSERT_TRUE(baseline->Prepare("chains563", MakeJoins(563), prep).ok());

  auto client = fx.Client("t");
  auto prepared = client.Prepare("chains563", /*num_shards=*/4);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared.value().num_shards, 4u);

  OpenSessionRequest open;
  open.query = "chains563";
  open.mode = 2;  // revision
  open.worker_threads = 4;
  auto wire_session = client.OpenSession(open).value();

  SessionOptions in_process;
  in_process.mode = SessionOptions::Mode::kRevision;
  in_process.worker_threads = 4;
  auto local_session = baseline->OpenSession("chains563", in_process).value();

  for (size_t n : {9u, 64u, 1u, 110u}) {
    auto wire = client.Sample(wire_session, n);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    auto local = baseline->Sample(local_session, n);
    ASSERT_TRUE(local.ok());
    ASSERT_EQ(wire.value().size(), local.value().size());
    for (size_t i = 0; i < local.value().size(); ++i) {
      ASSERT_EQ(wire.value()[i], local.value()[i].Encode())
          << "sharded wire divergence at tuple " << i << " (n=" << n << ")";
    }
  }
}

TEST(SujServerTest, ShardFailureSurfacesUnavailableAndCountersReconcile) {
  ServerFixture fx(564);
  auto client = fx.Client("t");
  ASSERT_TRUE(client.Prepare("chains564", /*num_shards=*/4).ok());
  auto plan = fx.service->GetQuery("chains564").value();
  ASSERT_NE(plan->shards(), nullptr);

  // Deltas, not absolutes: the shard counters in ServerStats read
  // process-global metrics shared with every suite in this binary.
  const auto before = client.ServerStats().value();
  const uint64_t coord_before = plan->shards()->unavailable_errors();

  OpenSessionRequest open;
  open.query = "chains564";
  auto session = client.OpenSession(open).value();
  ASSERT_TRUE(client.Sample(session, 10).ok());

  // Shard 2 dies. Every subsequent draw on the plan — request or stream
  // chunk — must fail promptly with kUnavailable: a routed draw could
  // land on the dead shard, and silently re-routing would bias the
  // sample.
  plan->shards()->FailShard(2);

  EXPECT_EQ(client.Sample(session, 5).status().code(),
            StatusCode::kUnavailable);

  size_t delivered = 0;
  Status stream_status =
      client.StreamSample(session, 200, 16, [&](const net::TupleChunk& c) {
        delivered += c.encoded_tuples.size();
        return Status::OK();
      });
  EXPECT_EQ(stream_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(delivered, 0u) << "stream produced chunks from a failed plan";

  // Client-observed failures reconcile with the coordinator's ledger and
  // with the wire-exposed counter delta.
  const uint64_t coord_errors =
      plan->shards()->unavailable_errors() - coord_before;
  EXPECT_GE(coord_errors, 2u);
  const auto after = client.ServerStats().value();
  EXPECT_EQ(after.shard_unavailable_errors - before.shard_unavailable_errors,
            coord_errors);

  // Restore: the same session resumes where it left off.
  plan->shards()->RestoreShard(2);
  auto resumed = client.Sample(session, 10);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().size(), 10u);
  EXPECT_TRUE(client.CloseSession(session).ok());
}

}  // namespace
}  // namespace suj
