#include "load.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <thread>

#include "core/exact_overlap.h"
#include "net/client.h"
#include "stats/uniformity.h"

namespace perfbench {

using suj::Result;
using suj::Status;
using suj::StatusCode;
using suj::net::SujClient;

namespace {

/// Significance level of W2's chi-square uniformity check. Small enough
/// that a correct sampler fails it about once in 10^4 runs; a biased
/// sampler over ~10^5 draws fails it by orders of magnitude.
constexpr double kChiSquareAlpha = 1e-4;

void SleepUntil(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// Open-loop requests leave within microseconds of their due time only
/// if sleeps end on time; the default 50 us timer slack would add up to
/// that much lateness to every request.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// How long a closed loop may outlast its deadline collecting answers;
/// a run still short of them then fails its tail-sample check.
constexpr int64_t kMaxOvertimeNs = 100'000'000'000;

/// What one client thread measured.
struct WorkerOut {
  LoadResult part;
  Status status;
  int64_t last_end_ns = 0;
};

/// Accounts one Sample answer into `out` and the session's replay record.
void Account(const Result<std::vector<std::string>>& answer, size_t n,
             int64_t latency_ns, size_t check_requests, SessionRecord* rec,
             WorkerOut* out) {
  ++out->part.attempted;
  if (!answer.ok()) {
    if (answer.status().code() == StatusCode::kResourceExhausted) {
      ++out->part.shed;
    } else {
      ++out->part.failed;
    }
    return;
  }
  out->part.req_ms.push_back(latency_ns * 1e-6);
  out->part.tuples += answer->size();
  const bool hash = check_requests == 0 || rec->sizes.size() < check_requests;
  for (const std::string& t : *answer) {
    out->part.bytes += t.size();
    if (hash) rec->hash = MixHash(rec->hash, t);
  }
  if (hash) rec->sizes.push_back(n);
}

void Merge(LoadResult* into, LoadResult&& part) {
  auto append = [](std::vector<double>& a, std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into->req_ms, part.req_ms);
  into->req_window.insert(into->req_window.end(), part.req_window.begin(),
                          part.req_window.end());
  append(into->apply_ms, part.apply_ms);
  append(into->late_ms, part.late_ms);
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->shed += part.shed;
  into->tuples += part.tuples;
  into->bytes += part.bytes;
}

}  // namespace

suj::ServiceOptions MakeServiceOptions(const Inputs& inputs, uint64_t seed) {
  suj::ServiceOptions o;
  o.seed = ServiceSeed(seed);
  o.max_sessions = 256;
  o.max_inflight = kSizedForCores;
  o.max_admission_queue = 16;
  o.query_defaults = inputs.prep;
  return o;
}

suj::net::ApplyDeltaRequest ToWire(const suj::RelationDelta& delta) {
  suj::net::WireRelationDelta wire;
  wire.relation = delta.relation;
  wire.delete_rows = delta.deletes;
  for (const suj::Tuple& t : delta.appends) {
    wire.encoded_appends.push_back(t.Encode());
  }
  suj::net::ApplyDeltaRequest request;
  request.query = kQuery;
  request.deltas = {std::move(wire)};
  return request;
}

double ScrapedValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stod(text.substr(pos + name.size() + 1));
    }
    ++pos;
  }
  return 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

Result<std::unique_ptr<Served>> Served::Start(const WorkloadShape& shape,
                                              const Inputs& inputs,
                                              uint64_t seed) {
  std::unique_ptr<Served> served(new Served(shape, inputs, seed));
  SUJ_ASSIGN_OR_RETURN(served->service_,
                       suj::SamplingService::Create(
                           MakeServiceOptions(inputs, seed)));
  suj::net::ServerOptions options;
  options.max_connections = 2 * kSizedForCores;
  // Generous buckets: never shed at the offered load, but every request
  // still pays the tenant and session token-bucket checks.
  options.default_quota.requests_per_second = 1e6;
  options.default_quota.burst = 1e6;
  options.default_quota.session_requests_per_second = 1e6;
  options.default_quota.session_burst = 1e6;
  const Inputs* in = &inputs;
  served->server_ = std::make_unique<suj::net::SujServer>(
      served->service_.get(),
      [in](const std::string&) -> Result<std::vector<suj::JoinSpecPtr>> {
        return in->data.joins;
      },
      options);
  SUJ_RETURN_NOT_OK(served->server_->Start());
  return served;
}

Served::~Served() {
  if (server_) server_->Stop();
}

suj::PreparedUnionPtr Served::plan() const {
  auto plan = service_->GetQuery(kQuery);
  return plan.ok() ? *plan : nullptr;
}

Result<std::vector<double>> Served::TimeSetup() {
  SUJ_ASSIGN_OR_RETURN(SujClient client,
                       SujClient::Connect("127.0.0.1", port(), "setup"));
  std::vector<double> seconds;
  for (int r = 0; r < shape_.setup_repetitions; ++r) {
    const bool last = r + 1 == shape_.setup_repetitions;
    const std::string name = last ? kQuery : "setup-" + std::to_string(r);
    const int64_t t0 = NowNs();
    SUJ_RETURN_NOT_OK(client.Prepare(name, shape_.shards).status());
    seconds.push_back((NowNs() - t0) * 1e-9);
    if (!last) SUJ_RETURN_NOT_OK(service_->Evict(name));
  }
  return seconds;
}

namespace {

Result<std::pair<double, double>> ScrapeAdmission(uint16_t port) {
  SUJ_ASSIGN_OR_RETURN(SujClient client,
                       SujClient::Connect("127.0.0.1", port, "scrape"));
  SUJ_ASSIGN_OR_RETURN(std::string text, client.Metrics());
  return std::make_pair(ScrapedValue(text, "suj_admission_waited_total"),
                        ScrapedValue(text, "suj_admission_admitted_total"));
}

}  // namespace

Result<LoadResult> Served::RunLoad(double seconds, size_t min_answers,
                                  SpanRecorder* spans) {
  SUJ_ASSIGN_OR_RETURN(auto before, ScrapeAdmission(port()));
  SpanRecorder::Buffer* main_buf = spans ? spans->NewBuffer() : nullptr;
  const size_t n_sessions = shape_.sessions.size();
  const size_t writer_deltas = inputs_.deltas.size() - kLadderDeltas;
  std::vector<WorkerOut> outs(n_sessions + 1);
  std::vector<std::vector<SessionRecord>> records(n_sessions);

  auto open_request = [&](size_t s) {
    suj::net::OpenSessionRequest open;
    open.query = kQuery;
    open.mode = shape_.sessions[s].mode;
    open.worker_threads = shape_.sessions[s].worker_threads;
    return open;
  };
  // Opens a session on `client` and records it with the epoch it pinned.
  auto open_session = [&](SujClient& client, size_t s) -> Result<uint64_t> {
    SessionRecord rec;
    rec.open = open_request(s);
    SUJ_ASSIGN_OR_RETURN(uint64_t sid, client.OpenSession(rec.open));
    auto session = service_->sessions().Get(sid);
    if (!session.ok()) return session.status();
    rec.epoch = (*session)->plan()->data_epoch();
    records[s].push_back(std::move(rec));
    return sid;
  };

  // Sessions open in a fixed order on this thread, so their substream
  // ranks, and hence their bytes, are reproducible.
  std::vector<SujClient> clients;
  std::vector<uint64_t> sids;
  for (size_t s = 0; s < n_sessions; ++s) {
    SUJ_ASSIGN_OR_RETURN(
        SujClient client,
        SujClient::Connect("127.0.0.1", port(), shape_.sessions[s].tenant));
    SUJ_ASSIGN_OR_RETURN(uint64_t sid, open_session(client, s));
    clients.push_back(std::move(client));
    sids.push_back(sid);
  }

  ScopedSpan phase(main_buf, "load.phase", 0, 0);
  const uint64_t phase_id = phase.id();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const double period_ns =
      shape_.open_loop ? 1e9 * n_sessions / shape_.aggregate_rps : 0;

  // One client thread per session. Open loop: requests leave on a fixed
  // schedule (sessions offset so aggregate arrivals are evenly spaced) and
  // are timed from when they were due. Closed loop: the next request
  // leaves when the previous answer lands, until the deadline; a reader
  // with `reopen_every` reopens its session to adopt the newest epoch.
  auto session_worker = [&](size_t s) {
    TightenTimerSlack();
    SpanRecorder::Buffer* buf = spans ? spans->NewBuffer() : nullptr;
    WorkerOut& w = outs[s];
    SujClient& client = clients[s];
    uint64_t& sid = sids[s];
    const auto& sizes = inputs_.sizes[s];
    auto run = [&]() -> Status {
      const size_t count =
          shape_.open_loop
              ? std::min(sizes.size(),
                         static_cast<size_t>(std::ceil(seconds * 1e9 / period_ns)))
              : SIZE_MAX;
      size_t in_session = 0;
      int64_t prev_end = start;
      for (size_t i = 0; i < count; ++i) {
        int64_t due = prev_end;
        if (shape_.open_loop) {
          due = start + static_cast<int64_t>(
                            (i + static_cast<double>(s) / n_sessions) *
                            period_ns);
          SleepUntil(due);
        } else if (NowNs() >= deadline &&
                   (w.part.req_ms.size() >= min_answers ||
                    NowNs() >= deadline + kMaxOvertimeNs)) {
          break;
        }
        if (shape_.reopen_every > 0 && in_session == shape_.reopen_every) {
          const uint64_t request = spans ? spans->NewRequest() : 0;
          {
            ScopedSpan span(buf, "wire.close_session", phase_id, request);
            SUJ_RETURN_NOT_OK(client.CloseSession(sid));
          }
          records[s].back().newest_epoch_at_close = plan()->latest_epoch();
          ScopedSpan span(buf, "wire.open_session", phase_id, request);
          SUJ_ASSIGN_OR_RETURN(sid, open_session(client, s));
          in_session = 0;
        }
        const size_t n = sizes[i % sizes.size()];
        const int64_t send = NowNs();
        w.part.late_ms.push_back((send - due) * 1e-6);
        Result<std::vector<std::string>> answer = Status::Internal("unset");
        {
          ScopedSpan span(buf, "wire.sample", phase_id,
                          spans ? spans->NewRequest() : 0);
          answer = client.Sample(sid, n);
        }
        const int64_t end = NowNs();
        Account(answer, n, end - (shape_.open_loop ? due : send),
                shape_.check_requests, &records[s].back(), &w);
        if (shape_.open_loop && answer.ok()) {
          w.part.req_window.push_back(
              static_cast<int32_t>((due - start) / 1'000'000'000));
        }
        ++in_session;
        prev_end = end;
        w.last_end_ns = end;
      }
      SUJ_RETURN_NOT_OK(client.CloseSession(sid));
      records[s].back().newest_epoch_at_close = plan()->latest_epoch();
      return Status::OK();
    };
    w.status = run();
  };

  // The open-loop writer: one delta batch per interval, timed from its
  // due time, for as long as the readers run. Failures are counted, not
  // retried.
  std::atomic<bool> readers_done{false};
  auto writer = [&]() {
    TightenTimerSlack();
    SpanRecorder::Buffer* buf = spans ? spans->NewBuffer() : nullptr;
    WorkerOut& w = outs[n_sessions];
    auto run = [&]() -> Status {
      SUJ_ASSIGN_OR_RETURN(SujClient client,
                           SujClient::Connect("127.0.0.1", port(), "writer"));
      for (int64_t k = 0;; ++k) {
        const int64_t due =
            start + static_cast<int64_t>(k * shape_.delta_interval_ms * 1e6);
        if ((due >= deadline && readers_done.load()) ||
            next_delta_ >= writer_deltas) {
          break;
        }
        SleepUntil(due);
        const int64_t send = NowNs();
        w.part.late_ms.push_back((send - due) * 1e-6);
        Result<suj::net::ApplyDeltaResponse> answer = Status::Internal("unset");
        {
          ScopedSpan span(buf, "wire.apply_delta", phase_id,
                          spans ? spans->NewRequest() : 0);
          answer = client.ApplyDelta(ToWire(inputs_.deltas[next_delta_]));
        }
        const int64_t end = NowNs();
        ++w.part.attempted;
        if (answer.ok()) {
          w.part.apply_ms.push_back((end - due) * 1e-6);
          applied_.push_back(next_delta_);
        } else if (answer.status().code() == StatusCode::kResourceExhausted) {
          ++w.part.shed;
        } else {
          ++w.part.failed;
        }
        ++next_delta_;
      }
      return Status::OK();
    };
    w.status = run();
  };

  std::vector<std::thread> threads;
  for (size_t s = 0; s < n_sessions; ++s) threads.emplace_back(session_worker, s);
  std::thread writer_thread;
  if (shape_.delta_interval_ms > 0) writer_thread = std::thread(writer);
  for (auto& t : threads) t.join();
  readers_done.store(true);
  if (writer_thread.joinable()) writer_thread.join();

  LoadResult out;
  int64_t last_end = start;
  for (size_t s = 0; s < n_sessions; ++s) {
    last_end = std::max(last_end, outs[s].last_end_ns);
  }
  out.wall_s = (last_end - start) * 1e-9;
  for (size_t s = 0; s < outs.size(); ++s) {
    WorkerOut& w = outs[s];
    SUJ_RETURN_NOT_OK(w.status);
    std::vector<double> ms = s < n_sessions ? w.part.req_ms : w.part.apply_ms;
    if (!ms.empty()) {
      std::sort(ms.begin(), ms.end());
      const char* what = s == n_sessions          ? "writer"
                         : shape_.sessions[s].mode == 2 ? "revision"
                                                        : "oracle";
      out.per_connection.push_back(
          std::string(what) + " x" +
          std::to_string(s < n_sessions ? shape_.sessions[s].worker_threads
                                        : 1) +
          ": n=" + std::to_string(ms.size()) + " p50 " +
          std::to_string(Percentile(ms, 0.5)) + " ms, p99 " +
          std::to_string(Percentile(ms, 0.99)) + " ms");
    }
    Merge(&out, std::move(w.part));
  }
  for (auto& r : records) {
    for (auto& rec : r) out.sessions.push_back(std::move(rec));
  }
  SUJ_ASSIGN_OR_RETURN(auto after, ScrapeAdmission(port()));
  out.admission_waited = after.first - before.first;
  out.admission_admitted = after.second - before.second;
  return out;
}

Status Served::CheckReplay(const std::vector<SessionRecord>& sessions,
                           std::string* report) const {
  SUJ_ASSIGN_OR_RETURN(auto replay,
                       suj::SamplingService::Create(
                           MakeServiceOptions(inputs_, seed_)));
  SUJ_RETURN_NOT_OK(
      replay->Prepare(kQuery, inputs_.data.joins, inputs_.prep).status());
  size_t epoch = 0;
  size_t checked = 0, tuples = 0, pinned_while_deltas_landed = 0;
  // Oracle-session output counted by value, for the chi-square test.
  std::unordered_map<std::string, uint64_t> oracle_counts;
  uint64_t oracle_samples = 0;
  const size_t limit = shape_.check_sessions > 0
                           ? std::min(shape_.check_sessions, sessions.size())
                           : sessions.size();
  for (size_t k = 0; k < limit; ++k) {
    const SessionRecord& rec = sessions[k];
    // Bring the replay to the epoch the wire session pinned, with the
    // same delta batches in the same order.
    while (epoch < rec.epoch) {
      if (epoch >= applied_.size()) {
        return Status::Internal("session pinned an epoch never applied");
      }
      SUJ_RETURN_NOT_OK(
          replay->ApplyDelta(kQuery, {inputs_.deltas[applied_[epoch]]})
              .status());
      ++epoch;
    }
    SUJ_ASSIGN_OR_RETURN(suj::SessionOptions options,
                         rec.open.ToSessionOptions());
    SUJ_ASSIGN_OR_RETURN(uint64_t sid, replay->OpenSession(kQuery, options));
    uint64_t hash = kHashSeed;
    for (size_t n : rec.sizes) {
      SUJ_ASSIGN_OR_RETURN(std::vector<suj::Tuple> batch,
                           replay->Sample(sid, n));
      tuples += batch.size();
      const bool count = shape_.chi_square && rec.open.mode == 0;
      for (const suj::Tuple& t : batch) {
        std::string key = t.Encode();
        hash = MixHash(hash, key);
        if (count) {
          ++oracle_counts[std::move(key)];
          ++oracle_samples;
        }
      }
    }
    SUJ_RETURN_NOT_OK(replay->CloseSession(sid));
    if (hash != rec.hash) {
      return Status::Internal(
          "wire bytes differ from the in-process replay for session " +
          std::to_string(k) + " (epoch " + std::to_string(rec.epoch) + ")");
    }
    ++checked;
    if (rec.newest_epoch_at_close > rec.epoch) ++pinned_while_deltas_landed;
  }
  *report = "replay: " + std::to_string(checked) + " sessions, " +
            std::to_string(tuples) + " tuples byte-identical";
  if (shape_.delta_interval_ms > 0) {
    *report += ", " + std::to_string(pinned_while_deltas_landed) +
               " of them pinned while deltas landed";
  }
  if (shape_.chi_square) {
    SUJ_ASSIGN_OR_RETURN(auto exact,
                         suj::ExactOverlapCalculator::Create(inputs_.data.joins));
    // Pearson's statistic over the whole union: unseen values contribute
    // their full expected count, and a value outside the union fails.
    const auto& universe = exact->membership();
    const double expected =
        static_cast<double>(oracle_samples) / universe.size();
    double statistic = 0;
    for (const auto& [key, mask] : universe) {
      auto it = oracle_counts.find(key);
      const double d =
          (it == oracle_counts.end() ? 0.0 : static_cast<double>(it->second)) -
          expected;
      statistic += d * d / expected;
    }
    bool outside = false;
    for (const auto& [key, c] : oracle_counts) {
      if (!universe.count(key)) outside = true;
    }
    const double p_value =
        outside || universe.size() < 2 || oracle_samples == 0
            ? 0.0
            : suj::ChiSquareSurvival(statistic, universe.size() - 1);
    *report += "; chi-square over " + std::to_string(universe.size()) +
               " values, " + std::to_string(oracle_samples) +
               " oracle samples: p=" + std::to_string(p_value);
    if (p_value < kChiSquareAlpha) {
      return Status::Internal("chi-square uniformity check failed: " +
                              *report);
    }
  }
  return Status::OK();
}

}  // namespace perfbench
