// The served stack (SamplingService behind a SujServer on loopback, in
// this process) and the load phases and correctness checks run against it.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/sampling_service.h"
#include "spans.h"

namespace perfbench {

/// The wire name of the served query.
inline const char* const kQuery = "q";

/// One session the load opened, in open order (== substream rank order).
struct SessionRecord {
  suj::net::OpenSessionRequest open;
  uint64_t epoch = 0;             ///< data epoch pinned at open
  uint64_t newest_epoch_at_close = 0;
  /// Sizes of its first OK requests (the checked ones), in order.
  std::vector<size_t> sizes;
  uint64_t hash = kHashSeed;      ///< over the answers to those requests
};

struct LoadResult {
  std::vector<double> req_ms;    ///< Sample latency (open loop: from due)
  /// Open loop: second of the phase each req_ms sample was due in.
  std::vector<int32_t> req_window;
  std::vector<double> apply_ms;  ///< ApplyDelta latency (from due)
  std::vector<double> late_ms;   ///< how late each request left the client
  uint64_t attempted = 0;
  uint64_t failed = 0;           ///< non-OK answers other than sheds
  uint64_t shed = 0;             ///< ResourceExhausted answers
  uint64_t tuples = 0;
  uint64_t bytes = 0;            ///< encoded tuple bytes delivered
  double wall_s = 0;
  std::vector<SessionRecord> sessions;
  /// One summary line per connection (its latency percentiles).
  std::vector<std::string> per_connection;
  /// Scraped admission counters over the phase.
  double admission_waited = 0;
  double admission_admitted = 0;
};

class Served {
 public:
  static suj::Result<std::unique_ptr<Served>> Start(const WorkloadShape& shape,
                                                    const Inputs& inputs,
                                                    uint64_t seed);
  ~Served();

  /// Wire Prepare repetitions; the last one pins the served query.
  /// Returns each repetition's wall time in seconds.
  suj::Result<std::vector<double>> TimeSetup();

  /// One load phase of `seconds`; closed-loop sessions keep going past
  /// it until each has `min_answers` answered requests. Spans go to
  /// `spans` when non-null.
  suj::Result<LoadResult> RunLoad(double seconds, size_t min_answers,
                                  SpanRecorder* spans);

  /// Wire bytes == in-process replay bytes for every checked session of
  /// `sessions` (in-process replay on a fresh service with the same
  /// seed), plus the chi-square test where the workload asks for it.
  /// A violation is returned as a non-OK status.
  suj::Status CheckReplay(const std::vector<SessionRecord>& sessions,
                          std::string* report) const;

  suj::SamplingService* service() { return service_.get(); }
  uint16_t port() const { return server_->port(); }
  const WorkloadShape& shape() const { return shape_; }
  const Inputs& inputs() const { return inputs_; }
  uint64_t seed() const { return seed_; }
  suj::PreparedUnionPtr plan() const;

 private:
  Served(const WorkloadShape& shape, const Inputs& inputs, uint64_t seed)
      : shape_(shape), inputs_(inputs), seed_(seed) {}

  const WorkloadShape& shape_;
  const Inputs& inputs_;
  const uint64_t seed_;
  std::unique_ptr<suj::SamplingService> service_;
  std::unique_ptr<suj::net::SujServer> server_;
  /// Next writer delta (index into inputs_.deltas).
  size_t next_delta_ = 0;
  /// Indices of the deltas applied, in apply order: applied_[e] built
  /// epoch e + 1.
  std::vector<size_t> applied_;
};

/// Options of the served (and replay) SamplingService.
suj::ServiceOptions MakeServiceOptions(const Inputs& inputs, uint64_t seed);

/// The wire form of an in-process delta batch.
suj::net::ApplyDeltaRequest ToWire(const suj::RelationDelta& delta);

/// Value of a bare `name value` line of a Prometheus scrape; 0 if absent.
double ScrapedValue(const std::string& text, const std::string& name);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
