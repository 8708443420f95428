// Shared pieces of the service benchmark: the workload table, the
// seed-derived inputs, timing and percentile helpers, and the named
// metric set a run reports.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "service/prepared_union.h"
#include "storage/relation_delta.h"
#include "workloads/tpch_workloads.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Threads the workloads are sized for: at most this many connections and
/// this many busy threads, all in one process.
constexpr size_t kSizedForCores = 4;
/// Executor width of the bulk sessions (nproc - 1 on the sized machine).
constexpr uint32_t kBulkWorkers = kSizedForCores - 1;

/// One session a workload keeps open: tenant, mode (wire encoding:
/// 0 oracle, 1 online, 2 revision) and executor width.
struct SessionShape {
  std::string tenant;
  uint8_t mode = 0;
  uint32_t worker_threads = 1;
};

/// Everything that defines one workload, in one place.
struct WorkloadShape {
  std::string name;
  bool uq1 = false;             ///< TPC-H UQ1; otherwise synthetic chains
  double uq1_scale = 4.0;
  double uq1_overlap = 0.2;
  int chain_joins = 4;
  int chain_relations = 3;
  size_t master_rows = 0;
  suj::WarmupMode warmup = suj::WarmupMode::kRandomWalk;
  uint32_t shards = 1;
  std::vector<SessionShape> sessions;  ///< one connection each
  bool open_loop = false;
  /// Open loop: aggregate Sample requests per second over all sessions.
  double aggregate_rps = 0;
  size_t min_batch = 0;          ///< request sizes, uniform in [min, max]
  size_t max_batch = 0;
  /// Closed-loop reader: close and reopen the session after this many
  /// requests, so it adopts the newest data epoch (0 = never).
  size_t reopen_every = 0;
  /// Writer connection: one delta batch every this many ms (0 = none).
  double delta_interval_ms = 0;
  /// Wire Prepare repetitions timed for setup_s.
  int setup_repetitions = 5;
  /// Requests per session replayed in process and compared byte for byte.
  size_t check_requests = 0;
  /// Sessions (in open order) replayed; 0 = all.
  size_t check_sessions = 0;
  /// Chi-square test on the oracle sessions' output (exact warm-up only).
  bool chi_square = false;
};

/// The three named workloads.
const std::vector<WorkloadShape>& Workloads();
const WorkloadShape* FindWorkload(const std::string& name);

/// Delta batches kept back from the writer for the per-layer ladder.
constexpr size_t kLadderDeltas = 6;

/// Inputs of one run, all generated from the seed before any timing.
struct Inputs {
  suj::workloads::UnionWorkload data;  ///< joins + the catalog owning them
  suj::PreparedQueryOptions prep;      ///< what the wire Prepare builds
  /// Per session: its whole request-size schedule (open loop) or the
  /// repeating sizes of its closed loop.
  std::vector<std::vector<size_t>> sizes;
  /// Delta batches in apply order (writer schedule, then ladder probes).
  std::vector<suj::RelationDelta> deltas;
};

/// Builds the inputs of `shape` for `seed`, sized for a run of `seconds`.
suj::Result<Inputs> MakeInputs(const WorkloadShape& shape, uint64_t seed,
                               double seconds);

/// Seed of the served SamplingService's session substreams.
inline uint64_t ServiceSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 0x5EED;
}

/// Order-dependent hash of a byte stream, fed one tuple at a time.
inline uint64_t MixHash(uint64_t h, std::string_view bytes) {
  const uint64_t v = std::hash<std::string_view>()(bytes);
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0x100000001B3ull;
}
constexpr uint64_t kHashSeed = 0xCBF29CE484222325ull;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
inline double Percentile(const std::vector<double>& sorted, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}
/// Samples strictly beyond the nearest-rank `p` percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p * n));
  return n - std::min(rank, n);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Named metrics with units, in emission order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!values_.count(name)) order_.push_back(name);
    values_[name] = {value, unit};
  }
  const std::vector<std::string>& order() const { return order_; }
  const std::pair<double, std::string>& at(const std::string& name) const {
    return values_.at(name);
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
