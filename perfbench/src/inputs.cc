// The workload table and seed-derived input generation.

#include <cmath>

#include "common.h"
#include "common/rng.h"
#include "workloads/synthetic.h"

namespace perfbench {

namespace {

std::vector<WorkloadShape> BuildTable() {
  std::vector<WorkloadShape> table;

  // W1: the paper's UQ1 (§9). Its ~180k-tuple union overflows the 64k
  // owner memo and its plan misses L2, so descent, owner probing, oracle
  // fan-out, encoding and the socket all carry load.
  WorkloadShape w1;
  w1.name = "uq1-bulk";
  w1.uq1 = true;
  w1.warmup = suj::WarmupMode::kRandomWalk;
  w1.sessions = {{"bulk", 0, kBulkWorkers}};
  w1.min_batch = w1.max_batch = 2048;
  w1.setup_repetitions = 7;
  w1.check_requests = 48;
  table.push_back(w1);

  // W2: a 2,805-tuple union that fits the memo and L2, hit by small
  // requests at a fixed open-loop rate, so per-request cost (framing,
  // session lookup, admission, token buckets, resumable revision state)
  // dominates. The rate is about half the closed-loop capacity of this
  // mix on a 4-core machine (see README.md).
  WorkloadShape w2;
  w2.name = "chains-small-mixed";
  w2.chain_joins = 4;
  w2.chain_relations = 3;
  w2.master_rows = 400;
  w2.warmup = suj::WarmupMode::kExact;
  w2.sessions = {{"tenant-a", 0, 1},
                 {"tenant-a", 2, 1},
                 {"tenant-b", 0, 1},
                 {"tenant-b", 2, 1}};
  w2.open_loop = true;
  w2.aggregate_rps = 10000;
  w2.min_batch = 8;
  w2.max_batch = 64;
  w2.setup_repetitions = 15;
  w2.check_requests = 20000;
  w2.chi_square = true;
  table.push_back(w2);

  // W3: writes beside reads on a 4-shard hash plan. The sharded row-path
  // descent, the revision epoch executor, session open and ApplyDelta
  // all do real work here and almost none in W1 or W2.
  WorkloadShape w3;
  w3.name = "chains-churn-sharded";
  w3.chain_joins = 4;
  w3.chain_relations = 3;
  w3.master_rows = 20000;
  w3.warmup = suj::WarmupMode::kRandomWalk;
  w3.shards = 4;
  w3.sessions = {{"reader", 2, kBulkWorkers}};
  w3.min_batch = w3.max_batch = 4096;
  w3.reopen_every = 16;
  w3.delta_interval_ms = 250;
  w3.setup_repetitions = 7;
  w3.check_requests = 0;  // every request of the checked sessions
  w3.check_sessions = 4;
  table.push_back(w3);
  return table;
}

/// One batch against `target`: one delete and four appends. Appends copy
/// an existing row and give its first column a fresh value, so they add
/// new join results rather than duplicates.
suj::RelationDelta MakeDelta(const suj::Relation& target, suj::Rng& rng,
                             uint64_t salt) {
  suj::RelationDelta delta;
  delta.relation = target.name();
  delta.deletes = {static_cast<uint32_t>(rng.UniformInt(target.num_rows() / 2))};
  for (int i = 0; i < 4; ++i) {
    suj::Tuple row = target.GetTuple(rng.UniformInt(target.num_rows()));
    std::vector<suj::Value> values = row.values();
    if (values[0].type() == suj::ValueType::kInt64) {
      values[0] = suj::Value::Int64((int64_t{1} << 40) +
                                    static_cast<int64_t>(salt) * 8 + i);
    }
    delta.appends.emplace_back(std::move(values));
  }
  return delta;
}

}  // namespace

const std::vector<WorkloadShape>& Workloads() {
  static const std::vector<WorkloadShape> table = BuildTable();
  return table;
}

const WorkloadShape* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

suj::Result<Inputs> MakeInputs(const WorkloadShape& shape, uint64_t seed,
                               double seconds) {
  Inputs in;
  if (shape.uq1) {
    suj::tpch::OverlapConfig config;
    config.per_variant.scale_factor = shape.uq1_scale;
    config.per_variant.seed = seed;
    config.num_variants = 5;
    config.overlap_scale = shape.uq1_overlap;
    SUJ_ASSIGN_OR_RETURN(in.data, suj::workloads::BuildUQ1(config));
  } else {
    suj::workloads::SyntheticChainOptions options;
    options.num_joins = shape.chain_joins;
    options.num_relations = shape.chain_relations;
    options.master_rows = shape.master_rows;
    options.seed = seed;
    SUJ_ASSIGN_OR_RETURN(in.data.joins,
                         suj::workloads::MakeOverlappingChains(options));
  }
  in.prep.warmup = shape.warmup;
  in.prep.shard.num_shards = static_cast<int>(shape.shards);

  // Request sizes: one RNG substream per session.
  suj::Rng rng(seed ^ 0x51235EEDull);
  const double per_session_rps =
      shape.open_loop ? shape.aggregate_rps / shape.sessions.size() : 0;
  for (size_t s = 0; s < shape.sessions.size(); ++s) {
    rng.Jump();
    suj::Rng session_rng = rng;
    const size_t count =
        shape.open_loop
            ? static_cast<size_t>(std::ceil(seconds * per_session_rps))
            : 1;
    std::vector<size_t> sizes(count);
    for (size_t& n : sizes) {
      n = static_cast<size_t>(session_rng.UniformRange(
          static_cast<int64_t>(shape.min_batch),
          static_cast<int64_t>(shape.max_batch)));
    }
    in.sizes.push_back(std::move(sizes));
  }

  // The writer runs as long as the reader, which may outlast `seconds`
  // to collect its tail samples; provision for four times as long.
  size_t writer_deltas = 0;
  if (shape.delta_interval_ms > 0) {
    writer_deltas = static_cast<size_t>(
        std::ceil(4 * seconds * 1000.0 / shape.delta_interval_ms)) + 1;
  }
  suj::Rng delta_rng(seed ^ 0xDE17A5EEDull);
  const suj::Relation& target = *in.data.joins[0]->relation(0);
  for (size_t d = 0; d < writer_deltas + kLadderDeltas; ++d) {
    in.deltas.push_back(MakeDelta(target, delta_rng, d));
  }
  return in;
}

}  // namespace perfbench
