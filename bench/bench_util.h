// Shared helpers for the figure-reproduction harnesses.
//
// Each bench binary regenerates the series of one paper figure (Fig 4-6 of
// "Sampling over Union of Joins") on laptop-scale data and prints the rows
// the figure plots. Absolute numbers differ from the paper's testbed; the
// shapes (who wins, how curves scale) are what EXPERIMENTS.md records.

#ifndef SUJ_BENCH_BENCH_UTIL_H_
#define SUJ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/exact_overlap.h"
#include "core/histogram_overlap.h"
#include "core/random_walk_overlap.h"
#include "core/union_sampler.h"
#include "core/union_size_model.h"
#include "join/exact_weight.h"
#include "join/olken_sampler.h"
#include "workloads/synthetic.h"
#include "workloads/tpch_workloads.h"

namespace suj {
namespace bench {

/// Wall-clock seconds spent in `fn`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Unwraps a Result or aborts with its status (bench binaries fail loudly).
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void UnwrapStatus(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

/// Mean relative error between estimated and exact |J_i|/|U| ratios (the
/// metric of Fig 4a/4b and Fig 5a).
inline double RatioError(const std::vector<double>& estimated_ratios,
                         const std::vector<double>& exact_ratios) {
  SUJ_CHECK(estimated_ratios.size() == exact_ratios.size());
  double total = 0.0;
  for (size_t i = 0; i < exact_ratios.size(); ++i) {
    if (exact_ratios[i] > 0.0) {
      total += std::fabs(estimated_ratios[i] - exact_ratios[i]) /
               exact_ratios[i];
    }
  }
  return total / static_cast<double>(exact_ratios.size());
}

/// The two single-join sampler instantiations compared throughout §9.
enum class WeightKind { kExactWeight, kExtendedOlken };

inline const char* WeightKindName(WeightKind kind) {
  return kind == WeightKind::kExactWeight ? "EW" : "EO";
}

inline std::vector<std::unique_ptr<JoinSampler>> MakeJoinSamplers(
    const std::vector<JoinSpecPtr>& joins, CompositeIndexCache* cache,
    WeightKind kind) {
  std::vector<std::unique_ptr<JoinSampler>> out;
  for (const auto& join : joins) {
    if (kind == WeightKind::kExactWeight) {
      out.push_back(Unwrap(ExactWeightSampler::Create(join, cache), "EW"));
    } else {
      out.push_back(Unwrap(OlkenJoinSampler::Create(join, cache), "EO"));
    }
  }
  return out;
}

/// Standard UQ1 configuration used by the benches.
inline tpch::OverlapConfig UQ1Config(double scale_factor,
                                     double overlap_scale,
                                     int num_variants = 5) {
  tpch::OverlapConfig config;
  config.per_variant.scale_factor = scale_factor;
  config.per_variant.seed = 42;
  config.num_variants = num_variants;
  config.overlap_scale = overlap_scale;
  return config;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// The union-sampling micro workload: an overlapping union of chain joins
/// with exact warm-up parameters. Shared by bench_micro_join_samplers
/// (whose numbers the CI perf gate baselines) and
/// bench_fig_parallel_scaling, so the scaling figure always measures the
/// gated workload.
struct UnionMicroWorkload {
  std::vector<JoinSpecPtr> joins;
  UnionEstimates estimates;
  std::vector<JoinMembershipProberPtr> probers;
  /// Shared (and internally synchronized) index cache; shared_ptr so the
  /// workload stays movable and samplers can co-own the cache.
  std::shared_ptr<CompositeIndexCache> cache =
      std::make_shared<CompositeIndexCache>();
  /// Prebuilt per-join weight indexes (immutable, shared across workers).
  std::vector<ExactWeightIndexPtr> weight_indexes;
};

inline UnionMicroWorkload BuildUnionMicroWorkload() {
  UnionMicroWorkload w;
  workloads::SyntheticChainOptions opts;
  opts.num_joins = 4;
  opts.master_rows = 400;
  opts.max_degree = 3;
  opts.seed = 42;
  w.joins = Unwrap(workloads::MakeOverlappingChains(opts), "chains");
  auto exact = Unwrap(ExactOverlapCalculator::Create(w.joins), "overlap");
  w.estimates = Unwrap(ComputeUnionEstimates(exact.get()), "estimates");
  w.probers = Unwrap(BuildProbers(w.joins), "probers");
  for (const auto& join : w.joins) {
    w.weight_indexes.push_back(
        Unwrap(ExactWeightIndex::Build(join, w.cache.get()), "EW index"));
  }
  return w;
}

/// One worker's exact-weight samplers over the workload's prebuilt weight
/// indexes: per-worker construction is O(1), so the sampler setup inside
/// a timed Sample() call doesn't grow with the thread count.
inline UnionSampler::JoinSamplerFactory UnionMicroEwFactory(
    UnionMicroWorkload* w) {
  return [w]() -> Result<std::vector<std::unique_ptr<JoinSampler>>> {
    std::vector<std::unique_ptr<JoinSampler>> out;
    for (const auto& index : w->weight_indexes) {
      auto sampler = ExactWeightSampler::Create(index);
      if (!sampler.ok()) return sampler.status();
      out.push_back(std::move(*sampler));
    }
    return out;
  };
}

}  // namespace bench
}  // namespace suj

#endif  // SUJ_BENCH_BENCH_UTIL_H_
