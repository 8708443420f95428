#include "core/online_union_sampler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "common/alias_table.h"
#include "exec/parallel_executor.h"

namespace suj {

namespace {
using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Horvitz-Thompson acceptance for one successful walk: the number of
// uniform-sample instances it yields under the current |J_j| estimate,
// rounding the fractional part with a Bernoulli draw. Shared by the
// sequential regular phase and the parallel fresh-walk workers so the two
// tails cannot drift apart.
uint64_t WalkInstances(double walk_probability, double join_size, Rng& rng) {
  double rate = 1.0 / (walk_probability * join_size);
  uint64_t instances = static_cast<uint64_t>(rate);
  if (rng.Bernoulli(rate - std::floor(rate))) ++instances;
  return instances;
}
}  // namespace

Status OnlineUnionSampleStats::MergeFrom(const OnlineUnionSampleStats& other) {
  SUJ_RETURN_NOT_OK(UnionSampleStats::MergeFrom(other));
  reuse_draws += other.reuse_draws;
  reuse_accepted += other.reuse_accepted;
  fresh_walks += other.fresh_walks;
  fresh_accepted += other.fresh_accepted;
  backtracks += other.backtracks;
  removed_by_backtrack += other.removed_by_backtrack;
  reuse_seconds += other.reuse_seconds;
  regular_seconds += other.regular_seconds;
  backtrack_seconds += other.backtrack_seconds;
  return Status::OK();
}

Result<std::unique_ptr<OnlineUnionSampler>> OnlineUnionSampler::Create(
    std::vector<JoinSpecPtr> joins, RandomWalkOverlapEstimator* walker,
    UnionEstimates initial, Options options) {
  SUJ_RETURN_NOT_OK(ValidateUnionCompatible(joins));
  if (walker == nullptr) {
    return Status::InvalidArgument("null random-walk estimator");
  }
  if (walker->joins().size() != joins.size()) {
    return Status::InvalidArgument(
        "random-walk estimator covers a different join set");
  }
  if (initial.cover_sizes.size() != joins.size()) {
    return Status::InvalidArgument("estimates do not match the join count");
  }
  double total = 0.0;
  for (double c : initial.cover_sizes) total += c;
  if (total <= 0.0) {
    return Status::FailedPrecondition(
        "all cover sizes are zero; the union is (estimated) empty");
  }
  if (options.index_cache != nullptr) {
    if (options.mode != UnionSampler::Mode::kMembershipOracle) {
      return Status::InvalidArgument(
          "parallel fresh walks require kMembershipOracle mode (revision "
          "ownership is shared mutable state)");
    }
    if (options.batch_size == 0) {
      return Status::InvalidArgument("batch_size must be positive");
    }
  } else if (options.num_threads != 1) {
    return Status::InvalidArgument(
        "num_threads != 1 requires index_cache for per-worker wander-join "
        "samplers");
  }
  if (!options.probers.empty() && options.probers.size() != joins.size()) {
    return Status::InvalidArgument(
        "shared probers do not match the join count");
  }
  auto sampler = std::unique_ptr<OnlineUnionSampler>(new OnlineUnionSampler(
      std::move(joins), walker, std::move(initial), options));
  sampler->disabled_.assign(sampler->joins_.size(), false);
  if (options.mode == UnionSampler::Mode::kMembershipOracle) {
    if (!sampler->options_.probers.empty()) {
      sampler->probers_ = sampler->options_.probers;
    } else {
      auto probers = BuildProbers(sampler->joins_);
      if (!probers.ok()) return probers.status();
      sampler->probers_ = std::move(probers).value();
    }
  }
  // Seed the reuse pools from the warm-up walk records.
  sampler->pools_.resize(sampler->joins_.size());
  sampler->pool_min_p_.assign(sampler->joins_.size(), 1.0);
  if (options.enable_reuse) {
    for (size_t j = 0; j < sampler->joins_.size(); ++j) {
      for (const auto& rec : walker->records(static_cast<int>(j))) {
        sampler->pools_[j].push_back({rec.tuple, rec.probability});
        sampler->pool_min_p_[j] =
            std::min(sampler->pool_min_p_[j], rec.probability);
      }
    }
  }
  return sampler;
}

double OnlineUnionSampler::TupleProbability(int owner_join) const {
  double total = 0.0;
  for (double c : estimates_.cover_sizes) total += c;
  if (total <= 0.0 || estimates_.join_sizes[owner_join] <= 0.0) return 0.0;
  return estimates_.cover_sizes[owner_join] / total /
         estimates_.join_sizes[owner_join];
}

Status OnlineUnionSampler::Backtrack(std::vector<Tuple>* result,
                                     std::vector<std::string>* keys,
                                     std::vector<int>* owners,
                                     std::vector<double>* probs, Rng& rng) {
  auto start = Clock::now();
  ++stats_.backtracks;
  auto updated = ComputeUnionEstimates(walker_);
  if (!updated.ok()) return updated.status();
  estimates_ = std::move(updated).value();

  // Thin previously accepted tuples toward the updated distribution: keep
  // with probability min(1, p_new / p_old). A tuple kept has effective
  // density min(p_old, p_new), which we record for the next pass.
  size_t kept = 0;
  for (size_t i = 0; i < result->size(); ++i) {
    double p_old = (*probs)[i];
    double p_new = TupleProbability((*owners)[i]);
    double keep = p_old > 0.0 ? std::min(1.0, p_new / p_old) : 0.0;
    if (rng.Bernoulli(keep)) {
      if (kept != i) {
        (*result)[kept] = std::move((*result)[i]);
        (*keys)[kept] = std::move((*keys)[i]);
        (*owners)[kept] = (*owners)[i];
      }
      (*probs)[kept] = std::min(p_old, p_new);
      ++kept;
    }
  }
  stats_.removed_by_backtrack += result->size() - kept;
  result->resize(kept);
  keys->resize(kept);
  owners->resize(kept);
  probs->resize(kept);

  // Stop backtracking once every join's estimate reaches confidence gamma.
  bool confident = true;
  for (int j = 0; j < static_cast<int>(joins_.size()); ++j) {
    if (walker_->JoinSizeRelativeHalfWidth(j, options_.confidence) >
        options_.ci_threshold) {
      confident = false;
      break;
    }
  }
  if (confident) backtracking_active_ = false;
  stats_.backtrack_seconds += SecondsSince(start);
  return Status::OK();
}

bool OnlineUnionSampler::ParallelTailReady() const {
  if (options_.backtrack_interval > 0 && backtracking_active_) return false;
  if (options_.enable_reuse) {
    for (size_t j = 0; j < pools_.size(); ++j) {
      if (!disabled_[j] && !pools_[j].empty()) return false;
    }
  }
  return true;
}

namespace {

// Per-worker fresh-walk context for the parallel phase: Algorithm 2's
// regular phase against frozen estimates. Shared state (probers, weights,
// join sizes) is read-only; the wander-join samplers and stats are
// private to the worker. The selection-weight copy is re-made
// per batch so an abandoned join in one batch cannot leak into the next
// (which would make batch output depend on scheduling); abandonment is
// instead reported through abandoned_sink_ and applied by the caller
// AFTER the whole fan-out, where it no longer affects batch contents.
class FreshWalkBatchSampler : public BatchSampler {
 public:
  FreshWalkBatchSampler(std::vector<std::unique_ptr<WanderJoinSampler>> wander,
                        std::vector<JoinMembershipProberPtr> probers,
                        std::vector<double> weights,
                        std::vector<double> join_sizes,
                        uint64_t max_draws_per_round,
                        OnlineUnionSampleStats* sink,
                        std::vector<uint8_t>* abandoned_sink)
      : wander_(std::move(wander)),
        probers_(std::move(probers)),
        weights_(std::move(weights)),
        join_sizes_(std::move(join_sizes)),
        max_draws_per_round_(max_draws_per_round),
        sink_(sink),
        abandoned_sink_(abandoned_sink) {}

  Result<std::vector<Tuple>> SampleBatch(size_t, size_t count,
                                         Rng& rng) override {
    // Alias-backed O(1) selection over the batch-local weight copy; the
    // build consumes no RNG, so batch bytes are unchanged properties of
    // (seed, batch index). Build/Zero fail exactly when no cover remains.
    auto selector = WeightedSelector::Build(weights_);
    if (!selector.ok()) {
      return Status::Internal(
          "every join's cover was abandoned; warm-up estimates are "
          "inconsistent with the data");
    }
    std::vector<Tuple> out;
    out.reserve(count);
    while (out.size() < count) {
      ++sink_->rounds;
      int j = static_cast<int>(selector->Sample(rng));
      uint64_t added = RunRound(j, &out, rng);
      if (added == 0) {
        ++sink_->abandoned_rounds;
        (*abandoned_sink_)[j] = 1;
        if (!selector->Zero(static_cast<size_t>(j)).ok()) {
          return Status::Internal(
              "every join's cover was abandoned; warm-up estimates are "
              "inconsistent with the data");
        }
      }
    }
    return out;
  }

  /// One Algorithm-2 round against join j: up to max_draws_per_round
  /// attempts; appends accepted instances to *out and returns the count
  /// (0 == the round exhausted its budget, i.e. abandonment). Also the
  /// viability probe of the caller's pre-pass.
  uint64_t RunRound(int j, std::vector<Tuple>* out, Rng& rng) {
    const double join_size = std::max(join_sizes_[j], 1e-12);
    for (uint64_t draw = 0; draw < max_draws_per_round_; ++draw) {
      auto start = Clock::now();
      ++sink_->join_draws;
      ++sink_->fresh_walks;
      WalkOutcome outcome = wander_[j]->Walk(rng);
      if (!outcome.success) {
        double dt = SecondsSince(start);
        sink_->regular_seconds += dt;
        sink_->rejected_seconds += dt;
        continue;
      }
      uint64_t instances = WalkInstances(outcome.probability, join_size, rng);
      if (instances == 0) {
        double dt = SecondsSince(start);
        sink_->regular_seconds += dt;
        sink_->rejected_seconds += dt;
        continue;
      }
      if (!OwnedBy(probers_, outcome.tuple, j)) {
        ++sink_->rejected_cover;
        double dt = SecondsSince(start);
        sink_->regular_seconds += dt;
        sink_->rejected_seconds += dt;
        continue;
      }
      for (uint64_t c = 0; c < instances; ++c) out->push_back(outcome.tuple);
      sink_->accepted += instances;
      sink_->fresh_accepted += instances;
      double dt = SecondsSince(start);
      sink_->regular_seconds += dt;
      sink_->accepted_seconds += dt;
      return instances;
    }
    return 0;
  }

  UnionSampleStats stats() const override { return *sink_; }

 private:
  std::vector<std::unique_ptr<WanderJoinSampler>> wander_;
  std::vector<JoinMembershipProberPtr> probers_;
  std::vector<double> weights_;
  std::vector<double> join_sizes_;
  uint64_t max_draws_per_round_;
  OnlineUnionSampleStats* sink_;
  /// Joins this worker abandoned (caller folds these into disabled_).
  std::vector<uint8_t>* abandoned_sink_;
};

}  // namespace

Result<std::vector<Tuple>> OnlineUnionSampler::SampleFreshParallel(
    size_t n, uint64_t seed) {
  ParallelUnionExecutor::Options exec_options;
  exec_options.num_threads = options_.num_threads;
  exec_options.batch_size = options_.batch_size;
  ParallelUnionExecutor executor(exec_options);
  const size_t workers = executor.EffectiveThreads(n);
  const size_t num_batches =
      (n + options_.batch_size - 1) / options_.batch_size;

  // Frozen selection weights: current cover estimates minus abandoned
  // joins. Workers never write these.
  std::vector<double> weights = estimates_.cover_sizes;
  for (size_t j = 0; j < weights.size(); ++j) {
    if (disabled_[j]) weights[j] = 0.0;
  }

  auto build_wander =
      [&]() -> Result<std::vector<std::unique_ptr<WanderJoinSampler>>> {
    std::vector<std::unique_ptr<WanderJoinSampler>> wander;
    wander.reserve(joins_.size());
    for (size_t j = 0; j < joins_.size(); ++j) {
      auto sampler =
          options_.wander_factory
              ? options_.wander_factory(static_cast<int>(j))
              : WanderJoinSampler::Create(joins_[j],
                                          options_.index_cache.get());
      if (!sampler.ok()) return sampler.status();
      wander.push_back(std::move(*sampler));
    }
    return wander;
  };

  // Viability pre-pass on the calling thread. Batches are stateless, so a
  // join whose estimated cover is empty in reality would otherwise be
  // re-discovered — at full max_draws_per_round cost — by every batch
  // that selects it. (Shrinking the per-batch budget instead would
  // spuriously abandon sparse-but-live covers the sequential path samples
  // fine.) Each enabled join must yield one owned tuple within the
  // ordinary round budget or it is disabled before the fan-out, paying
  // for dead covers exactly once. The probe draws from the substream one
  // past the last batch index, so batch RNGs are untouched and the
  // discovered set is thread-count independent.
  OnlineUnionSampleStats probe_stats;
  {
    auto wander = build_wander();
    if (!wander.ok()) return wander.status();
    std::vector<uint8_t> probe_abandoned(joins_.size(), 0);
    FreshWalkBatchSampler probe(std::move(*wander), probers_, weights,
                                estimates_.join_sizes,
                                options_.max_draws_per_round, &probe_stats,
                                &probe_abandoned);
    Rng probe_rng = Rng(seed).Split(num_batches);
    std::vector<Tuple> scratch;  // probe accepts are discarded
    double remaining = 0.0;
    for (size_t j = 0; j < joins_.size(); ++j) {
      if (weights[j] <= 0.0) continue;
      ++probe_stats.rounds;
      if (probe.RunRound(static_cast<int>(j), &scratch, probe_rng) == 0) {
        ++probe_stats.abandoned_rounds;
        weights[j] = 0.0;
        disabled_[j] = true;
      }
      remaining += weights[j];
    }
    if (remaining <= 0.0) {
      return Status::Internal(
          "every join's cover was abandoned; warm-up estimates are "
          "inconsistent with the data");
    }
    // The probe's accepted walks were discarded, so they must not count
    // as result tuples; the time they took is reclassified as rejected
    // work (draws not ending in a delivered tuple).
    probe_stats.rejected_seconds += probe_stats.accepted_seconds;
    probe_stats.accepted_seconds = 0.0;
    probe_stats.accepted = 0;
    probe_stats.fresh_accepted = 0;
  }

  // Per-worker stats and abandonment reports live in caller-owned slots
  // so the online-specific counters survive the executor (which only
  // merges the base struct, and is handed no stats sink here to avoid
  // double counting). Worker-reported abandonment (rare after the
  // pre-pass: a live-but-sparse cover exhausting a round budget) is
  // folded into disabled_ after the fan-out, mirroring the sequential
  // path's persistent disabling without letting it alter batch contents.
  std::vector<std::vector<uint8_t>> worker_abandoned(
      workers, std::vector<uint8_t>(joins_.size(), 0));
  std::vector<OnlineUnionSampleStats> worker_stats(workers);
  auto factory = [&](size_t worker) -> Result<std::unique_ptr<BatchSampler>> {
    if (worker >= workers) {
      return Status::Internal("worker index out of range");
    }
    auto wander = build_wander();
    if (!wander.ok()) return wander.status();
    return std::unique_ptr<BatchSampler>(new FreshWalkBatchSampler(
        std::move(*wander), probers_, weights, estimates_.join_sizes,
        options_.max_draws_per_round, &worker_stats[worker],
        &worker_abandoned[worker]));
  };

  // The executor gets its own scratch stats: its merge would fold each
  // worker's BASE counters in, but those arrive through worker_stats
  // below (with the online-only extension counters the executor cannot
  // see), so only the executor-level fields — batches, workers, clip
  // counts, wall time — are taken from the scratch block.
  UnionSampleStats exec_stats;
  auto result = executor.Execute(n, seed, factory, &exec_stats);
  if (!result.ok()) return result.status();

  for (const auto& mask : worker_abandoned) {
    for (size_t j = 0; j < joins_.size(); ++j) {
      if (mask[j]) disabled_[j] = true;
    }
  }
  SUJ_RETURN_NOT_OK(stats_.MergeFrom(probe_stats));
  for (const auto& ws : worker_stats) {
    SUJ_RETURN_NOT_OK(stats_.MergeFrom(ws));
  }
  stats_.parallel_batches += exec_stats.parallel_batches;
  stats_.parallel_workers += exec_stats.parallel_workers;
  stats_.parallel_clipped += exec_stats.parallel_clipped;
  stats_.parallel_seconds += exec_stats.parallel_seconds;
  return result;
}

Result<std::vector<Tuple>> OnlineUnionSampler::Sample(size_t n, Rng& rng) {
  std::vector<Tuple> result;
  std::vector<std::string> keys;
  std::vector<int> owners;
  std::vector<double> probs;
  result.reserve(n);

  // Accepts `instances` copies of `t` into the result, subject to the
  // union-level ownership check. Returns the number of copies added
  // (0 == cover rejection).
  auto union_accept = [&](Tuple t, int j, uint64_t instances,
                          Rng& r) -> Result<uint64_t> {
    std::string key = t.Encode();
    if (options_.mode == UnionSampler::Mode::kMembershipOracle) {
      // f(u): the first join containing the value, probed exactly.
      (void)r;
      if (!OwnedBy(probers_, t, j)) {
        ++stats_.rejected_cover;
        return 0;
      }
    } else {
      auto it = owner_.find(key);
      if (it != owner_.end() && it->second < j) {
        ++stats_.rejected_cover;
        return 0;
      }
      if (it != owner_.end() && it->second > j) {
        ++stats_.revisions;
        size_t before = result.size();
        for (size_t k = result.size(); k-- > 0;) {
          if (keys[k] == key) {
            result.erase(result.begin() + k);
            keys.erase(keys.begin() + k);
            owners.erase(owners.begin() + k);
            probs.erase(probs.begin() + k);
          }
        }
        stats_.removed_by_revision += before - result.size();
        it->second = j;
      } else if (it == owner_.end()) {
        owner_.emplace(key, j);
      }
    }
    double p = TupleProbability(j);
    for (uint64_t c = 0; c < instances; ++c) {
      result.push_back(t);
      keys.push_back(key);
      owners.push_back(j);
      probs.push_back(p);
    }
    stats_.accepted += instances;
    return instances;
  };

  WeightedSelector selector;
  bool selector_stale = true;
  while (result.size() < n) {
    if (options_.index_cache != nullptr && ParallelTailReady()) {
      // Everything order-sensitive (pool reuse, backtracking) is done;
      // the remaining fresh walks fan out. One rng draw fixes the
      // substream seed, so the full sequence stays a function of the
      // caller's RNG state and n alone — thread count never enters.
      auto tail = SampleFreshParallel(n - result.size(), rng.Next());
      if (!tail.ok()) return tail.status();
      for (auto& t : *tail) result.push_back(std::move(t));
      break;
    }
    ++stats_.rounds;
    // Alias-backed selection, rebuilt only when the weights actually
    // changed: a Backtrack replaced the estimates or a round abandoned a
    // join. Every other round draws in O(1) instead of re-scanning the
    // cover sizes.
    if (selector_stale) {
      std::vector<double> weights = estimates_.cover_sizes;
      for (size_t i = 0; i < weights.size(); ++i) {
        if (disabled_[i]) weights[i] = 0.0;
      }
      auto built = WeightedSelector::Build(std::move(weights));
      if (!built.ok()) {
        return Status::Internal(
            "every join's cover was abandoned; warm-up estimates are "
            "inconsistent with the data");
      }
      selector = std::move(*built);
      selector_stale = false;
    }
    int j = static_cast<int>(selector.Sample(rng));
    double join_size = std::max(estimates_.join_sizes[j], 1e-12);

    bool round_done = false;
    for (uint64_t draw = 0;
         draw < options_.max_draws_per_round && !round_done; ++draw) {
      auto start = Clock::now();
      ++stats_.join_draws;
      ++recorded_since_backtrack_;

      if (options_.enable_reuse && !pools_[j].empty()) {
        // ---- Reuse phase: draw from the warm-up pool, no walk needed ----
        ++stats_.reuse_draws;
        size_t pick = rng.UniformInt(pools_[j].size());
        PoolEntry entry = std::move(pools_[j][pick]);
        pools_[j][pick] = std::move(pools_[j].back());
        pools_[j].pop_back();

        // Expected pool multiplicity of a tuple is proportional to its walk
        // probability; accepting with p_min/p(t) equalizes emission rates
        // (see header). The entry is consumed either way.
        if (!rng.Bernoulli(pool_min_p_[j] / entry.probability)) {
          double dt = SecondsSince(start);
          stats_.reuse_seconds += dt;
          stats_.rejected_seconds += dt;
          continue;
        }
        auto added = union_accept(std::move(entry.tuple), j, 1, rng);
        if (!added.ok()) return added.status();
        double dt = SecondsSince(start);
        stats_.reuse_seconds += dt;
        if (added.value() > 0) {
          stats_.reuse_accepted += added.value();
          stats_.accepted_seconds += dt;
          round_done = true;
        } else {
          stats_.rejected_seconds += dt;
        }
      } else {
        // ---- Regular phase: fresh wander-join walk ----
        ++stats_.fresh_walks;
        auto outcome = walker_->WalkAndRecord(j, rng);
        if (!outcome.ok()) return outcome.status();
        if (!outcome->success) {
          double dt = SecondsSince(start);
          stats_.regular_seconds += dt;
          stats_.rejected_seconds += dt;
          continue;
        }
        uint64_t instances =
            WalkInstances(outcome->probability, join_size, rng);
        if (instances == 0) {
          double dt = SecondsSince(start);
          stats_.regular_seconds += dt;
          stats_.rejected_seconds += dt;
          continue;
        }
        auto added =
            union_accept(std::move(outcome->tuple), j, instances, rng);
        if (!added.ok()) return added.status();
        double dt = SecondsSince(start);
        stats_.regular_seconds += dt;
        if (added.value() > 0) {
          stats_.fresh_accepted += added.value();
          stats_.accepted_seconds += dt;
          round_done = true;
        } else {
          stats_.rejected_seconds += dt;
        }
      }

      // Backtracking with parameter update (Algorithm 2, lines 18-20).
      if (options_.backtrack_interval > 0 && backtracking_active_ &&
          recorded_since_backtrack_ >= options_.backtrack_interval) {
        recorded_since_backtrack_ = 0;
        SUJ_RETURN_NOT_OK(Backtrack(&result, &keys, &owners, &probs, rng));
        join_size = std::max(estimates_.join_sizes[j], 1e-12);
        selector_stale = true;  // cover sizes were re-estimated
      }
    }
    if (!round_done) {
      // No owned tuple within the budget: the join's real cover is
      // (effectively) empty; exclude it from further selection.
      ++stats_.abandoned_rounds;
      disabled_[j] = true;
      selector_stale = true;
    }
  }
  result.resize(n);  // multi-instance accepts can overshoot
  return result;
}

}  // namespace suj
