#include "core/ownership_map.h"

#include <mutex>

#include "common/logging.h"

namespace suj {

int OwnershipMap::Owner(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = owners_.find(key);
  return it == owners_.end() ? -1 : it->second;
}

ReconcileOutcome OwnershipMap::Reconcile(
    std::vector<OwnershipClaim>&& claims, std::vector<Tuple>&& tuples,
    std::vector<Tuple>* result, std::vector<std::string>* result_keys) {
  SUJ_CHECK(claims.size() == tuples.size());
  SUJ_CHECK(result != nullptr && result_keys != nullptr);
  SUJ_CHECK(result->size() == result_keys->size());
  ReconcileOutcome out;
  std::unique_lock<std::shared_mutex> lock(mu_);

  // Purges are tombstoned and compacted once at the end: a per-revision
  // erase would rescan the whole result per revision, and reconciliation
  // is the protocol's only sequential section — its cost bounds the
  // parallel speedup (Amdahl). The position index over standing copies is
  // built lazily on the first revision of the pass.
  std::vector<char> dead(result->size(), 0);
  std::unordered_map<std::string, std::vector<size_t>> positions;
  bool indexed = false;
  auto ensure_index = [&] {
    if (indexed) return;
    for (size_t k = 0; k < result_keys->size(); ++k) {
      if (!dead[k]) positions[(*result_keys)[k]].push_back(k);
    }
    indexed = true;
  };

  for (size_t i = 0; i < claims.size(); ++i) {
    OwnershipClaim& c = claims[i];
    SUJ_CHECK(c.join >= 0);
    auto it = owners_.find(c.key);
    if (it == owners_.end()) {
      owners_.emplace(c.key, c.join);
    } else if (it->second < c.join) {
      // An earlier join already owns the value: Algorithm 1 rejects such
      // a draw and retries the round. The claim is dropped; the epoch
      // driver re-requests the shortfall.
      ++out.dropped;
      continue;
    } else if (it->second > c.join) {
      // Revision: the value migrates to the earlier join; every stale
      // copy standing in the result — from any earlier epoch or earlier
      // in this one — is purged before the new copy is appended.
      ++out.revisions;
      ensure_index();
      auto pos = positions.find(c.key);
      if (pos != positions.end()) {
        for (size_t k : pos->second) {
          if (!dead[k]) {
            dead[k] = 1;
            ++out.purged;
          }
        }
        positions.erase(pos);
      }
      it->second = c.join;
    }
    dead.push_back(0);
    if (indexed) positions[c.key].push_back(result->size());
    result_keys->push_back(std::move(c.key));
    result->push_back(std::move(tuples[i]));
    ++out.appended;
  }

  if (out.purged > 0) {
    // Stable compaction preserving the global round order.
    size_t write = 0;
    for (size_t k = 0; k < result->size(); ++k) {
      if (dead[k]) continue;
      if (write != k) {
        (*result)[write] = std::move((*result)[k]);
        (*result_keys)[write] = std::move((*result_keys)[k]);
      }
      ++write;
    }
    result->resize(write);
    result_keys->resize(write);
  }
  ++epochs_;
  return out;
}

size_t OwnershipMap::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return owners_.size();
}

uint64_t OwnershipMap::epochs() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return epochs_;
}

}  // namespace suj
