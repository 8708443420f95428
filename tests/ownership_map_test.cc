// Tests for core/ownership_map: Algorithm 1's
// accept/drop/revise/purge semantics under epoch replay, and a
// claim/reconcile churn stress that exercises the Owner()-vs-Reconcile()
// synchronization contract (run under TSan in the debug-tsan CI suite).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ownership_map.h"
#include "storage/value.h"

namespace suj {
namespace {

Tuple T(int64_t v) { return Tuple({Value::Int64(v)}); }

TEST(OwnershipMapTest, UnclaimedIsMinusOne) {
  OwnershipMap map;
  EXPECT_EQ(map.Owner(T(1).Encode()), -1);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.epochs(), 0u);
}

TEST(OwnershipMapTest, SequentialProtocolSemantics) {
  OwnershipMap map;
  std::vector<Tuple> result;
  std::vector<std::string> keys;

  // Epoch 1: A claimed twice by join 2 (duplicates from the owner are
  // legitimate — sampling is with replacement), B by join 1.
  {
    std::vector<OwnershipClaim> claims = {
        {T(1).Encode(), 2}, {T(1).Encode(), 2}, {T(2).Encode(), 1}};
    std::vector<Tuple> tuples = {T(1), T(1), T(2)};
    ReconcileOutcome out =
        map.Reconcile(std::move(claims), std::move(tuples), &result, &keys);
    EXPECT_EQ(out.appended, 3u);
    EXPECT_EQ(out.dropped, 0u);
    EXPECT_EQ(out.revisions, 0u);
    EXPECT_EQ(out.purged, 0u);
    EXPECT_EQ(map.Owner(T(1).Encode()), 2);
    EXPECT_EQ(map.Owner(T(2).Encode()), 1);
    EXPECT_EQ(result.size(), 3u);
  }

  // Epoch 2: A re-claimed by join 0 — a revision that purges BOTH standing
  // copies from the earlier epoch before appending the new one; B claimed
  // by join 3 — dropped (join 1 owns it).
  {
    std::vector<OwnershipClaim> claims = {{T(1).Encode(), 0},
                                          {T(2).Encode(), 3}};
    std::vector<Tuple> tuples = {T(1), T(2)};
    ReconcileOutcome out =
        map.Reconcile(std::move(claims), std::move(tuples), &result, &keys);
    EXPECT_EQ(out.appended, 1u);
    EXPECT_EQ(out.dropped, 1u);
    EXPECT_EQ(out.revisions, 1u);
    EXPECT_EQ(out.purged, 2u);
    EXPECT_EQ(map.Owner(T(1).Encode()), 0);
    EXPECT_EQ(map.Owner(T(2).Encode()), 1);
    ASSERT_EQ(result.size(), 2u);
    // Purge removed the stale copies in place; the revised copy appended.
    EXPECT_EQ(result[0].Encode(), T(2).Encode());
    EXPECT_EQ(result[1].Encode(), T(1).Encode());
  }

  // Epoch 3: within-epoch (cross-batch) collision on a fresh value C:
  // claimed by join 2, revised to join 1, then a later join-2 claim of the
  // now-owned value drops.
  {
    std::vector<OwnershipClaim> claims = {
        {T(3).Encode(), 2}, {T(3).Encode(), 1}, {T(3).Encode(), 2}};
    std::vector<Tuple> tuples = {T(3), T(3), T(3)};
    ReconcileOutcome out =
        map.Reconcile(std::move(claims), std::move(tuples), &result, &keys);
    EXPECT_EQ(out.appended, 2u);
    EXPECT_EQ(out.dropped, 1u);
    EXPECT_EQ(out.revisions, 1u);
    EXPECT_EQ(out.purged, 1u);
    EXPECT_EQ(map.Owner(T(3).Encode()), 1);
  }

  EXPECT_EQ(map.epochs(), 3u);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(result.size(), keys.size());

  // The lock-free fan-out view agrees with the locked accessor.
  OwnershipMap::View view = map.UnsynchronizedView();
  EXPECT_EQ(view.Owner(T(1).Encode()), 0);
  EXPECT_EQ(view.Owner(T(2).Encode()), 1);
  EXPECT_EQ(view.Owner(T(3).Encode()), 1);
  EXPECT_EQ(view.Owner(T(99).Encode()), -1);
}

// Concurrent claim/reconcile churn: reader threads hammer Owner() while
// the reconciler applies epoch after epoch. Under TSan this verifies the
// shared/exclusive locking of the map; the final owners must equal the
// minimum join ever claimed per key (ownership only ever migrates to
// earlier joins).
constexpr uint64_t kKeys = 64;
constexpr int kJoins = 5;
constexpr int kEpochs = 200;

TEST(OwnershipMapTest, ConcurrentClaimReconcileChurn) {
  OwnershipMap map;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&map, &stop, &lookups, r] {
      Rng rng(500 + static_cast<uint64_t>(r));
      uint64_t count = 0;
      // A floor of lookups keeps the race meaningful even when the
      // scheduler starts this thread only after the reconciler is done
      // (single-core CI under load).
      while (count < 200 || !stop.load(std::memory_order_relaxed)) {
        std::string key = T(static_cast<int64_t>(rng.UniformInt(kKeys)))
                              .Encode();
        int owner = map.Owner(key);
        ASSERT_GE(owner, -1);
        ASSERT_LT(owner, kJoins);
        ++count;
      }
      lookups.fetch_add(count, std::memory_order_relaxed);
    });
  }

  std::vector<Tuple> result;
  std::vector<std::string> keys;
  std::vector<int> expected_min(kKeys, -1);
  Rng rng(499);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<OwnershipClaim> claims;
    std::vector<Tuple> tuples;
    for (int i = 0; i < 32; ++i) {
      int64_t v = static_cast<int64_t>(rng.UniformInt(kKeys));
      int join = static_cast<int>(rng.UniformInt(kJoins));
      claims.push_back(OwnershipClaim{T(v).Encode(), join});
      tuples.push_back(T(v));
      int& m = expected_min[static_cast<size_t>(v)];
      if (m < 0 || join < m) m = join;
    }
    map.Reconcile(std::move(claims), std::move(tuples), &result, &keys);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(map.epochs(), static_cast<uint64_t>(kEpochs));
  EXPECT_GT(lookups.load(), 0u);
  ASSERT_EQ(result.size(), keys.size());
  for (uint64_t v = 0; v < kKeys; ++v) {
    EXPECT_EQ(map.Owner(T(static_cast<int64_t>(v)).Encode()),
              expected_min[v])
        << "key " << v;
  }
}

}  // namespace
}  // namespace suj
