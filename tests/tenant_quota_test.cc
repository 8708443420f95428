// Tests for the multi-tenant hardening layer: TenantGovernor token
// buckets (manual clock — quota decisions are a pure function of
// options + timestamps), the bounded admission wait queue, and
// QueryRegistry LRU / memory-budget eviction with live sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/prepared_union.h"
#include "service/sampling_service.h"
#include "service/tenant.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeOverlappingChains;
using workloads::SyntheticChainOptions;

constexpr int64_t kSecond = 1'000'000'000;

std::vector<JoinSpecPtr> MakeJoins(uint64_t seed, size_t master_rows = 20) {
  SyntheticChainOptions options;
  options.master_rows = master_rows;
  options.seed = seed;
  return MakeOverlappingChains(options).value();
}

// ---------------------------------------------------------------------------
// TenantGovernor

TEST(TenantGovernorTest, DefaultQuotaAdmitsEverything) {
  TenantGovernor governor(TenantGovernor::Options{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(governor.AdmitRequest("t", 1, /*now_ns=*/0).ok());
  }
  EXPECT_EQ(governor.total_shed(), 0u);
}

TEST(TenantGovernorTest, TenantBucketShedsBeyondBurstThenRefills) {
  TenantGovernor::Options options;
  options.default_quota.requests_per_second = 10;
  options.default_quota.burst = 3;
  TenantGovernor governor(options);

  int64_t now = 0;
  // Full bucket: exactly `burst` requests pass back to back.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(governor.AdmitRequest("t", 1, now).ok()) << i;
  }
  Status shed = governor.AdmitRequest("t", 1, now);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  // 100 ms at 10 rps refills exactly one token.
  now += kSecond / 10;
  EXPECT_TRUE(governor.AdmitRequest("t", 1, now).ok());
  EXPECT_EQ(governor.AdmitRequest("t", 1, now).code(),
            StatusCode::kResourceExhausted);

  auto snap = governor.snapshot("t");
  EXPECT_EQ(snap.admitted, 4u);
  EXPECT_EQ(snap.shed_tenant_quota, 2u);
}

TEST(TenantGovernorTest, TenantsAreIsolated) {
  TenantGovernor::Options options;
  options.default_quota.requests_per_second = 1;
  options.default_quota.burst = 2;
  TenantGovernor governor(options);

  // Tenant A exhausts its bucket; tenant B is untouched.
  EXPECT_TRUE(governor.AdmitRequest("a", 1, 0).ok());
  EXPECT_TRUE(governor.AdmitRequest("a", 1, 0).ok());
  EXPECT_FALSE(governor.AdmitRequest("a", 1, 0).ok());
  EXPECT_TRUE(governor.AdmitRequest("b", 2, 0).ok());
  EXPECT_TRUE(governor.AdmitRequest("b", 2, 0).ok());
  EXPECT_EQ(governor.snapshot("b").shed_tenant_quota, 0u);
}

TEST(TenantGovernorTest, SessionBucketLimitsOneSessionWithinTenant) {
  TenantGovernor::Options options;
  options.default_quota.session_requests_per_second = 10;
  options.default_quota.session_burst = 1;
  TenantGovernor governor(options);

  // Session 1 burns its bucket; session 2 of the SAME tenant proceeds.
  EXPECT_TRUE(governor.AdmitRequest("t", 1, 0).ok());
  EXPECT_EQ(governor.AdmitRequest("t", 1, 0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(governor.AdmitRequest("t", 2, 0).ok());
  EXPECT_EQ(governor.snapshot("t").shed_session_quota, 1u);
}

TEST(TenantGovernorTest, MaxSessionsEnforcedAndReleasedOnClose) {
  TenantGovernor::Options options;
  options.default_quota.max_sessions = 2;
  TenantGovernor governor(options);

  EXPECT_TRUE(governor.AdmitSession("t", 1, 0).ok());
  EXPECT_TRUE(governor.AdmitSession("t", 2, 0).ok());
  EXPECT_EQ(governor.AdmitSession("t", 3, 0).code(),
            StatusCode::kResourceExhausted);
  governor.OnSessionClosed("t", 1);
  EXPECT_TRUE(governor.AdmitSession("t", 4, 0).ok());
  auto snap = governor.snapshot("t");
  EXPECT_EQ(snap.sessions_open, 2u);
  EXPECT_EQ(snap.sessions_rejected, 1u);
  // Idempotent close of an unknown id is a no-op.
  governor.OnSessionClosed("t", 999);
  EXPECT_EQ(governor.snapshot("t").sessions_open, 2u);
}

TEST(TenantGovernorTest, SetQuotaOverridesDefault) {
  TenantGovernor::Options options;
  options.default_quota.requests_per_second = 1;
  options.default_quota.burst = 1;
  TenantGovernor governor(options);

  TenantQuotaOptions wide;
  wide.requests_per_second = 1000;
  wide.burst = 100;
  governor.SetQuota("vip", wide);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(governor.AdmitRequest("vip", 1, 0).ok()) << i;
  }
  // The default tenant still has its one-token bucket.
  EXPECT_TRUE(governor.AdmitRequest("pleb", 1, 0).ok());
  EXPECT_FALSE(governor.AdmitRequest("pleb", 1, 0).ok());
}

TEST(TenantGovernorTest, StaleTimestampNeverRefills) {
  TenantGovernor::Options options;
  options.default_quota.requests_per_second = 10;
  options.default_quota.burst = 1;
  TenantGovernor governor(options);

  EXPECT_TRUE(governor.AdmitRequest("t", 1, kSecond).ok());
  // Time going backwards must not mint tokens.
  EXPECT_FALSE(governor.AdmitRequest("t", 1, 0).ok());
  EXPECT_FALSE(governor.AdmitRequest("t", 1, kSecond).ok());
}

// ---------------------------------------------------------------------------
// Bounded admission queue

TEST(AdmissionQueueTest, OverflowShedsInsteadOfQueueing) {
  AdmissionController::Options options;
  options.max_inflight = 1;
  options.max_queue_depth = 1;
  AdmissionController admission(options);

  auto slot = admission.Admit().value();  // occupies the only slot

  // One waiter parks (fills the queue); the second Admit must shed.
  std::atomic<bool> parked{false};
  std::thread waiter([&] {
    parked.store(true);
    auto permit = admission.Admit();
    EXPECT_TRUE(permit.ok());
  });
  while (!parked.load()) std::this_thread::yield();
  // Wait until the waiter is parked in the queue. peak_queue_depth is no
  // signal: the held slot's own Admit already set it to 1. `waited` is
  // counted under the lock only by an Admit that enqueued and must block.
  while (admission.snapshot().waited < 1) {
    std::this_thread::yield();
  }

  auto shed = admission.Admit();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.snapshot().queue_overflows, 1u);

  slot.Release();  // waiter proceeds
  waiter.join();
  EXPECT_EQ(admission.snapshot().admitted, 2u);
}

TEST(AdmissionQueueTest, ZeroDepthKeepsLegacyUnboundedQueueing) {
  AdmissionController::Options options;
  options.max_inflight = 1;
  options.max_queue_depth = 0;
  AdmissionController admission(options);

  auto slot = admission.Admit().value();
  std::vector<std::thread> waiters;
  std::atomic<int> admitted{0};
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      auto permit = admission.Admit();
      EXPECT_TRUE(permit.ok());
      admitted.fetch_add(1);
    });
  }
  while (admission.snapshot().peak_queue_depth < 4) {
    std::this_thread::yield();
  }
  slot.Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(admitted.load(), 4);
  EXPECT_EQ(admission.snapshot().queue_overflows, 0u);
}

// ---------------------------------------------------------------------------
// QueryRegistry budgets

TEST(RegistryBudgetTest, MaxPlansEvictsLeastRecentlyUsed) {
  QueryRegistry::Options options;
  options.max_plans = 2;
  QueryRegistry registry(options);

  ASSERT_TRUE(
      registry.Prepare("a", MakeJoins(1), PreparedQueryOptions()).ok());
  ASSERT_TRUE(
      registry.Prepare("b", MakeJoins(2), PreparedQueryOptions()).ok());
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  ASSERT_TRUE(registry.Get("a").ok());
  ASSERT_TRUE(
      registry.Prepare("c", MakeJoins(3), PreparedQueryOptions()).ok());

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.Get("a").ok());
  EXPECT_FALSE(registry.Get("b").ok());
  EXPECT_TRUE(registry.Get("c").ok());
  EXPECT_EQ(registry.snapshot().evicted_for_budget, 1u);
}

TEST(RegistryBudgetTest, MemoryBudgetEvictsButNeverTheNewestPlan) {
  auto joins = MakeJoins(10);
  size_t one_plan_bytes =
      PreparedUnion::Build("probe", 1, joins, PreparedQueryOptions())
          .value()
          ->approx_memory_bytes();
  ASSERT_GT(one_plan_bytes, 0u);

  // Budget for about one plan: preparing a second must evict the first,
  // and a single over-budget plan must stay resident (Prepare cannot
  // succeed yet leave its plan unusable).
  QueryRegistry::Options options;
  options.memory_budget_bytes = one_plan_bytes + one_plan_bytes / 2;
  QueryRegistry registry(options);

  ASSERT_TRUE(
      registry.Prepare("a", MakeJoins(11), PreparedQueryOptions()).ok());
  ASSERT_TRUE(
      registry.Prepare("b", MakeJoins(12), PreparedQueryOptions()).ok());
  EXPECT_FALSE(registry.Get("a").ok());
  EXPECT_TRUE(registry.Get("b").ok());
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.evicted_for_budget, 1u);
  EXPECT_LE(snap.resident_bytes, options.memory_budget_bytes);
}

TEST(RegistryBudgetTest, EvictedPlanStaysServableForLiveSessions) {
  ServiceOptions options;
  options.seed = 77;
  options.registry.max_plans = 1;
  auto service = SamplingService::Create(options).value();

  ASSERT_TRUE(service->Prepare("old", MakeJoins(20)).ok());
  auto session = service->OpenSession("old").value();
  // Preparing a second plan evicts "old" from the registry...
  ASSERT_TRUE(service->Prepare("new", MakeJoins(21)).ok());
  EXPECT_FALSE(service->GetQuery("old").ok());
  EXPECT_EQ(service->registry().snapshot().evicted_for_budget, 1u);
  // ...but the live session keeps sampling from the plan it holds.
  auto samples = service->Sample(session, 50);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  EXPECT_EQ(samples.value().size(), 50u);
  ASSERT_TRUE(service->CloseSession(session).ok());
}

// ---------------------------------------------------------------------------
// Session idle reaping (in-process half; the wire half lives in
// net_server_test.cc)

TEST(ReapIdleTest, NeverTouchedSessionsAreExempt) {
  ServiceOptions options;
  options.seed = 88;
  auto service = SamplingService::Create(options).value();
  ASSERT_TRUE(service->Prepare("q", MakeJoins(30)).ok());
  auto in_process = service->OpenSession("q").value();
  auto remote = service->OpenSession("q").value();
  service->sessions().Get(remote).value()->Touch(/*now_ns=*/1);

  // Far future: the touched session is idle-reaped, the untouched one
  // (a pure in-process client) must survive.
  auto reaped = service->sessions().ReapIdle(/*now_ns=*/kSecond,
                                             /*idle_ns=*/kSecond / 2);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0], remote);
  EXPECT_TRUE(service->sessions().Get(in_process).ok());
  EXPECT_FALSE(service->sessions().Get(remote).ok());
}

TEST(ReapIdleTest, FreshActivityDefersReaping) {
  ServiceOptions options;
  options.seed = 89;
  auto service = SamplingService::Create(options).value();
  ASSERT_TRUE(service->Prepare("q", MakeJoins(31)).ok());
  auto id = service->OpenSession("q").value();
  service->sessions().Get(id).value()->Touch(kSecond);
  EXPECT_TRUE(
      service->sessions().ReapIdle(kSecond + 10, kSecond).empty());
  EXPECT_TRUE(service->sessions().Get(id).ok());
}

}  // namespace
}  // namespace suj
