// Tests for the fault-injection subsystem and the recovery stack above
// it: seeded deterministic injector decisions, fabric message faults
// (drop / duplicate / delay), cluster fault detection (heartbeat liveness
// + progress watchdog) surfacing typed Unavailable statuses, scheduler
// retry with backoff, graceful degradation to a fallback backend, worker
// death-with-recovery in the session pool, QueryHandle::WaitFor, and the
// tenant-share clamp. The invariant asserted throughout: under any seeded
// schedule a query either succeeds digest-identical to a clean run or
// fails with a typed status — never a hang, never a silent wrong answer.

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "mt/row.h"
#include "net/fabric.h"

namespace hierdb {
namespace {

using api::Backend;
using api::ExecOptions;
using api::ExecutionReport;
using api::Query;
using api::QueryHandle;
using api::QueryResult;
using api::RelId;
using api::Session;
using api::SessionOptions;
using api::StreamReport;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::Site;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Injector determinism

TEST(FaultInjector, DecisionIsPureInSeedSiteOrdinal) {
  for (uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    for (Site site : {Site::kFabricDrop, Site::kNodeStall, Site::kWorkerDeath}) {
      for (uint64_t n = 0; n < 64; ++n) {
        double a = FaultInjector::Decision(seed, site, n);
        double b = FaultInjector::Decision(seed, site, n);
        EXPECT_EQ(a, b);
        EXPECT_GE(a, 0.0);
        EXPECT_LT(a, 1.0);
      }
    }
  }
  // Different seeds and different sites decorrelate: over 64 ordinals at
  // least one decision must differ (probability of this failing for a
  // working hash is ~2^-3000).
  bool differs = false;
  for (uint64_t n = 0; n < 64 && !differs; ++n) {
    differs = FaultInjector::Decision(1, Site::kFabricDrop, n) !=
              FaultInjector::Decision(2, Site::kFabricDrop, n);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, SameSeedSameCallSequenceSameFiringLog) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.2;
  plan.worker_death_prob = 0.25;

  FaultInjector a(plan), b(plan);
  std::vector<bool> fa, fb;
  for (int i = 0; i < 200; ++i) {
    fa.push_back(a.ShouldDropMessage());
    fa.push_back(a.ShouldDuplicateMessage());
    fa.push_back(a.ShouldKillWorker());
    fb.push_back(b.ShouldDropMessage());
    fb.push_back(b.ShouldDuplicateMessage());
    fb.push_back(b.ShouldKillWorker());
  }
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(a.FiringLog(), b.FiringLog());
  EXPECT_EQ(a.counters().total(), b.counters().total());
  EXPECT_GT(a.counters().total(), 0u);  // 0.3 drop over 200 events fires

  // The firing rate tracks the configured probability (loose bounds: the
  // hash is uniform, 200 samples at p=0.3 stay within [0.15, 0.45]).
  EXPECT_GT(a.counters().dropped, 30u);
  EXPECT_LT(a.counters().dropped, 90u);
}

TEST(FaultInjector, PositionalNodeFaultsFireExactlyAtTheirPoll) {
  FaultPlan plan;
  plan.seed = 7;
  plan.stall_node = 1;
  plan.stall_after_polls = 10;
  plan.crash_node = 2;
  plan.crash_after_polls = 3;
  FaultInjector inj(plan);
  for (uint64_t poll = 0; poll < 20; ++poll) {
    EXPECT_EQ(inj.ShouldStallNode(1, poll), poll == 10);
    EXPECT_FALSE(inj.ShouldStallNode(0, poll));
    EXPECT_EQ(inj.ShouldCrashNode(2, poll), poll == 3);
    EXPECT_FALSE(inj.ShouldCrashNode(1, poll));
  }
  EXPECT_EQ(inj.counters().stalls, 1u);
  EXPECT_EQ(inj.counters().crashes, 1u);
}

TEST(FaultInjector, UnarmedPlanInjectsNothing) {
  FaultPlan plan;  // all defaults
  EXPECT_FALSE(plan.armed());
  FaultInjector inj(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(inj.ShouldDropMessage());
    EXPECT_FALSE(inj.ShouldKillWorker());
  }
  EXPECT_EQ(inj.counters().total(), 0u);
}

// ---------------------------------------------------------------------------
// Fabric faults

TEST(Fabric, SendStampsSenderAndSequence) {
  net::Fabric fabric({.nodes = 2});
  net::Message out;
  EXPECT_FALSE(fabric.mailbox(1).TryPop(&out));

  net::Message m;
  m.type = net::MsgType::kStarving;
  ASSERT_TRUE(fabric.Send(0, 1, std::move(m)).ok());
  EXPECT_TRUE(fabric.mailbox(1).TryPop(&out));
  EXPECT_EQ(out.type, net::MsgType::kStarving);
  EXPECT_EQ(out.from, 0);
  EXPECT_GT(out.seq, 0u);  // Send stamps per-sender sequence numbers
}

TEST(Fabric, DropsAndDuplicatesPerPlanButNeverShutdown) {
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 1.0;  // every droppable message is dropped
  FaultInjector inj(plan);
  net::Fabric fabric({.nodes = 2, .injector = &inj});

  net::Message m;
  m.type = net::MsgType::kStarving;
  ASSERT_TRUE(fabric.Send(0, 1, std::move(m)).ok());
  net::Message out;
  EXPECT_FALSE(fabric.mailbox(1).TryPop(&out));
  EXPECT_EQ(fabric.stats().dropped, 1u);

  // kShutdown and kHeartbeat are exempt: both always deliver.
  net::Message s;
  s.type = net::MsgType::kShutdown;
  ASSERT_TRUE(fabric.Send(0, 1, std::move(s)).ok());
  ASSERT_TRUE(fabric.mailbox(1).TryPop(&out));
  EXPECT_EQ(out.type, net::MsgType::kShutdown);
  net::Message h;
  h.type = net::MsgType::kHeartbeat;
  ASSERT_TRUE(fabric.Send(0, 1, std::move(h)).ok());
  ASSERT_TRUE(fabric.mailbox(1).TryPop(&out));
  EXPECT_EQ(out.type, net::MsgType::kHeartbeat);
  EXPECT_EQ(fabric.stats().dropped, 1u);  // exempt types never counted
}

// ---------------------------------------------------------------------------
// End-to-end chaos (Session surface)

struct ChaosFixture {
  Session db;
  RelId fact, d1, d2;

  explicit ChaosFixture(const SessionOptions& so = {}, size_t fact_rows = 60000)
      : db(so) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 4, 400, 11));
    d1 = db.AddTable(mt::MakeTable("d1", 400, 2, 40, 12));
    d2 = db.AddTable(mt::MakeTable("d2", 400, 2, 40, 13));
  }

  Query ChainQuery() const {
    return db.NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build();
  }
};

ExecOptions ClusterOpts(uint32_t nodes = 2, uint32_t threads = 2) {
  ExecOptions o;
  o.backend = Backend::kCluster;
  o.strategy = Strategy::kDP;
  o.nodes = nodes;
  o.threads_per_node = threads;
  o.seed = 3;
  return o;
}

// A clean (fault-free) digest to compare chaos survivors against.
uint64_t CleanDigest(ChaosFixture& fx, const ExecOptions& base) {
  ExecOptions clean = base;
  clean.fault_plan.reset();
  clean.max_retries = 0;
  clean.fallback_backend.reset();
  auto r = fx.db.Execute(fx.ChainQuery(), clean);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value().result_checksum : 0;
}

bool IsTypedChaosFailure(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded;
}

TEST(Chaos, DroppedMessagesSurfaceTypedOrDigestIdentical) {
  ChaosFixture fx;
  ExecOptions o = ClusterOpts();
  uint64_t clean = CleanDigest(fx, o);

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.02;
    o.fault_plan = plan;
    auto r = fx.db.Execute(fx.ChainQuery(), o);
    if (r.ok()) {
      EXPECT_EQ(r.value().result_checksum, clean) << "seed " << seed;
    } else {
      EXPECT_TRUE(IsTypedChaosFailure(r.status()))
          << "seed " << seed << ": " << r.status().ToString();
    }
  }
}

TEST(Chaos, DuplicatedAndDelayedMessagesAreBenign) {
  ChaosFixture fx;
  ExecOptions o = ClusterOpts();
  uint64_t clean = CleanDigest(fx, o);

  FaultPlan plan;
  plan.seed = 21;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.05;
  plan.delay_us = 100;
  o.fault_plan = plan;
  // This test asserts dup/delay semantics (suppression, digest identity),
  // not detection timing — park liveness far out of reach: sanitizer runs
  // on a starved single-core host can leave a healthy node's loop
  // unscheduled for whole seconds, which is indistinguishable from a
  // stall to any tight timeout.
  o.liveness_timeout_ms = 60000;
  auto r = fx.db.Execute(fx.ChainQuery(), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Duplicate suppression and delays never corrupt the result.
  EXPECT_EQ(r.value().result_checksum, clean);
}

// A stalled or crashed node only stops stepping its scheduler; no thread
// sleeps or exits, so a 1-thread pool (0 = machine-sized) detects it the
// same way.
TEST(Chaos, StalledNodeIsDetectedAndNamed) {
  for (uint32_t pool_threads : {0u, 1u}) {
    ChaosFixture fx(SessionOptions{.pool_threads = pool_threads});
    ExecOptions o = ClusterOpts();
    FaultPlan plan;
    plan.seed = 1;
    plan.stall_node = 1;
    plan.stall_after_polls = 5;
    plan.stall_ms = 0;  // stall until detection tears the run down
    o.fault_plan = plan;
    o.liveness_timeout_ms = 150;

    auto t0 = std::chrono::steady_clock::now();
    auto r = fx.db.Execute(fx.ChainQuery(), o);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ASSERT_FALSE(r.ok()) << "pool_threads " << pool_threads;
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("node 1"), std::string::npos)
        << r.status().ToString();
    // Detection is bounded: liveness timeout plus slack, never a hang.
    EXPECT_LT(ms, 5000.0);
  }
}

TEST(Chaos, CrashedNodeIsDetected) {
  for (uint32_t pool_threads : {0u, 1u}) {
    ChaosFixture fx(SessionOptions{.pool_threads = pool_threads});
    ExecOptions o = ClusterOpts();
    FaultPlan plan;
    plan.seed = 1;
    plan.crash_node = 1;
    plan.crash_after_polls = 5;
    o.fault_plan = plan;
    o.liveness_timeout_ms = 150;

    auto r = fx.db.Execute(fx.ChainQuery(), o);
    ASSERT_FALSE(r.ok()) << "pool_threads " << pool_threads;
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
  }
}

TEST(Chaos, FallbackBackendDegradesGracefullyWithIdenticalDigest) {
  ChaosFixture fx(SessionOptions{.max_concurrent_queries = 2});
  ExecOptions o = ClusterOpts();
  uint64_t clean = CleanDigest(fx, o);

  // The crash is positional, so it fires on every cluster attempt; only
  // the degraded kThreads attempt can succeed.
  FaultPlan plan;
  plan.seed = 1;
  plan.crash_node = 1;
  plan.crash_after_polls = 5;
  o.fault_plan = plan;
  o.liveness_timeout_ms = 150;
  o.max_retries = 1;
  o.fallback_backend = Backend::kThreads;
  o.retry_backoff_ms = 2.0;

  auto r = fx.db.Execute(fx.ChainQuery(), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().fallback_used);
  EXPECT_EQ(r.value().attempt, 2u);  // 1 primary + 1 retry + 1 fallback
  EXPECT_EQ(r.value().backend, Backend::kThreads);
  EXPECT_EQ(r.value().result_checksum, clean);
  EXPECT_GE(fx.db.scheduler_stats().retries, 2u);
}

TEST(Chaos, ExhaustedRetriesWithoutFallbackStayTypedUnavailable) {
  ChaosFixture fx;
  ExecOptions o = ClusterOpts();
  FaultPlan plan;
  plan.seed = 1;
  plan.crash_node = 1;
  plan.crash_after_polls = 5;
  o.fault_plan = plan;
  o.liveness_timeout_ms = 150;
  o.max_retries = 1;
  o.retry_backoff_ms = 2.0;

  auto r = fx.db.Execute(fx.ChainQuery(), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
      << r.status().ToString();
  EXPECT_EQ(fx.db.scheduler_stats().retries, 1u);
}

TEST(Chaos, EndToEndOutcomeIsDeterministicForPositionalSchedules) {
  // Positional node faults fire at a fixed poll ordinal, so the final
  // status is identical run to run (message drops, by contrast, are
  // deterministic per event ordinal but race thread interleavings for
  // which message holds that ordinal).
  auto run_once = [] {
    ChaosFixture fx;
    ExecOptions o = ClusterOpts();
    FaultPlan plan;
    plan.seed = 17;
    plan.crash_node = 1;
    plan.crash_after_polls = 5;
    o.fault_plan = plan;
    o.liveness_timeout_ms = 150;
    return fx.db.Execute(fx.ChainQuery(), o).status().code();
  };
  StatusCode first = run_once();
  StatusCode second = run_once();
  EXPECT_EQ(first, StatusCode::kUnavailable);
  EXPECT_EQ(first, second);
}

TEST(Chaos, WorkerDeathsRecoverWithoutLosingWork) {
  ChaosFixture fx;
  ExecOptions threads = ClusterOpts(1, 4);
  threads.backend = Backend::kThreads;
  uint64_t clean = CleanDigest(fx, threads);

  // Injectors are per query, so death draws restart at ordinal 0 each
  // Execute; seed 2's first worker-death decision fires at p=0.5 (0.40),
  // making a death on the pool thread's first claim deterministic.
  FaultPlan plan;
  plan.seed = 2;
  plan.worker_death_prob = 0.5;
  threads.fault_plan = plan;
  for (int i = 0; i < 5; ++i) {
    auto r = fx.db.Execute(fx.ChainQuery(), threads);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Death re-queues the slot; every body still runs exactly once.
    EXPECT_EQ(r.value().result_checksum, clean);
  }
  // At p=0.5 per pool-thread claim across 5 queries, deaths fired with
  // overwhelming probability.
  EXPECT_GT(fx.db.pool_stats().worker_deaths, 0u);
}

TEST(Chaos, SessionWideChaosDefaultAppliesAndPerQueryOverrides) {
  SessionOptions so;
  FaultPlan chaos;
  chaos.seed = 1;
  chaos.crash_node = 1;
  chaos.crash_after_polls = 5;
  so.chaos = chaos;
  ChaosFixture fx(so);

  ExecOptions o = ClusterOpts();
  o.liveness_timeout_ms = 150;
  auto r = fx.db.Execute(fx.ChainQuery(), o);  // inherits session chaos
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // A per-query unarmed plan overrides the session default.
  o.fault_plan = FaultPlan{};
  auto r2 = fx.db.Execute(fx.ChainQuery(), o);
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST(Chaos, StreamUnderDropAndStallCompletesEveryQueryTyped) {
  ChaosFixture fx(SessionOptions{.max_concurrent_queries = 4});
  ExecOptions o = ClusterOpts();
  uint64_t clean = CleanDigest(fx, o);

  FaultPlan plan;
  plan.seed = 31;
  plan.drop_prob = 0.005;
  plan.stall_node = 1;
  plan.stall_after_polls = 3000;
  plan.stall_ms = 0;
  o.fault_plan = plan;
  o.liveness_timeout_ms = 150;
  o.max_retries = 2;
  o.retry_backoff_ms = 2.0;
  o.fallback_backend = Backend::kThreads;

  std::vector<Query> queries(24, fx.ChainQuery());
  StreamReport sr = fx.db.RunStream(queries, o);
  EXPECT_EQ(sr.submitted, 24u);
  EXPECT_EQ(sr.succeeded + sr.failed, sr.submitted);
  for (const auto& r : sr.results) {
    if (r.ok()) {
      EXPECT_EQ(r.value().report.result_checksum, clean);
    } else {
      EXPECT_TRUE(IsTypedChaosFailure(r.status())) << r.status().ToString();
    }
  }
  // With retries plus a kThreads fallback, the stream survives: losing
  // even one query to an untyped state would already have failed above.
  EXPECT_GE(sr.succeeded, 23u);  // >= 99% per the chaos acceptance bar
}

// ---------------------------------------------------------------------------
// WaitFor

TEST(WaitFor, EmptyHandleIsTriviallyDone) {
  QueryHandle h;
  EXPECT_TRUE(h.WaitFor(milliseconds(1)));
}

TEST(WaitFor, BoundsTheWaitThenObservesCompletion) {
  ChaosFixture fx;
  ExecOptions o = ClusterOpts();
  FaultPlan plan;
  plan.seed = 1;
  plan.stall_node = 1;
  plan.stall_after_polls = 5;
  o.fault_plan = plan;
  o.liveness_timeout_ms = 250;  // the query cannot finish before this
  QueryHandle h = fx.db.Submit(fx.ChainQuery(), o);
  EXPECT_FALSE(h.WaitFor(milliseconds(5)));
  EXPECT_TRUE(h.WaitFor(milliseconds(30000)));
  EXPECT_TRUE(h.Done());
  auto r = h.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Tenant-share clamp

TEST(TenantClamp, OversizedShareIsClampedAndReported) {
  SessionOptions so;
  so.max_concurrent_queries = 3;
  so.tenants = {{"alpha", 100, 0}, {"beta", 1, 0}, {"gamma", 1, 0}};
  Session db(so);
  RelId a = db.AddRelation("A", 1000);
  RelId b = db.AddRelation("B", 1000);
  Query q = db.NewQuery().Join(a, b).Build();

  // Floored shares: default 1, alpha 2, beta 1, gamma 1 — sum 5 over a
  // limit of 3, so the largest (alpha) is clamped to the floor.
  api::SchedulerStats stats = db.scheduler_stats();
  ASSERT_EQ(stats.tenants.size(), 4u);
  const api::TenantStats* alpha = nullptr;
  for (const auto& t : stats.tenants) {
    if (t.name == "alpha") alpha = &t;
  }
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->max_inflight, 1u);
  EXPECT_TRUE(alpha->clamped);
  for (const auto& t : stats.tenants) {
    if (t.name != "alpha") {
      EXPECT_FALSE(t.clamped) << t.name;
      EXPECT_EQ(t.max_inflight, 1u) << t.name;
    }
  }

  // Clamped tenants still execute queries.
  ExecOptions o;
  o.backend = Backend::kSimulated;
  o.tenant = "alpha";
  EXPECT_TRUE(db.Execute(q, o).ok());
}

TEST(TenantClamp, UnclampedConfigurationsAreUntouched) {
  SessionOptions so;
  so.max_concurrent_queries = 8;
  so.tenants = {{"alpha", 3, 0}};
  Session db(so);
  api::SchedulerStats stats = db.scheduler_stats();
  for (const auto& t : stats.tenants) EXPECT_FALSE(t.clamped) << t.name;
}

}  // namespace
}  // namespace hierdb
