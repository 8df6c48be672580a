// Tests for the session-wide worker pool, the build-side reuse cache, and
// cooperative cancellation of running queries (PR 4):
//
//   - WorkerPool mechanics: every spawned body runs exactly once with the
//     renting caller participating; idle pool threads drive steal hooks.
//   - Pooled executions match the reference executor, and concurrent
//     pooled streams match serial execution.
//   - Build reuse: repeated queries hit the cache, results stay correct
//     with reuse on/off, AddTable invalidates.
//   - QueryHandle::Cancel interrupts a *running* query (threads and
//     cluster backends) with Status::Cancelled.
//   - AddTable while queries are in flight is safe (stable table
//     storage), and the new table is immediately queryable.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/worker_pool.h"
#include "gtest/gtest.h"
#include "mt/row.h"

namespace hierdb::api {
namespace {

using std::chrono::milliseconds;

struct PoolFixture {
  Session db;
  RelId fact, d1, d2, d3;

  explicit PoolFixture(const SessionOptions& so, size_t fact_rows = 20000,
                       uint64_t seed = 7)
      : db(so) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 4, 500, seed));
    d1 = db.AddTable(mt::MakeTable("d1", 500, 2, 50, seed + 1));
    d2 = db.AddTable(mt::MakeTable("d2", 500, 2, 50, seed + 2));
    d3 = db.AddTable(mt::MakeTable("d3", 500, 2, 50, seed + 3));
  }

  Query ChainQuery(uint32_t probes) const {
    auto qb = db.NewQuery().Scan(fact).Probe(d1, 1, 0);
    if (probes >= 2) qb.Probe(d2, 2, 0);
    if (probes >= 3) qb.Probe(d3, 3, 0);
    return qb.Build();
  }
};

ExecOptions Opts(Backend backend, uint32_t nodes = 1, uint32_t threads = 2) {
  ExecOptions o;
  o.backend = backend;
  o.strategy = Strategy::kDP;
  o.nodes = nodes;
  o.threads_per_node = threads;
  o.seed = 3;
  return o;
}

bool WaitForInFlight(const Session& db, uint32_t n, int timeout_ms = 20000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (db.scheduler_stats().in_flight >= n) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

// ---------------------------------------------------------------------------
// WorkerPool mechanics.

TEST(WorkerPoolTest, SpawnWorkersRunsEveryBodyExactlyOnce) {
  WorkerPool pool(2);
  auto ctx = pool.Rent(nullptr);
  constexpr uint32_t kBodies = 16;  // far more slots than pool threads
  std::vector<std::atomic<int>> ran(kBodies);
  for (auto& r : ran) r.store(0);
  ctx->SpawnWorkers(kBodies, [&](uint32_t i) { ran[i].fetch_add(1); });
  for (uint32_t i = 0; i < kBodies; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "body " << i;
  }
  // The caller participates, so this works even on a saturated pool; on
  // any pool, caller + pool tasks account for every body.
  PoolStats s = pool.stats();
  EXPECT_EQ(s.pool_tasks + s.caller_tasks, kBodies);
}

TEST(WorkerPoolTest, SequentialTeamsReuseTheSamePool) {
  WorkerPool pool(2);
  auto ctx = pool.Rent(nullptr);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    ctx->SpawnWorkers(4, [&](uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 20);
  EXPECT_EQ(pool.stats().pool_threads, 2u);
}

TEST(WorkerPoolTest, IdlePoolThreadsRunStealHooks) {
  WorkerPool pool(2);
  auto ctx = pool.Rent(nullptr);
  std::atomic<int> calls{0};
  // The hook reports work available for the first 50 calls; idle pool
  // threads must discover and drive it without any team being spawned.
  ctx->SetStealHook([&] { return calls.fetch_add(1) < 50; });
  for (int i = 0; i < 20000 && calls.load() < 50; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ctx->ClearStealHook();  // blocks until in-flight calls drain
  EXPECT_GE(calls.load(), 50);
  EXPECT_GE(pool.stats().foreign_steals, 50u);
}

// ---------------------------------------------------------------------------
// Pooled execution correctness.

TEST(PoolExecution, PooledDigestsMatchSerial) {
  SessionOptions so;
  so.max_concurrent_queries = 3;
  PoolFixture fx(so);

  std::vector<Query> queries;
  for (uint32_t i = 0; i < 6; ++i) queries.push_back(fx.ChainQuery(i % 3 + 1));

  // Ground truth: serial, no reuse, each run checked against the
  // reference executor.
  ExecOptions serial = Opts(Backend::kThreads);
  serial.reuse_builds = false;
  serial.validate = true;
  std::vector<std::pair<uint64_t, uint64_t>> expect;
  for (const Query& q : queries) {
    auto r = fx.db.Execute(q, serial);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r.value().reference_match);
    expect.emplace_back(r.value().result_rows, r.value().result_checksum);
  }

  // Concurrent stream with build reuse (the default).
  ExecOptions pooled = Opts(Backend::kThreads);
  ASSERT_TRUE(pooled.reuse_builds);
  StreamReport sr = fx.db.RunStream(queries, pooled);
  ASSERT_EQ(sr.succeeded, 6u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& rep = sr.results[i].value().report;
    EXPECT_EQ(rep.result_rows, expect[i].first) << i;
    EXPECT_EQ(rep.result_checksum, expect[i].second) << i;
  }
  PoolStats ps = fx.db.pool_stats();
  EXPECT_GT(ps.pool_tasks + ps.caller_tasks, 0u);
}

// FP is the riskiest pool interaction: threads are statically pinned to
// operators, so under a saturated 1-thread pool most worker slots are
// claimed late (and run serially by the renting caller); progress relies
// on the recompute-on-op-end path always assigning the lowest active op
// a range containing thread 0.
TEST(PoolExecution, PooledFpStrategyMatchesReferenceUnderSaturatedPool) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  so.pool_threads = 1;
  PoolFixture fx(so, 12000);
  ExecOptions opts = Opts(Backend::kThreads, 1, 4);
  opts.strategy = Strategy::kFP;
  opts.validate = true;
  std::vector<Query> queries(4, fx.ChainQuery(3));
  StreamReport sr = fx.db.RunStream(queries, opts);
  ASSERT_EQ(sr.succeeded, 4u);
  for (const auto& r : sr.results) {
    EXPECT_TRUE(r.value().report.reference_match);
    EXPECT_EQ(r.value().report.result_rows,
              r.value().report.reference_rows);
  }
}

TEST(PoolExecution, PooledSpStrategyMatchesReference) {
  SessionOptions so;
  PoolFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kThreads);
  opts.strategy = Strategy::kSP;
  opts.validate = true;
  auto pooled = fx.db.Execute(fx.ChainQuery(3), opts);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_TRUE(pooled.value().reference_match);
  EXPECT_GT(pooled.value().result_rows, 0u);
}

TEST(PoolExecution, PooledClusterMatchesReference) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  PoolFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kCluster, 2, 2);
  opts.validate = true;
  auto pooled = fx.db.Execute(fx.ChainQuery(2), opts);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_TRUE(pooled.value().reference_match);
  EXPECT_GT(pooled.value().result_rows, 0u);
}

// A kCluster team is cooperative like every other team: with one pool
// thread and two queries competing for it, each query finishes on
// whatever threads it gets (its renting lane alone suffices), under DP
// and FP. A deadlock fails the bounded wait instead of hanging the test.
TEST(PoolExecution, ClusterQueriesFinishOnASaturatedOneThreadPool) {
  for (Strategy strategy : {Strategy::kDP, Strategy::kFP}) {
    SessionOptions so;
    so.pool_threads = 1;
    so.max_concurrent_queries = 2;
    auto fx = std::make_unique<PoolFixture>(so, 8000);
    ExecOptions opts = Opts(Backend::kCluster, 2, 2);
    opts.strategy = strategy;
    opts.validate = true;
    std::vector<QueryHandle> handles;
    for (uint32_t i = 0; i < 4; ++i) {
      handles.push_back(fx->db.Submit(fx->ChainQuery(i % 2 + 2), opts));
    }
    for (QueryHandle& h : handles) {
      if (!h.WaitFor(std::chrono::seconds(60))) {
        fx.release();  // a deadlocked session cannot be torn down
        FAIL() << StrategyName(strategy) << ": a query did not finish";
      }
      auto r = h.Take();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().report.reference_match) << StrategyName(strategy);
    }
    EXPECT_EQ(fx->db.pool_stats().pool_threads, 1u);
  }
}

// ---------------------------------------------------------------------------
// Build-side reuse.

TEST(BuildReuse, RepeatedQueriesHitTheCacheWithIdenticalResults) {
  SessionOptions so;
  PoolFixture fx(so, 10000);

  ExecOptions off = Opts(Backend::kThreads);
  off.reuse_builds = false;
  auto base = fx.db.Execute(fx.ChainQuery(3), off);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base.value().build_cache_hits, 0u);
  EXPECT_EQ(base.value().build_cache_misses, 0u);

  ExecOptions on = Opts(Backend::kThreads);
  on.reuse_builds = true;
  auto first = fx.db.Execute(fx.ChainQuery(3), on);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().build_cache_hits, 0u);
  EXPECT_EQ(first.value().build_cache_misses, 3u);  // d1, d2, d3 published

  auto second = fx.db.Execute(fx.ChainQuery(3), on);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().build_cache_hits, 3u);
  EXPECT_EQ(second.value().build_cache_misses, 0u);

  for (const auto* r : {&base, &first, &second}) {
    EXPECT_EQ(r->value().result_rows, base.value().result_rows);
    EXPECT_EQ(r->value().result_checksum, base.value().result_checksum);
  }
  auto cs = fx.db.build_cache_stats();
  EXPECT_EQ(cs.entries, 3u);
  EXPECT_GT(cs.bytes, 0u);

  // A different fragmentation degree is a different key: no false hits.
  ExecOptions other = on;
  other.buckets = 32;
  auto r32 = fx.db.Execute(fx.ChainQuery(3), other);
  ASSERT_TRUE(r32.ok());
  EXPECT_EQ(r32.value().build_cache_hits, 0u);
  EXPECT_EQ(r32.value().result_checksum, base.value().result_checksum);
}

TEST(BuildReuse, SpStrategySharesBuildsToo) {
  SessionOptions so;
  PoolFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kThreads);
  opts.strategy = Strategy::kSP;
  auto first = fx.db.Execute(fx.ChainQuery(2), opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().build_cache_misses, 2u);
  auto second = fx.db.Execute(fx.ChainQuery(2), opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().build_cache_hits, 2u);
  EXPECT_EQ(second.value().result_checksum, first.value().result_checksum);
}

TEST(BuildReuse, AddTableInvalidatesTheCache) {
  SessionOptions so;
  PoolFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kThreads);
  auto first = fx.db.Execute(fx.ChainQuery(2), opts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().build_cache_misses, 2u);

  fx.db.AddTable(mt::MakeTable("d4", 100, 2, 10, 99));
  EXPECT_EQ(fx.db.build_cache_stats().entries, 0u);
  auto again = fx.db.Execute(fx.ChainQuery(2), opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().build_cache_hits, 0u);
  EXPECT_EQ(again.value().build_cache_misses, 2u);
  EXPECT_EQ(again.value().result_checksum, first.value().result_checksum);
}

TEST(BuildReuse, SynthesizedGraphQueriesShareOnSeedAndSkew) {
  SessionOptions so;
  Session db(so);
  RelId r = db.AddRelation("R", 20000);
  RelId s = db.AddRelation("S", 5000);
  ExecOptions opts = Opts(Backend::kThreads);
  Query q = db.NewQuery().Join(r, s).Build();
  auto first = db.Execute(q, opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first.value().build_cache_misses, 0u);
  auto second = db.Execute(q, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value().build_cache_hits, 0u);
  EXPECT_EQ(second.value().result_checksum, first.value().result_checksum);
  // A different seed synthesizes different data: keys must not collide.
  ExecOptions reseeded = opts;
  reseeded.seed = opts.seed + 1;
  auto third = db.Execute(q, reseeded);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().build_cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation of running queries.

void CancelRunningQuery(Backend backend, uint32_t nodes,
                        Strategy strategy = Strategy::kDP) {
  SessionOptions so;
  PoolFixture fx(so, 300000);
  ExecOptions opts = Opts(backend, nodes, 2);
  opts.strategy = strategy;
  opts.reuse_builds = false;

  QueryHandle h = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  // The query is running (not queued): the legacy behavior returned
  // false here and let it hold its worker to completion.
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.Cancel());  // one cancel wins
  auto r = h.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
  auto stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);

  // The session stays fully usable afterwards.
  auto ok = fx.db.Execute(fx.ChainQuery(1), opts);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok.value().result_rows, 0u);
}

TEST(RunningCancel, ThreadsPooled) {
  CancelRunningQuery(Backend::kThreads, 1);
}
// SP stops through the same per-pass check of the node engine.
TEST(RunningCancel, ThreadsPooledSP) {
  CancelRunningQuery(Backend::kThreads, 1, Strategy::kSP);
}
TEST(RunningCancel, ClusterPooled) {
  CancelRunningQuery(Backend::kCluster, 2);
}

// The deterministic simulator checks the stop token once per event batch
// (and once more after waiting its turn on the session's sim mutex).
TEST(RunningCancel, SimulatedBackend) {
  SessionOptions so;
  Session db(so);
  RelId r = db.AddRelation("R", 2'000'000);
  RelId s = db.AddRelation("S", 2'000'000);
  RelId t = db.AddRelation("T", 2'000'000);
  Query q = db.NewQuery().Join(r, s).Join(s, t).Build();

  QueryHandle h = db.Submit(q, Opts(Backend::kSimulated, 2, 8));
  ASSERT_TRUE(WaitForInFlight(db, 1));
  EXPECT_TRUE(h.Cancel());
  auto res = h.Take();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled)
      << res.status().ToString();
  EXPECT_EQ(db.scheduler_stats().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Registration while queries are in flight (stable table storage).

TEST(RegistrationLifecycle, AddTableWhileQueriesInFlight) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  PoolFixture fx(so, 120000);
  ExecOptions opts = Opts(Backend::kThreads);

  // Ground truth before anything overlaps.
  auto expect = fx.db.Execute(fx.ChainQuery(3), opts);
  ASSERT_TRUE(expect.ok());

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(fx.db.Submit(fx.ChainQuery(3), opts));
  }
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  // Registration while those queries execute: their plan-time table
  // pointers must stay valid (deque storage never relocates).
  RelId d4 = fx.db.AddTable(mt::MakeTable("d4", 300, 2, 50, 42));
  Query with_new =
      fx.db.NewQuery().Scan(fx.fact).Probe(d4, 1, 0).Build();
  auto fresh = fx.db.Execute(with_new, opts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  for (auto& h : handles) {
    auto r = h.Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().report.result_rows, expect.value().result_rows);
    EXPECT_EQ(r.value().report.result_checksum,
              expect.value().result_checksum);
  }
}

}  // namespace
}  // namespace hierdb::api
