// Tests for the async admission core: the timer-wheel / admission-queue
// primitives in src/sched/, and the scheduler behaviors they carry —
// per-query deadlines (queued and mid-execution, on all three backends),
// weighted tenant quotas with per-tenant backpressure, deadline-ordered
// dispatch (EDF), burst admission on O(1) scheduler threads, and the
// cancel-vs-deadline race. Counter reconciliation is asserted throughout:
// every admitted query settles exactly one of completed / failed /
// cancelled / deadline_missed.

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gtest/gtest.h"
#include "mt/column_batch.h"
#include "mt/row.h"
#include "sched/admission_queue.h"
#include "sched/timer_wheel.h"
#include "tests/test_util.h"

namespace hierdb {
namespace {

using api::AdmissionPolicy;
using api::Backend;
using api::ExecOptions;
using api::Query;
using api::QueryHandle;
using api::RelId;
using api::SchedulerStats;
using api::Session;
using api::SessionOptions;
using mt::CmpOp;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// sched primitives

constexpr uint64_t kMs = 1'000'000;  ///< ns per wheel tick (1 ms)

TEST(TimerWheel, FiresDueTimersOnceAndSkipsCancelled) {
  sched::TimerWheel wheel;
  wheel.Arm(1, 5 * kMs);
  wheel.Arm(2, 7 * kMs);
  wheel.Arm(3, 9 * kMs);
  EXPECT_EQ(wheel.armed(), 3u);
  EXPECT_EQ(wheel.NextDeadlineNs(), 5 * kMs);
  wheel.Cancel(2);
  EXPECT_EQ(wheel.armed(), 2u);

  std::vector<uint64_t> expired;
  wheel.Advance(4 * kMs, &expired);
  EXPECT_TRUE(expired.empty());
  wheel.Advance(8 * kMs, &expired);
  ASSERT_EQ(expired, std::vector<uint64_t>{1});  // 2 was cancelled
  expired.clear();
  wheel.Advance(20 * kMs, &expired);
  ASSERT_EQ(expired, std::vector<uint64_t>{3});
  EXPECT_EQ(wheel.armed(), 0u);
  EXPECT_EQ(wheel.NextDeadlineNs(), UINT64_MAX);
  // Nothing re-fires.
  expired.clear();
  wheel.Advance(40 * kMs, &expired);
  EXPECT_TRUE(expired.empty());
}

// The regression the hashed layout invites: a timer armed at (or behind)
// the wheel's current position must fire on the next tick, not after a
// full 512-slot rotation.
TEST(TimerWheel, PastDeadlineFiresNextTickNotNextRotation) {
  sched::TimerWheel wheel;
  std::vector<uint64_t> expired;
  wheel.Advance(100 * kMs, &expired);  // move the cursor forward
  wheel.Arm(7, 100 * kMs);             // already due
  wheel.Advance(101 * kMs, &expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{7});
}

TEST(TimerWheel, FarTimersSurviveRotations) {
  sched::TimerWheel wheel;  // 512 slots x 1 ms
  wheel.Arm(1, 1300 * kMs);  // > 2 rotations out
  std::vector<uint64_t> expired;
  for (uint64_t t = 0; t <= 1200; t += 100) wheel.Advance(t * kMs, &expired);
  EXPECT_TRUE(expired.empty());
  wheel.Advance(1301 * kMs, &expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{1});
}

// The scheduler cancels every deadline timer unconditionally on
// completion, including when the deadline already fired mid-run. Such a
// cancel must be a no-op: it must not eat the armed count (leaving
// NextDeadlineNs() at UINT64_MAX while live timers remain would put the
// event loop to sleep forever) and must not leave a tombstone that blocks
// later expiries.
TEST(TimerWheel, CancelAfterFireIsANoOp) {
  sched::TimerWheel wheel;
  wheel.Arm(1, 5 * kMs);
  wheel.Arm(2, 40 * kMs);
  std::vector<uint64_t> expired;
  wheel.Advance(6 * kMs, &expired);
  ASSERT_EQ(expired, std::vector<uint64_t>{1});
  wheel.Cancel(1);  // completion racing a deadline that already fired
  wheel.Cancel(1);  // idempotent
  wheel.Cancel(99);  // never armed
  EXPECT_EQ(wheel.armed(), 1u);
  EXPECT_EQ(wheel.NextDeadlineNs(), 40 * kMs);
  expired.clear();
  wheel.Advance(41 * kMs, &expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{2});
  EXPECT_EQ(wheel.armed(), 0u);
}

// Re-arming an id after a cancel (or while armed) supersedes: the stale
// slot entry must not fire at its original deadline, and the new one
// fires exactly once.
TEST(TimerWheel, ReArmSupersedesCancelledDeadline) {
  sched::TimerWheel wheel;
  wheel.Arm(1, 5 * kMs);
  wheel.Cancel(1);
  wheel.Arm(1, 20 * kMs);
  EXPECT_EQ(wheel.armed(), 1u);
  std::vector<uint64_t> expired;
  wheel.Advance(8 * kMs, &expired);  // crosses the stale entry's slot
  EXPECT_TRUE(expired.empty());
  wheel.Advance(21 * kMs, &expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{1});
  expired.clear();
  wheel.Advance(40 * kMs, &expired);
  EXPECT_TRUE(expired.empty());
}

// An arm for an already-past deadline must expire on the next Advance even
// when no tick boundary has been crossed since — otherwise the event
// loop's wait on the past deadline returns immediately and it busy-spins
// out the rest of the current tick.
TEST(TimerWheel, OverdueArmFiresWithoutTickCrossing) {
  sched::TimerWheel wheel;
  std::vector<uint64_t> expired;
  wheel.Advance(100 * kMs + 200'000, &expired);  // cursor mid-tick 100
  wheel.Arm(7, 99 * kMs);                        // already overdue
  wheel.Advance(100 * kMs + 400'000, &expired);  // still tick 100
  EXPECT_EQ(expired, std::vector<uint64_t>{7});
}

// Cancelling the earliest deadline leaves next_ns_ stale-early (allowed),
// but the Advance that sweeps the stale entry must recompute it — a
// cached minimum pinned in the past would make every wait return
// immediately, spinning the loop.
TEST(TimerWheel, CancelledEarliestDeadlineRecomputesOnSweep) {
  sched::TimerWheel wheel;
  wheel.Arm(1, 5 * kMs);
  wheel.Arm(2, 50 * kMs);
  wheel.Cancel(1);
  std::vector<uint64_t> expired;
  wheel.Advance(6 * kMs, &expired);  // sweeps the cancelled entry
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(wheel.NextDeadlineNs(), 50 * kMs);
}

// A wake inside a timer's tick but before its deadline must not strand
// the timer: once the cursor sits on its tick, a plain forward scan would
// only revisit that slot after a full rotation.
TEST(TimerWheel, SubTickWakeDoesNotStrandTimerForARotation) {
  sched::TimerWheel wheel;  // 512 slots x 1 ms
  wheel.Arm(1, 5 * kMs + 700'000);  // due at 5.7 ms
  std::vector<uint64_t> expired;
  wheel.Advance(5 * kMs + 200'000, &expired);  // crosses tick 5 early
  EXPECT_TRUE(expired.empty());
  wheel.Advance(5 * kMs + 800'000, &expired);
  EXPECT_EQ(expired, std::vector<uint64_t>{1});
}

sched::QueueItem Item(uint64_t seq, uint32_t tenant, double cost,
                      double cost_ms, uint64_t deadline_ns) {
  sched::QueueItem it;
  it.seq = seq;
  it.tenant = tenant;
  it.cost = cost;
  it.cost_ms = cost_ms;
  it.deadline_ns = deadline_ns;
  return it;
}

const sched::AdmissionQueue::AliveFn kAllAlive =
    [](const sched::QueueItem&) { return true; };

TEST(AdmissionQueue, EdfPopsEarliestDeadlineAndDeadlinelessLast) {
  sched::AdmissionQueue q(sched::OrderPolicy::kEarliestDeadlineFirst, 0.0,
                          {{"", 1, 4, 16}});
  q.Push(Item(1, 0, 1.0, 1.0, 900 * kMs));
  q.Push(Item(2, 0, 1.0, 1.0, 0));  // no deadline: dispatches last
  q.Push(Item(3, 0, 1.0, 1.0, 200 * kMs));
  q.Push(Item(4, 0, 1.0, 1.0, 500 * kMs));
  std::vector<uint64_t> order;
  while (auto it = q.PopBest(0, kAllAlive)) order.push_back(it->seq);
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 4, 1, 2}));
}

TEST(AdmissionQueue, CostAwareEdfOrdersByLatestViableStart) {
  sched::AdmissionQueue q(sched::OrderPolicy::kCostAwareEdf, 0.0,
                          {{"", 1, 4, 16}});
  // Same deadline, costlier query must start sooner.
  q.Push(Item(1, 0, 1.0, /*cost_ms=*/5.0, 500 * kMs));
  q.Push(Item(2, 0, 1.0, /*cost_ms=*/400.0, 500 * kMs));
  // Earlier deadline but trivial runtime: can start later than seq 2.
  q.Push(Item(3, 0, 1.0, /*cost_ms=*/1.0, 300 * kMs));
  std::vector<uint64_t> order;
  while (auto it = q.PopBest(0, kAllAlive)) order.push_back(it->seq);
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 3, 1}));
}

TEST(AdmissionQueue, QuotaSkipsTenantsAtTheirInflightCap) {
  sched::AdmissionQueue q(sched::OrderPolicy::kFifo, 0.0,
                          {{"", 1, 1, 16}, {"b", 1, 1, 16}});
  q.Push(Item(1, 0, 1.0, 1.0, 0));
  q.Push(Item(2, 0, 1.0, 1.0, 0));
  q.Push(Item(3, 1, 1.0, 1.0, 0));

  auto first = q.PopBest(0, kAllAlive);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 1u);
  q.OnDispatch(0);
  // Tenant 0 is at its cap: its seq-2 head is skipped, tenant b runs.
  auto second = q.PopBest(0, kAllAlive);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 3u);
  q.OnDispatch(1);
  EXPECT_FALSE(q.PopBest(0, kAllAlive).has_value());
  q.OnComplete(0);
  auto third = q.PopBest(0, kAllAlive);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->seq, 2u);
}

TEST(AdmissionQueue, DeadEntriesAreSkippedAndSwept) {
  sched::AdmissionQueue q(sched::OrderPolicy::kFifo, 0.0, {{"", 1, 4, 16}});
  q.Push(Item(1, 0, 1.0, 1.0, 0));
  q.Push(Item(2, 0, 1.0, 1.0, 0));
  q.Push(Item(3, 0, 1.0, 1.0, 0));
  auto alive = [](const sched::QueueItem& it) { return it.seq != 2; };
  EXPECT_EQ(q.CountLive(alive), 2u);
  EXPECT_EQ(q.SweepDead(0, alive), 1u);
  EXPECT_EQ(q.queued(0), 2u);
  std::vector<uint64_t> order;
  while (auto it = q.PopBest(0, alive)) order.push_back(it->seq);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 3}));
}

// Satellite check: KMV/min-max statistics price predicates from the data
// distribution instead of the System R constants.
TEST(ColumnStatsSelectivity, EstimatesFollowDistinctCountAndRange) {
  mt::ColumnStats s{0, 99, 25};  // 100-value span, ~25 distinct
  EXPECT_NEAR(mt::EstimateSelectivity({0, CmpOp::kEq, 5}, s), 1.0 / 25, 1e-9);
  EXPECT_NEAR(mt::EstimateSelectivity({0, CmpOp::kNe, 5}, s), 24.0 / 25, 1e-9);
  EXPECT_NEAR(mt::EstimateSelectivity({0, CmpOp::kLt, 25}, s), 0.25, 1e-9);
  EXPECT_NEAR(mt::EstimateSelectivity({0, CmpOp::kGe, 75}, s), 0.25, 1e-9);
  // Clamped: a degenerate envelope never yields 0 or > 1.
  mt::ColumnStats one{5, 5, 1};
  EXPECT_LE(mt::EstimateSelectivity({0, CmpOp::kLe, 5}, one), 1.0);
  EXPECT_GE(mt::EstimateSelectivity({0, CmpOp::kLt, 5}, one), 1e-4);
}

// ---------------------------------------------------------------------------
// scheduler behaviors (through the Session surface)

struct SchedFixture {
  Session db;
  RelId fact, d1, d2, d3;

  explicit SchedFixture(const SessionOptions& so, size_t fact_rows = 800000,
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

// Starting fact rows for the deadline tests on the threads backend;
// test::DeadlineInsideRun doubles them while the query runs under 16 ms.
constexpr size_t kDeadlineFactRows = 1600000;

// Rebuilds `*fx` at `rows` fact rows and returns it with the chain query
// of `probes` joins: the fixture test::DeadlineInsideRun calibrates.
test::DeadlineFixture BuildChainFixture(std::unique_ptr<SchedFixture>* fx,
                                        const SessionOptions& so, size_t rows,
                                        uint32_t probes) {
  fx->reset();
  *fx = std::make_unique<SchedFixture>(so, rows);
  return {&(*fx)->db, (*fx)->ChainQuery(probes)};
}

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

// An uncontended dispatch happens within microseconds of Submit, so a
// deadline inside the query's measured runtime reliably fires
// mid-execution, stops the executor cooperatively, and surfaces
// DeadlineExceeded with partial progress counters. The measuring runs arm
// no timer. `build` is the fixture, calibrated from `rows`.
void ExpectMidExecutionMiss(
    size_t rows, ExecOptions opts,
    const std::function<test::DeadlineFixture(size_t)>& build) {
  test::DeadlineFixture f;
  opts.deadline_ms =
      test::DeadlineInsideRun(rows, opts, [&](size_t n) {
        return f = build(n);
      }).deadline_ms;
  Session& db = *f.db;
  auto t0 = std::chrono::steady_clock::now();
  auto r = db.Submit(f.query, opts).Take();
  double wall =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0).count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("mid-execution"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("partial:"), std::string::npos)
      << r.status().ToString();

  SchedulerStats stats = db.scheduler_stats();
  EXPECT_EQ(stats.deadline_missed, 1u);
  EXPECT_EQ(stats.deadline_missed_queued, 0u);
  EXPECT_EQ(stats.failed, 0u);  // deadline misses are their own bucket
  EXPECT_EQ(stats.timers_fired, 1u);
  // The whole point: the query died near its deadline, far before its
  // natural runtime (generous bound — sanitizer builds stop slowly).
  EXPECT_LT(wall, 5000.0);
}

TEST(SchedDeadline, MissesMidExecutionOnThreads) {
  std::unique_ptr<SchedFixture> fx;
  ExpectMidExecutionMiss(kDeadlineFactRows, Opts(Backend::kThreads),
                         [&](size_t rows) {
                           return BuildChainFixture(&fx, {}, rows, 3);
                         });
}

TEST(SchedDeadline, MissesMidExecutionOnCluster) {
  std::unique_ptr<SchedFixture> fx;
  ExpectMidExecutionMiss(480000, Opts(Backend::kCluster, 2, 2),
                         [&](size_t rows) {
                           return BuildChainFixture(&fx, {}, rows, 3);
                         });
}

TEST(SchedDeadline, MissesMidExecutionOnSimulated) {
  // Catalog-only giants: the discrete-event run takes ~hundreds of ms of
  // real time, plenty for a 25 ms deadline to interrupt. `rows` sizes
  // the larger relation.
  std::unique_ptr<Session> db;
  ExpectMidExecutionMiss(10'000'000, Opts(Backend::kSimulated),
                         [&](size_t rows) {
                           db.reset();
                           db = std::make_unique<Session>(SessionOptions{});
                           RelId a = db->AddRelation("biga", rows);
                           RelId b = db->AddRelation("bigb", rows / 10);
                           return test::DeadlineFixture{
                               db.get(), db->NewQuery().Join(a, b).Build()};
                         });
}

TEST(SchedDeadline, ExpiresWhileQueuedWithoutDispatch) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  ExecOptions opts = Opts(Backend::kThreads);
  // Measured on a twin session, so this one's counters stay exact.
  std::unique_ptr<SchedFixture> twin;
  const test::DeadlineSize size =
      test::DeadlineInsideRun(kDeadlineFactRows, opts, [&](size_t rows) {
        return BuildChainFixture(&twin, so, rows, 3);
      });
  const double deadline_ms = size.deadline_ms;
  twin.reset();
  SchedFixture fx(so, size.rows);

  QueryHandle blocker = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  ExecOptions dead = opts;
  dead.deadline_ms = deadline_ms;  // far below the blocker's runtime
  auto r = fx.db.Submit(fx.ChainQuery(1), dead).Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("while queued"), std::string::npos)
      << r.status().ToString();

  SchedulerStats stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.deadline_missed, 1u);
  EXPECT_EQ(stats.deadline_missed_queued, 1u);
  EXPECT_EQ(stats.queued, 0u);  // the expired entry no longer waits
  EXPECT_TRUE(blocker.Take().ok());
  EXPECT_EQ(fx.db.scheduler_stats().completed, 1u);
}

TEST(SchedDeadline, GenerousDeadlineCompletesAndDisarms) {
  SessionOptions so;
  SchedFixture fx(so, 5000);
  ExecOptions opts = Opts(Backend::kThreads);
  opts.deadline_ms = 60000.0;
  auto r = fx.db.Submit(fx.ChainQuery(2), opts).Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  SchedulerStats stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.deadline_missed, 0u);
  EXPECT_EQ(stats.timers_fired, 0u);  // cancelled on completion, not fired
}

// A mid-run miss ends with the lane cancelling a timer that already
// fired. The wheel's armed bookkeeping must survive that no-op cancel:
// a later query's deadline on the same session must still fire (a
// corrupted count once made NextDeadlineNs() report "nothing armed" and
// the event loop slept through every subsequent deadline).
TEST(SchedDeadline, DeadlinesStillFireAfterMidRunMiss) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  ExecOptions opts = Opts(Backend::kThreads);
  // Measured on a twin session, so this one's counters stay exact.
  std::unique_ptr<SchedFixture> twin;
  const test::DeadlineSize size =
      test::DeadlineInsideRun(kDeadlineFactRows, opts, [&](size_t rows) {
        return BuildChainFixture(&twin, so, rows, 3);
      });
  const double deadline_ms = size.deadline_ms;
  twin.reset();
  SchedFixture fx(so, size.rows);

  ExecOptions miss = opts;
  miss.deadline_ms = deadline_ms;
  auto r1 = fx.db.Submit(fx.ChainQuery(3), miss).Take();
  ASSERT_FALSE(r1.ok());
  ASSERT_EQ(r1.status().code(), StatusCode::kDeadlineExceeded)
      << r1.status().ToString();

  QueryHandle blocker = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  ExecOptions dead = opts;
  dead.deadline_ms = deadline_ms;  // expires while queued behind the blocker
  auto r2 = fx.db.Submit(fx.ChainQuery(1), dead).Take();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded)
      << r2.status().ToString();
  EXPECT_NE(r2.status().message().find("while queued"), std::string::npos)
      << r2.status().ToString();
  EXPECT_TRUE(blocker.Take().ok());

  SchedulerStats stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.deadline_missed, 2u);
  EXPECT_EQ(stats.deadline_missed_queued, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// Digest equivalence under deadline pressure: queries that DO complete in
// a mixed stream (some with impossible deadlines) return exactly the
// serial digests — a deadline miss never corrupts a neighbor.
TEST(SchedDeadline, CompletingQueriesKeepSerialDigestsUnderMisses) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  SchedFixture fx(so, 20000);
  ExecOptions opts = Opts(Backend::kThreads);

  std::vector<Query> queries;
  for (uint32_t i = 0; i < 6; ++i) queries.push_back(fx.ChainQuery(i % 3 + 1));
  std::vector<std::pair<uint64_t, uint64_t>> serial;
  for (const Query& q : queries) {
    auto r = fx.db.Execute(q, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial.emplace_back(r.value().result_rows, r.value().result_checksum);
  }

  // Interleave doomed submissions (deadline shorter than any dispatch+run)
  // with clean ones.
  ExecOptions doomed = opts;
  doomed.deadline_ms = 0.001;
  std::vector<QueryHandle> clean, dead;
  for (size_t i = 0; i < queries.size(); ++i) {
    clean.push_back(fx.db.Submit(queries[i], opts));
    dead.push_back(fx.db.Submit(fx.ChainQuery(3), doomed));
  }
  for (size_t i = 0; i < clean.size(); ++i) {
    auto r = clean[i].Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().report.result_rows, serial[i].first) << i;
    EXPECT_EQ(r.value().report.result_checksum, serial[i].second) << i;
  }
  uint64_t missed = 0;
  for (auto& h : dead) {
    auto r = h.Take();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << r.status().ToString();
      ++missed;
    }
  }
  SchedulerStats stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.deadline_missed, missed);
  EXPECT_EQ(stats.completed + stats.deadline_missed, 18u);  // 6+6 async +6
  EXPECT_EQ(stats.failed, 0u);
}

TEST(SchedTenants, QuotasIsolateAndBackpressureIsPerTenant) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  so.tenants = {{"alpha", 1, /*max_queued=*/1}, {"beta", 1, 0}};
  SchedFixture fx(so);
  ExecOptions alpha = Opts(Backend::kThreads);
  alpha.tenant = "alpha";
  ExecOptions beta = Opts(Backend::kThreads);
  beta.tenant = "beta";

  // alpha's share of 2 slots among weights {1,1,1} is 1: its second query
  // queues behind the first even though a session slot is free.
  QueryHandle a1 = fx.db.Submit(fx.ChainQuery(3), alpha);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  QueryHandle a2 = fx.db.Submit(fx.ChainQuery(1), alpha);
  // alpha's queue depth (1) is now full: backpressure names the tenant...
  QueryHandle a3 = fx.db.Submit(fx.ChainQuery(1), alpha);
  auto r3 = a3.Take();
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kResourceExhausted)
      << r3.status().ToString();
  EXPECT_NE(r3.status().message().find("alpha"), std::string::npos)
      << r3.status().ToString();
  // ...while beta admits and dispatches immediately past alpha's backlog.
  QueryHandle b1 = fx.db.Submit(fx.ChainQuery(1), beta);
  EXPECT_TRUE(WaitForInFlight(fx.db, 2));

  EXPECT_TRUE(a1.Take().ok());
  EXPECT_TRUE(a2.Take().ok());
  EXPECT_TRUE(b1.Take().ok());

  SchedulerStats stats = fx.db.scheduler_stats();
  ASSERT_EQ(stats.tenants.size(), 3u);
  EXPECT_EQ(stats.tenants[0].name, "");  // default tenant is index 0
  const api::TenantStats* ta = nullptr;
  const api::TenantStats* tb = nullptr;
  for (const auto& t : stats.tenants) {
    if (t.name == "alpha") ta = &t;
    if (t.name == "beta") tb = &t;
  }
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->max_inflight, 1u);
  EXPECT_EQ(ta->max_queued, 1u);
  EXPECT_EQ(ta->submitted, 2u);
  EXPECT_EQ(ta->rejected, 1u);
  EXPECT_EQ(tb->submitted, 1u);
  EXPECT_EQ(tb->rejected, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(SchedTenants, UnknownTenantIsRejectedAtSubmit) {
  SessionOptions so;
  SchedFixture fx(so, 2000);
  ExecOptions opts = Opts(Backend::kThreads);
  opts.tenant = "nobody";
  auto r = fx.db.Submit(fx.ChainQuery(1), opts).Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_EQ(fx.db.scheduler_stats().submitted, 0u);
}

// EDF vs FIFO behind a blocker: identical submissions dispatch in deadline
// order under kEarliestDeadlineFirst and in submission order under kFifo —
// deterministically (the single-lane blocker pins the queue until all
// three are waiting).
TEST(SchedOrdering, EdfReordersWhereFifoDoesNot) {
  for (bool edf : {true, false}) {
    SessionOptions so;
    so.max_concurrent_queries = 1;
    so.admission = edf ? AdmissionPolicy::kEarliestDeadlineFirst
                       : AdmissionPolicy::kFifo;
    SchedFixture fx(so);
    ExecOptions opts = Opts(Backend::kThreads);

    QueryHandle blocker = fx.db.Submit(fx.ChainQuery(3), opts);
    ASSERT_TRUE(WaitForInFlight(fx.db, 1));
    ExecOptions late = opts, soon = opts;
    late.deadline_ms = 120000.0;
    soon.deadline_ms = 60000.0;  // earliest, but submitted second
    QueryHandle q_late = fx.db.Submit(fx.ChainQuery(1), late);
    QueryHandle q_soon = fx.db.Submit(fx.ChainQuery(1), soon);
    QueryHandle q_none = fx.db.Submit(fx.ChainQuery(1), opts);

    auto rb = blocker.Take();
    auto rl = q_late.Take();
    auto rs = q_soon.Take();
    auto rn = q_none.Take();
    ASSERT_TRUE(rb.ok() && rl.ok() && rs.ok() && rn.ok());
    EXPECT_EQ(rb.value().dispatch_seq, 1u);
    if (edf) {
      EXPECT_LT(rs.value().dispatch_seq, rl.value().dispatch_seq)
          << "EDF must dispatch the earlier deadline first";
      EXPECT_LT(rl.value().dispatch_seq, rn.value().dispatch_seq)
          << "deadline-less queries dispatch after deadline-carrying ones";
    } else {
      EXPECT_LT(rl.value().dispatch_seq, rs.value().dispatch_seq);
      EXPECT_LT(rs.value().dispatch_seq, rn.value().dispatch_seq);
    }
  }
}

// The burst contract: 10k submissions admit without blocking, the
// scheduler runs exactly one event-loop thread and at most
// max_concurrent_queries lanes however deep the queue gets, and a mass
// cancel drains the backlog with counters reconciling exactly.
TEST(SchedBurst, TenThousandSubmitsRunOnOneLoopThread) {
  SessionOptions so;
  so.max_concurrent_queries = 4;
  so.max_queued = 20000;
  so.admission = AdmissionPolicy::kCostAwareEdf;
  Session db(so);
  RelId a = db.AddRelation("a", 30000);
  RelId b = db.AddRelation("b", 10000);
  Query q = db.NewQuery().Join(a, b).Build();
  ExecOptions opts = Opts(Backend::kSimulated);

  constexpr uint32_t kN = 10000;
  std::vector<QueryHandle> handles;
  handles.reserve(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    ExecOptions o = opts;
    if (i % 3 == 0) o.deadline_ms = 120000.0 + i;  // mixed EDF keys
    handles.push_back(db.Submit(q, o));
  }

  SchedulerStats burst = db.scheduler_stats();
  EXPECT_EQ(burst.submitted, kN);
  EXPECT_EQ(burst.rejected, 0u);
  EXPECT_EQ(burst.loop_threads, 1u);
  EXPECT_LE(burst.lane_threads, 4u);
  EXPECT_LE(burst.in_flight, 4u);
  // Submission far outpaces the ~ms-per-query drain: the queue is deep.
  EXPECT_GE(burst.queued, 5000u);

  // Cancel the tail; the head keeps completing.
  for (uint32_t i = 500; i < kN; ++i) handles[i].Cancel();
  uint64_t ok = 0, cancelled = 0, missed = 0;
  for (auto& h : handles) {
    auto r = h.Take();
    if (r.ok()) {
      ++ok;
    } else if (r.status().code() == StatusCode::kCancelled) {
      ++cancelled;
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << r.status().ToString();
      ++missed;
    }
  }
  SchedulerStats done = db.scheduler_stats();
  EXPECT_EQ(ok + cancelled + missed, kN);
  EXPECT_GE(ok, 500u);  // the uncancelled head must all complete
  EXPECT_EQ(done.completed, ok);
  EXPECT_EQ(done.cancelled, cancelled);
  EXPECT_EQ(done.deadline_missed, missed);
  EXPECT_EQ(done.failed, 0u);
  EXPECT_EQ(done.in_flight, 0u);
  EXPECT_EQ(done.queued, 0u);
  EXPECT_EQ(done.loop_threads, 1u);
  EXPECT_LE(done.lane_threads, 4u);
}

// Cancel and deadline racing on the same queries: every handle settles
// exactly once with ok/Cancelled/DeadlineExceeded, and the lifetime
// counters account each admitted query in exactly one bucket.
TEST(SchedRace, CancelVsDeadlineSettlesEveryQueryOnce) {
  SessionOptions so;
  so.max_concurrent_queries = 3;
  so.max_queued = 256;
  SchedFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kThreads);

  constexpr int kN = 48;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kN; ++i) {
    ExecOptions o = opts;
    o.deadline_ms = 1.0 + (i % 7);  // all deadlines race dispatch+run
    handles.push_back(fx.db.Submit(fx.ChainQuery(i % 3 + 1), o));
    if (i % 2 == 0) handles.back().Cancel();  // ...and half race a cancel
  }
  uint64_t ok = 0, cancelled = 0, missed = 0;
  for (auto& h : handles) {
    auto r = h.Take();
    if (r.ok()) {
      ++ok;
    } else if (r.status().code() == StatusCode::kCancelled) {
      ++cancelled;
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << r.status().ToString();
      ++missed;
    }
    // One-shot: the settled handle never yields a second result.
    EXPECT_EQ(h.Take().status().code(), StatusCode::kFailedPrecondition);
  }
  SchedulerStats stats = fx.db.scheduler_stats();
  EXPECT_EQ(ok + cancelled + missed, static_cast<uint64_t>(kN));
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kN));
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.deadline_missed, missed);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

// Satellite check: Where predicates on catalog-only relations evaluate
// once into the synthesized bind — the executors scan pre-filtered tables
// (rows_prefiltered reports the drop) and both real backends agree on the
// digest.
TEST(SchedPlanning, SynthesizedBindPrefiltersWhereClauses) {
  SessionOptions so;
  Session db(so);
  RelId a = db.AddRelation("cat_a", 20000);
  RelId b = db.AddRelation("cat_b", 4000);
  auto mk = [&](bool filtered) {
    auto qb = db.NewQuery().Join(a, b);
    // The bind synthesizes scaled-down tables (~hundreds of rows), so the
    // threshold must bite inside that scaled key range.
    if (filtered) qb.Where(a, 0, CmpOp::kLt, 100);
    return qb.Build();
  };
  ExecOptions t = Opts(Backend::kThreads);
  t.validate = true;

  auto full = db.Execute(mk(false), t);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().rows_prefiltered, 0u);

  auto filt = db.Execute(mk(true), t);
  ASSERT_TRUE(filt.ok()) << filt.status().ToString();
  EXPECT_GT(filt.value().rows_prefiltered, 0u);
  EXPECT_TRUE(filt.value().reference_match);
  EXPECT_LT(filt.value().result_rows, full.value().result_rows);
  EXPECT_NE(filt.value().ToString().find("prefiltered="), std::string::npos);

  ExecOptions c = Opts(Backend::kCluster, 2, 2);
  auto clus = db.Execute(mk(true), c);
  ASSERT_TRUE(clus.ok()) << clus.status().ToString();
  EXPECT_EQ(clus.value().result_rows, filt.value().result_rows);
  EXPECT_EQ(clus.value().result_checksum, filt.value().result_checksum);

  // A Where column beyond the synthesized width still errors (the
  // prefilter must not swallow the bounds check).
  auto bad = db.Execute(
      db.NewQuery().Join(a, b).Where(a, 99, CmpOp::kEq, 1).Build(), t);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange)
      << bad.status().ToString();
}

}  // namespace
}  // namespace hierdb
