// Tests for the observability subsystem: per-operator tracing through
// api::Session on all three backends, exporter well-formedness, the
// cancelled-trace drain guarantee at the executor level, and the
// continuous session metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace hierdb::api {
namespace {

// The acceptance-criteria query: a 2-join chain over real data, plus a
// GROUP BY variant of the same chain.
struct Fixture {
  Session db;
  RelId fact, d1, d2;

  explicit Fixture(size_t fact_rows = 20000, SessionOptions so = {})
      : db(so) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 3, 400, 7));
    d1 = db.AddTable(mt::MakeTable("d1", 400, 2, 50, 8));
    d2 = db.AddTable(mt::MakeTable("d2", 400, 2, 50, 9));
  }

  Query Join2() const {
    return db.NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build();
  }
  Query Join2GroupBy() const {
    return db.NewQuery()
        .Scan(fact)
        .Probe(d1, 1, 0)
        .Probe(d2, 2, 0)
        .GroupBy(d1, 1)
        .Count()
        .Build();
  }
};

ExecOptions Opts(Backend backend, uint32_t nodes, uint32_t threads) {
  ExecOptions o;
  o.backend = backend;
  o.strategy = Strategy::kDP;
  o.nodes = nodes;
  o.threads_per_node = threads;
  o.trace = true;
  return o;
}

/// Structural span checks every backend's trace must satisfy.
void CheckSpans(const obs::QueryTrace& t) {
  ASSERT_FALSE(t.ops.empty());
  ASSERT_FALSE(t.events.empty());
  size_t spans = 0;
  uint64_t prev_start = 0;
  for (const obs::TraceEvent& ev : t.events) {
    // Drain() sorts by start time.
    EXPECT_GE(ev.start_ns, prev_start);
    prev_start = ev.start_ns;
    EXPECT_LE(ev.start_ns, ev.end_ns);
    if (ev.kind != obs::EventKind::kSpan) continue;
    ++spans;
    ASSERT_GE(ev.op, 0);
    ASSERT_LT(static_cast<size_t>(ev.op), t.ops.size());
    EXPECT_GT(ev.activations, 0u);
    // A real per-worker span's busy time fits inside its wall extent
    // (virtual spans aggregate every processor, so theirs may not).
    if (!t.virtual_time) {
      EXPECT_LE(ev.detail, ev.end_ns - ev.start_ns + 1);
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(t.TotalBusyNs(), 0u);
  EXPECT_GT(t.MaxEndNs(), 0u);
}

TEST(ObsTrace, ThreadsTraceSpansAndCards) {
  Fixture f;
  auto r = f.db.Execute(f.Join2(), Opts(Backend::kThreads, 1, 4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ExecutionReport& rep = r.value();
  ASSERT_NE(rep.trace, nullptr);
  EXPECT_EQ(rep.trace->backend, "threads");
  EXPECT_FALSE(rep.trace->virtual_time);
  CheckSpans(*rep.trace);
  // Workers stay within the machine shape.
  for (const obs::TraceEvent& ev : rep.trace->events) {
    EXPECT_EQ(ev.node, 0);
    EXPECT_LT(ev.worker, 4);
  }
  // Chain cards: estimates from the optimizer, actuals measured; the
  // final chain's actual is the query's result cardinality.
  ASSERT_EQ(rep.chain_cards.size(), 1u);
  EXPECT_GT(rep.chain_cards[0].est_rows, 0.0);
  ASSERT_TRUE(rep.chain_cards[0].has_actual);
  EXPECT_EQ(rep.chain_cards[0].actual_rows, rep.result_rows);
  // The terminal probe op carries the same actual.
  bool found = false;
  for (const obs::TraceOp& op : rep.trace->ops) {
    if (op.actual_rows == rep.result_rows && op.kind == "probe") found = true;
  }
  EXPECT_TRUE(found);
}

// Span busy time is exclusive: under SP a probe runs inside the scan
// that handed it rows, and its time must not count again in the scan's
// span. One worker lane is one thread, so its summed busy time fits in
// its wall extent. The pool plus the renting caller are exactly the
// rented workers, so no pool thread is left idle to help as a guest.
TEST(ObsTrace, ThreadsSpanBusyTimeIsExclusivePerLane) {
  constexpr uint32_t kThreads = 3;
  SessionOptions so;
  so.pool_threads = kThreads - 1;
  Fixture f(20000, so);
  for (Strategy strategy : {Strategy::kDP, Strategy::kFP, Strategy::kSP}) {
    SCOPED_TRACE(StrategyName(strategy));
    ExecOptions o = Opts(Backend::kThreads, 1, kThreads);
    o.strategy = strategy;
    o.reuse_builds = false;  // builds run (and under SP, nest) too
    auto r = f.db.Execute(f.Join2(), o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r.value().trace, nullptr);
    const obs::QueryTrace& t = *r.value().trace;
    std::vector<uint64_t> busy(kThreads, 0), first(kThreads, UINT64_MAX),
        last(kThreads, 0);
    std::vector<bool> guest(kThreads, false), op_span(t.ops.size(), false);
    for (const obs::TraceEvent& ev : t.events) {
      if (ev.kind != obs::EventKind::kSpan &&
          ev.kind != obs::EventKind::kSteal) {
        continue;
      }
      ASSERT_GE(ev.worker, 0);
      ASSERT_LT(ev.worker, static_cast<int32_t>(kThreads));
      const size_t w = static_cast<size_t>(ev.worker);
      if (ev.kind == obs::EventKind::kSteal) {
        guest[w] = true;
        continue;
      }
      busy[w] += ev.detail;
      first[w] = std::min(first[w], ev.start_ns);
      last[w] = std::max(last[w], ev.end_ns);
      op_span[static_cast<size_t>(ev.op)] = true;
    }
    for (uint32_t w = 0; w < kThreads; ++w) {
      // Only DP publishes a steal hook; a guest that still slipped in
      // before the team was claimed shares its lane with the worker.
      if (guest[w]) {
        EXPECT_EQ(strategy, Strategy::kDP) << "lane " << w;
        continue;
      }
      if (busy[w] == 0) continue;
      EXPECT_LE(busy[w], last[w] - first[w]) << "lane " << w;
    }
    for (const obs::TraceOp& op : t.ops) {
      if (strategy == Strategy::kSP && op.kind == "probe") {
        EXPECT_TRUE(op_span[op.id]) << "probe op " << op.id;
      }
    }
  }
}

TEST(ObsTrace, TraceOffMeansNoTraceButCardsRemain) {
  Fixture f;
  ExecOptions o = Opts(Backend::kThreads, 1, 4);
  o.trace = false;
  auto r = f.db.Execute(f.Join2(), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().trace, nullptr);
  // Actual cardinalities are measured unconditionally.
  ASSERT_EQ(r.value().chain_cards.size(), 1u);
  EXPECT_TRUE(r.value().chain_cards[0].has_actual);
}

TEST(ObsTrace, EveryBackendEmitsAValidChromeTrace) {
  struct Shape {
    Backend backend;
    uint32_t nodes, threads;
  };
  for (const Shape& s : {Shape{Backend::kSimulated, 2, 2},
                         Shape{Backend::kThreads, 1, 4},
                         Shape{Backend::kCluster, 2, 2}}) {
    SCOPED_TRACE(BackendName(s.backend));
    Fixture f;
    auto r =
        f.db.Execute(f.Join2GroupBy(), Opts(s.backend, s.nodes, s.threads));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r.value().trace, nullptr);
    const obs::QueryTrace& t = *r.value().trace;
    CheckSpans(t);
    EXPECT_EQ(t.virtual_time, s.backend == Backend::kSimulated);
    std::string json = obs::ChromeTraceJson(t);
    Status ok = obs::ValidateChromeTraceJson(json);
    EXPECT_TRUE(ok.ok()) << ok.ToString() << "\n" << json.substr(0, 400);
    std::string dot = obs::PlanDot(t);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_FALSE(obs::PlanJson(t).empty());
  }
}

TEST(ObsTrace, SimulatedSpansSumToVirtualResponse) {
  Fixture f;
  auto r = f.db.Execute(f.Join2(), Opts(Backend::kSimulated, 1, 4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);
  const obs::QueryTrace& t = *r.value().trace;
  EXPECT_TRUE(t.virtual_time);
  // Virtual spans end at per-op completion times, so the last span end is
  // the virtual response time (SimTime is nanoseconds).
  double max_end_ms = static_cast<double>(t.MaxEndNs()) / 1e6;
  EXPECT_LE(max_end_ms, r.value().response_ms * 1.01 + 1e-6);
  EXPECT_GE(max_end_ms, r.value().response_ms * 0.5);
  // Sim chain cards are estimate-only.
  for (const obs::ChainCard& cc : r.value().chain_cards) {
    EXPECT_FALSE(cc.has_actual);
  }
}

TEST(ObsTrace, ClusterTraceTagsNodesAndAggPhase) {
  Fixture f;
  auto r = f.db.Execute(f.Join2GroupBy(), Opts(Backend::kCluster, 2, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);
  const obs::QueryTrace& t = *r.value().trace;
  bool saw_node1 = false, saw_agg_span = false;
  const uint32_t agg_op = static_cast<uint32_t>(t.ops.size()) - 1;
  ASSERT_EQ(t.ops.back().kind, "agg");
  for (const obs::TraceEvent& ev : t.events) {
    EXPECT_LT(ev.node, 2);
    if (ev.node == 1) saw_node1 = true;
    if (ev.kind == obs::EventKind::kSpan &&
        ev.op == static_cast<int32_t>(agg_op)) {
      saw_agg_span = true;
    }
  }
  EXPECT_TRUE(saw_node1);
  EXPECT_TRUE(saw_agg_span);
}

// The cancelled-trace guarantee lives at the executor layer: span cells
// are flushed into the sink on every exit path, so a query stopped
// mid-flight still leaves an inspectable trace.
TEST(ObsTrace, CancelledExecutionStillDrainsSpans) {
  mt::Table fact = mt::MakeTable("fact", 400000, 3, 2000, 3);
  mt::Table dim = mt::MakeTable("dim", 2000, 2, 100, 4);
  std::vector<const mt::Table*> tables = {&fact, &dim};
  mt::PipelinePlan plan;
  mt::Chain chain;
  chain.input = mt::Source::OfTable(0);
  chain.joins.push_back({mt::Source::OfTable(1), 1, 0});
  plan.chains.push_back(chain);

  obs::TraceSink sink;
  std::atomic<bool> stop{false};
  ThreadSpawnContext ctx(&stop);
  mt::PipelineOptions po;
  po.threads = 2;
  po.morsel_rows = 512;  // many activations => cancel lands mid-run
  po.ctx = &ctx;
  po.trace = &sink;
  mt::PipelineExecutor executor(po);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    stop.store(true, std::memory_order_release);
  });
  auto got = executor.Execute(plan, tables);
  canceller.join();
  // Whether the cancel won the race or the query finished first, the
  // sink holds whatever ran, monotonic and well-formed.
  std::vector<obs::TraceEvent> events = sink.Drain();
  ASSERT_FALSE(events.empty());
  for (const obs::TraceEvent& ev : events) {
    EXPECT_LE(ev.start_ns, ev.end_ns);
  }
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
        << got.status().ToString();
  }
}

TEST(ObsTrace, MetricsSnapshotAndJsonlExport) {
  std::string path = "obs_metrics_test.jsonl";
  std::remove(path.c_str());
  {
    SessionOptions so;
    so.metrics_export_path = path;
    so.metrics_export_every = 1;
    Fixture f(4000, so);
    ExecOptions o = Opts(Backend::kThreads, 1, 2);
    o.trace = false;
    for (int i = 0; i < 3; ++i) {
      auto r = f.db.Execute(f.Join2(), o);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    SessionMetrics m = f.db.MetricsSnapshot();
    EXPECT_EQ(m.queries, 3u);
    EXPECT_GT(m.exec_p50_ms, 0.0);
    EXPECT_GE(m.exec_p95_ms, m.exec_p50_ms);
    EXPECT_GE(m.exec_p99_ms, m.exec_p95_ms);
    EXPECT_EQ(m.scheduler.completed, 3u);
    EXPECT_NE(m.ToJson().find("\"queries\":3"), std::string::npos);
    EXPECT_NE(m.ToString().find("3 queries"), std::string::npos);
  }  // destructor appends the final snapshot line
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 4);  // one per query + the destructor flush
  in.close();
  std::remove(path.c_str());
}

TEST(ObsTrace, ExplainDotRendersThePlanGraph) {
  Fixture f;
  for (Backend b :
       {Backend::kSimulated, Backend::kThreads, Backend::kCluster}) {
    SCOPED_TRACE(BackendName(b));
    auto dot = f.db.ExplainDot(
        f.Join2(), Opts(b, b == Backend::kCluster ? 2 : 1,
                        b == Backend::kThreads ? 4 : 2));
    ASSERT_TRUE(dot.ok()) << dot.status().ToString();
    EXPECT_NE(dot.value().find("digraph"), std::string::npos);
    // Operator labels: "probe d1" on the real backends, "Probe1" on the
    // simulator's physical plan.
    EXPECT_TRUE(dot.value().find("probe") != std::string::npos ||
                dot.value().find("Probe") != std::string::npos);
  }
}

TEST(ObsTrace, StreamReportCarriesP99AndCardError) {
  Fixture f;
  ExecOptions o = Opts(Backend::kThreads, 1, 2);
  o.trace = false;
  std::vector<Query> queries(4, f.Join2());
  StreamReport sr = f.db.RunStream(queries, o);
  EXPECT_EQ(sr.succeeded, 4u);
  EXPECT_GT(sr.p99_ms, 0.0);
  EXPECT_GE(sr.p99_ms, sr.p50_ms);
  // Every chain measured an actual, so the mean error is defined (it may
  // legitimately be zero if estimates were exact; probe fan-out on random
  // FKs makes that vanishingly unlikely but not impossible).
  EXPECT_NE(sr.ToString().find("p99="), std::string::npos);
}

}  // namespace
}  // namespace hierdb::api
