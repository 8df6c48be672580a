// Tests for the observability subsystem: per-operator tracing through
// api::Session on all three backends, exporter well-formedness, the
// cancelled-trace guarantee at the executor level, a trace as the
// query's share of the flight recorder's one event stream (every event
// written once, concurrent traces kept apart, independent of the rings),
// and the continuous session metrics.

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
    // A trace is sorted by start time.
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

// Spawns threads like ThreadSpawnContext and requests a stop on its k-th
// StopRequested() poll. Workers poll once per activation, so the stop
// lands mid-run after activations ran, however loaded the host is.
class StopOnPoll final : public ExecContext {
 public:
  explicit StopOnPoll(uint64_t k) : k_(k) {}
  void SpawnWorkers(uint32_t n,
                    const std::function<void(uint32_t)>& body) override {
    threads_.SpawnWorkers(n, body);
  }
  bool StopRequested() const override {
    return polls_.fetch_add(1, std::memory_order_relaxed) + 1 >= k_;
  }

 private:
  ThreadSpawnContext threads_;
  const uint64_t k_;
  mutable std::atomic<uint64_t> polls_{0};
};

// The cancelled-trace guarantee lives at the executor layer: span cells
// are written into the recorder on every exit path, so a query stopped
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

  obs::FlightRecorder rec({});
  rec.BeginTrace(1);
  // ~800 scan morsels and as many probe batches poll far more than 64
  // times, so the stop always lands before the query completes.
  StopOnPoll ctx(64);
  mt::PipelineOptions po;
  po.threads = 2;
  po.morsel_rows = 512;
  po.ctx = &ctx;
  po.recorder = &rec;
  po.recorder_query = 1;
  mt::PipelineExecutor executor(po);
  auto got = executor.Execute(plan, tables);
  // The trace holds whatever ran before the stop, monotonic and
  // well-formed.
  std::vector<obs::TraceEvent> events = rec.EndTrace(1);
  ASSERT_FALSE(events.empty());
  for (const obs::TraceEvent& ev : events) {
    EXPECT_LE(ev.start_ns, ev.end_ns);
  }
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
      << got.status().ToString();
}

// ---------------------------------------------------------------------------
// A trace is the query's share of the recorder's one event stream.

size_t CountKind(const std::vector<obs::TraceEvent>& evs, obs::EventKind k) {
  return static_cast<size_t>(
      std::count_if(evs.begin(), evs.end(),
                    [k](const obs::TraceEvent& e) { return e.kind == k; }));
}

/// An event's identity apart from its clock: the trace's timestamps are
/// relative to its attempt, the rings' to the session.
std::vector<uint64_t> EventKey(const obs::TraceEvent& e, uint64_t base) {
  return {static_cast<uint64_t>(e.kind),
          static_cast<uint64_t>(static_cast<int64_t>(e.node)),
          static_cast<uint64_t>(static_cast<int64_t>(e.worker)),
          static_cast<uint64_t>(static_cast<int64_t>(e.op)),
          e.start_ns - base, e.end_ns - e.start_ns, e.activations, e.rows_in,
          e.rows_out, e.detail, e.query};
}

// Every event is written once: one schedule, rent and return per attempt,
// one cache instant per resolved build, all tagged with the query's seq,
// and the black box holds exactly the trace's events, not a second copy.
TEST(ObsTrace, EveryEventIsWrittenOnceAndTaggedWithItsQuery) {
  for (Backend b : {Backend::kThreads, Backend::kCluster}) {
    SCOPED_TRACE(BackendName(b));
    Fixture f;
    ExecOptions traced =
        b == Backend::kThreads ? Opts(b, 1, 4) : Opts(b, 2, 2);
    ExecOptions warm = traced;
    warm.trace = false;
    ASSERT_TRUE(f.db.Execute(f.Join2(), warm).ok());  // fills the cache
    auto r = f.db.Execute(f.Join2(), traced);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ExecutionReport& rep = r.value();
    ASSERT_NE(rep.trace, nullptr);
    const std::vector<obs::TraceEvent>& evs = rep.trace->events;
    ASSERT_FALSE(evs.empty());
    const uint64_t seq = evs.front().query;
    EXPECT_GT(seq, 0u);
    for (const obs::TraceEvent& ev : evs) {
      EXPECT_EQ(ev.query, seq) << obs::EventKindName(ev.kind);
    }
    EXPECT_EQ(CountKind(evs, obs::EventKind::kSchedule), 1u);
    EXPECT_EQ(CountKind(evs, obs::EventKind::kPoolRent), 1u);
    EXPECT_EQ(CountKind(evs, obs::EventKind::kPoolReturn), 1u);
    // Build-cache instants name a build op; a kCluster fragment-cache hit
    // names the probe that reused a stolen bucket.
    size_t build_cache = 0;
    for (const obs::TraceEvent& ev : evs) {
      if ((ev.kind == obs::EventKind::kCacheHit ||
           ev.kind == obs::EventKind::kCacheMiss) &&
          rep.trace->ops.at(static_cast<size_t>(ev.op)).kind == "build") {
        ++build_cache;
      }
    }
    EXPECT_GT(rep.build_cache_hits, 0u);
    EXPECT_EQ(build_cache, rep.build_cache_hits + rep.build_cache_misses);

    std::vector<obs::TraceEvent> flight;
    for (const obs::TraceEvent& ev : f.db.recorder()->Snapshot()) {
      // Admission precedes the attempt, so it is not in the trace.
      if (ev.query == seq && ev.kind != obs::EventKind::kSubmit) {
        flight.push_back(ev);
      }
    }
    ASSERT_EQ(flight.size(), evs.size());
    std::vector<std::vector<uint64_t>> want, got;
    for (const obs::TraceEvent& ev : evs) {
      want.push_back(EventKey(ev, evs.front().start_ns));
    }
    for (const obs::TraceEvent& ev : flight) {
      got.push_back(EventKey(ev, flight.front().start_ns));
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(want, got);
  }
}

// Traced and untraced queries overlap on four clients: each trace holds
// its own query's events only, one attempt's worth.
TEST(ObsTrace, ConcurrentTracesStaySeparate) {
  SessionOptions so;
  so.max_concurrent_queries = 4;
  Fixture f(8000, so);
  constexpr int kClients = 4, kPerClient = 6;
  std::vector<std::vector<std::shared_ptr<const obs::QueryTrace>>> traces(
      kClients);
  std::vector<std::thread> clients;
  std::atomic<int> failed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        ExecOptions o = Opts(c % 2 == 0 ? Backend::kThreads : Backend::kCluster,
                             c % 2 == 0 ? 1 : 2, 2);
        o.trace = (c + i) % 2 == 0;
        auto r = f.db.Execute(f.Join2GroupBy(), o);
        if (!r.ok() || (r.value().trace != nullptr) != o.trace) {
          failed.fetch_add(1);
          continue;
        }
        if (o.trace) traces[c].push_back(r.value().trace);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  std::vector<uint64_t> seqs;
  for (const auto& per_client : traces) {
    for (const auto& t : per_client) {
      ASSERT_FALSE(t->events.empty());
      const uint64_t seq = t->events.front().query;
      seqs.push_back(seq);
      for (const obs::TraceEvent& ev : t->events) {
        ASSERT_EQ(ev.query, seq) << obs::EventKindName(ev.kind);
      }
      EXPECT_EQ(CountKind(t->events, obs::EventKind::kSchedule), 1u);
      EXPECT_EQ(CountKind(t->events, obs::EventKind::kPoolRent), 1u);
      EXPECT_EQ(CountKind(t->events, obs::EventKind::kPoolReturn), 1u);
      EXPECT_GT(CountKind(t->events, obs::EventKind::kSpan), 0u);
    }
  }
  EXPECT_EQ(seqs.size(), static_cast<size_t>(kClients * kPerClient / 2));
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::unique(seqs.begin(), seqs.end()), seqs.end());
}

// A trace is collected as its events are written, so neither a ring too
// small to hold it, nor a ring pool too small for the threads, nor a
// disarmed black box loses any of it.
TEST(ObsTrace, TracesDoNotDependOnTheRings) {
  auto spans = [](const SessionOptions& so, size_t* events) {
    Fixture f(20000, so);
    // One lane and no steal hook (SP): the same (slot, op) cells run every
    // time, so the span count is a property of the plan.
    ExecOptions o = Opts(Backend::kThreads, 1, 1);
    o.strategy = Strategy::kSP;
    o.reuse_builds = false;
    auto r = f.db.Execute(f.Join2(), o);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r.value().trace == nullptr) return size_t{0};
    *events = r.value().trace->events.size();
    return CountKind(r.value().trace->events, obs::EventKind::kSpan);
  };
  size_t events = 0;
  const size_t want = spans(SessionOptions{}, &events);
  EXPECT_GT(want, 0u);

  SessionOptions tiny;
  tiny.recorder_rings = 1;
  tiny.recorder_ring_events = 8;
  size_t tiny_events = 0;
  EXPECT_EQ(spans(tiny, &tiny_events), want);
  EXPECT_GT(tiny_events, 8u);  // more than the one ring could hold
  EXPECT_EQ(tiny_events, events);

  SessionOptions off;
  off.flight_recorder = false;
  size_t off_events = 0;
  EXPECT_EQ(spans(off, &off_events), want);
  EXPECT_EQ(off_events, events);
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
