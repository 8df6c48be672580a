// Tests for concurrent query streams through the async Session surface:
// Submit/QueryHandle semantics, admission control (concurrency limit,
// queue bound, FIFO vs shortest-cost-first), result materialization, and
// the RunStream throughput report. Results of concurrent executions are
// always checked against serial Execute digests — correctness under
// overlap is the whole point.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/session.h"
#include "gtest/gtest.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "obs/export.h"

namespace hierdb::api {
namespace {

using std::chrono::milliseconds;

// fact(key, fk1, fk2, fk3) + three dimensions; queries probe distinct
// dimension subsets so a stream is heterogeneous but every query remains
// independently verifiable.
struct StreamFixture {
  Session db;
  RelId fact, d1, d2, d3;

  explicit StreamFixture(const SessionOptions& so, size_t fact_rows = 20000,
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

// Polls the scheduler until `n` queries are executing (for tests that must
// order their submissions around a long-running blocker).
bool WaitForInFlight(const Session& db, uint32_t n,
                     int timeout_ms = 20000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (db.scheduler_stats().in_flight >= n) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

// Order-normalized row set of a batch (executions emit rows in
// nondeterministic order; sorting makes row-for-row comparison exact).
std::vector<std::vector<int64_t>> SortedRows(const mt::Batch& b) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(b.rows());
  for (size_t i = 0; i < b.rows(); ++i) {
    rows.emplace_back(b.row(i), b.row(i) + b.width());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// N parallel Submits on kThreads produce digests identical to serial
// Execute of the same queries.
TEST(StreamConsistency, ParallelSubmitsMatchSerialExecuteOnThreads) {
  SessionOptions so;
  so.max_concurrent_queries = 3;
  StreamFixture fx(so);
  ExecOptions opts = Opts(Backend::kThreads);

  std::vector<Query> queries;
  for (uint32_t i = 0; i < 6; ++i) queries.push_back(fx.ChainQuery(i % 3 + 1));

  // Serial ground truth through the same session (queue drains between
  // calls, so these do not overlap).
  std::vector<std::pair<uint64_t, uint64_t>> serial;
  for (const Query& q : queries) {
    auto r = fx.db.Execute(q, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial.emplace_back(r.value().result_rows, r.value().result_checksum);
  }

  std::vector<QueryHandle> handles;
  for (const Query& q : queries) handles.push_back(fx.db.Submit(q, opts));
  for (size_t i = 0; i < handles.size(); ++i) {
    auto r = handles[i].Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().report.result_rows, serial[i].first) << i;
    EXPECT_EQ(r.value().report.result_checksum, serial[i].second) << i;
    EXPECT_GT(r.value().exec_ms, 0.0);
    EXPECT_GT(r.value().dispatch_seq, 0u);
  }

  auto stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.submitted, 12u);  // 6 serial + 6 concurrent
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_LE(stats.max_in_flight, 3u);
}

// Flake forensics for the cluster consistency test: on a digest mismatch,
// write everything a post-mortem needs to a temp file — serial vs
// concurrent digests, each concurrent query's full ExecutionReport with
// per-node busy/idle/rows-per-chain breakdowns, and a traced serial
// re-run of every mismatching query (Chrome trace JSON) — and return the
// path so the gtest failure message points at it.
std::string DumpClusterForensics(
    Session& db, const std::vector<Query>& queries, const ExecOptions& opts,
    const std::vector<std::pair<uint64_t, uint64_t>>& serial,
    const std::vector<Result<QueryResult>>& got) {
  std::ostringstream os;
  os << "cluster stream digest mismatch: " << queries.size()
     << " queries, machine " << opts.nodes << "x" << opts.threads_per_node
     << "\n\n";
  for (size_t i = 0; i < got.size(); ++i) {
    os << "--- query " << i << " ---\n";
    os << "serial:     rows=" << serial[i].first
       << " checksum=" << serial[i].second << "\n";
    if (!got[i].ok()) {
      os << "concurrent: " << got[i].status().ToString() << "\n";
      continue;
    }
    const ExecutionReport& rep = got[i].value().report;
    os << "concurrent: rows=" << rep.result_rows
       << " checksum=" << rep.result_checksum
       << (rep.result_rows == serial[i].first &&
                   rep.result_checksum == serial[i].second
               ? " (match)"
               : " (MISMATCH)")
       << "\n";
    os << "report: " << rep.ToString() << "\n";
    if (rep.cluster.has_value()) {
      const auto& cs = *rep.cluster;
      for (size_t n = 0; n < cs.busy_per_node.size(); ++n) {
        os << "  node " << n << ": busy=" << cs.busy_per_node[n];
        if (n < cs.idle_waits_per_node.size()) {
          os << " idle_waits=" << cs.idle_waits_per_node[n];
        }
        os << "\n";
      }
      for (size_t c = 0; c < cs.rows_per_chain.size(); ++c) {
        os << "  chain " << c << ": rows=" << cs.rows_per_chain[c] << "\n";
      }
    }
  }
  // Traced serial re-runs of the mismatching queries: where each operator
  // ran and for how long, in a form chrome://tracing opens directly.
  ExecOptions traced = opts;
  traced.trace = true;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].ok() &&
        got[i].value().report.result_rows == serial[i].first &&
        got[i].value().report.result_checksum == serial[i].second) {
      continue;
    }
    os << "\n--- traced serial re-run of query " << i << " ---\n";
    auto r = db.Submit(queries[i], traced).Take();
    if (!r.ok()) {
      os << r.status().ToString() << "\n";
    } else if (r.value().report.trace != nullptr) {
      os << obs::ChromeTraceJson(*r.value().report.trace) << "\n";
    }
  }

  char path[] = "/tmp/hierdb_stream_forensics_XXXXXX";
  int fd = mkstemp(path);
  if (fd < 0) return "(mkstemp failed; dump lost)";
  close(fd);
  std::ofstream(path) << os.str();
  return path;
}

TEST(StreamConsistency, ParallelSubmitsMatchSerialExecuteOnCluster) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  StreamFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kCluster, 2, 2);

  std::vector<Query> queries = {fx.ChainQuery(1), fx.ChainQuery(2),
                                fx.ChainQuery(3), fx.ChainQuery(2)};
  std::vector<std::pair<uint64_t, uint64_t>> serial;
  for (const Query& q : queries) {
    auto r = fx.db.Execute(q, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial.emplace_back(r.value().result_rows, r.value().result_checksum);
  }

  std::vector<QueryHandle> handles;
  for (const Query& q : queries) handles.push_back(fx.db.Submit(q, opts));
  std::vector<Result<QueryResult>> got;
  for (auto& h : handles) got.push_back(h.Take());

  bool mismatch = false;
  for (size_t i = 0; i < got.size(); ++i) {
    mismatch = mismatch || !got[i].ok() ||
               got[i].value().report.result_rows != serial[i].first ||
               got[i].value().report.result_checksum != serial[i].second;
  }
  std::string forensics;
  if (mismatch) {
    forensics = DumpClusterForensics(fx.db, queries, opts, serial, got);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok())
        << got[i].status().ToString() << "; forensics: " << forensics;
    EXPECT_EQ(got[i].value().report.result_rows, serial[i].first)
        << "query " << i << "; forensics: " << forensics;
    EXPECT_EQ(got[i].value().report.result_checksum, serial[i].second)
        << "query " << i << "; forensics: " << forensics;
  }
  EXPECT_LE(fx.db.scheduler_stats().max_in_flight, 2u);
}

// Admission control: the concurrency limit is never exceeded, and with a
// backlog of long-enough queries it is actually reached.
TEST(StreamAdmission, ConcurrencyLimitRespectedAndReached) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  StreamFixture fx(so, 60000);
  ExecOptions opts = Opts(Backend::kThreads);

  std::vector<QueryHandle> handles;
  for (uint32_t i = 0; i < 8; ++i) {
    handles.push_back(fx.db.Submit(fx.ChainQuery(3), opts));
  }
  // Two workers pop immediately while six queries wait behind them.
  EXPECT_TRUE(WaitForInFlight(fx.db, 2));
  for (auto& h : handles) {
    auto r = h.Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto stats = fx.db.scheduler_stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_LE(stats.max_in_flight, 2u);
  EXPECT_EQ(stats.max_in_flight, 2u);
}

// The acceptance experiment: a stream of independent queries under
// max_concurrent_queries >= 2 finishes measurably faster than the sum of
// its serial latencies — on hardware that can actually overlap them.
TEST(StreamAdmission, OverlappedMakespanBeatsSerialSum) {
  SessionOptions so;
  so.max_concurrent_queries = 3;
  StreamFixture fx(so, 400000);
  ExecOptions opts = Opts(Backend::kThreads);
  std::vector<Query> queries(6, fx.ChainQuery(3));

  // The serial baseline runs each query alone on its own two threads. On
  // fx's machine-sized pool a lone query would also borrow every idle
  // worker through cross-query stealing and fill the machine by itself;
  // a one-thread pool plus the renting dispatcher leaves it none to borrow.
  SessionOptions serial_so = so;
  serial_so.pool_threads = 1;
  StreamFixture serial(serial_so, 400000);
  double serial_sum = 0.0;
  for (int i = 0; i < 6; ++i) {
    auto r = serial.db.Execute(serial.ChainQuery(3), opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial_sum += r.value().response_ms;
  }

  StreamReport sr = fx.db.RunStream(queries, opts);
  EXPECT_EQ(sr.succeeded, 6u);
  EXPECT_GT(sr.makespan_ms, 0.0);
  EXPECT_GE(fx.db.scheduler_stats().max_in_flight, 2u);
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "single-core host: queries interleave but cannot "
                    "overlap; makespan ratio not meaningful (serial sum "
                 << serial_sum << "ms, makespan " << sr.makespan_ms << "ms)";
  }
  EXPECT_LT(sr.makespan_ms, 0.9 * serial_sum)
      << "expected overlap: serial sum " << serial_sum << "ms";
}

TEST(StreamAdmission, QueueFullRejectsWithResourceExhausted) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  so.max_queued = 1;
  StreamFixture fx(so, 150000);
  ExecOptions opts = Opts(Backend::kThreads);

  QueryHandle running = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  QueryHandle queued = fx.db.Submit(fx.ChainQuery(1), opts);
  QueryHandle rejected = fx.db.Submit(fx.ChainQuery(1), opts);

  auto r = rejected.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_TRUE(running.Take().ok());
  EXPECT_TRUE(queued.Take().ok());
  EXPECT_EQ(fx.db.scheduler_stats().rejected, 1u);
}

TEST(StreamCancel, CancelBeforeDispatchReturnsCancelledStatus) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  StreamFixture fx(so, 150000);
  ExecOptions opts = Opts(Backend::kThreads);

  QueryHandle running = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  QueryHandle queued = fx.db.Submit(fx.ChainQuery(1), opts);

  EXPECT_FALSE(queued.Done());
  EXPECT_TRUE(queued.Cancel());
  EXPECT_TRUE(queued.Done());    // completes immediately
  EXPECT_FALSE(queued.Cancel());  // second cancel is a no-op
  // Accounted eagerly: visible while the blocker is still running, and
  // the dead entry no longer counts as waiting.
  auto mid = fx.db.scheduler_stats();
  EXPECT_EQ(mid.cancelled, 1u);
  EXPECT_EQ(mid.queued, 0u);
  auto r = queued.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();

  auto ran = running.Take();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_FALSE(running.Cancel());  // already finished
}

TEST(StreamCancel, TakeIsOneShot) {
  SessionOptions so;
  StreamFixture fx(so, 2000);
  QueryHandle h = fx.db.Submit(fx.ChainQuery(1), Opts(Backend::kThreads));
  ASSERT_TRUE(h.Take().ok());
  auto again = h.Take();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  // Empty handles are inert.
  QueryHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Done());
  EXPECT_FALSE(empty.Cancel());
  EXPECT_FALSE(empty.Take().ok());
}

// Shortest-cost-first admission dispatches the cheap query queued behind a
// blocker before the expensive one submitted ahead of it.
TEST(StreamAdmission, ShortestCostFirstReordersQueue) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  so.admission = AdmissionPolicy::kShortestCostFirst;
  // Pin pure cost ordering: a slow host (or a sanitizer build) must not
  // age both queued entries past the bound and flip them to FIFO.
  so.scf_aging_ms = 0.0;
  StreamFixture fx(so, 150000);
  ExecOptions opts = Opts(Backend::kThreads);

  QueryHandle blocker = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  QueryHandle expensive = fx.db.Submit(fx.ChainQuery(3), opts);
  QueryHandle cheap = fx.db.Submit(fx.ChainQuery(1), opts);

  auto rb = blocker.Take();
  auto re = expensive.Take();
  auto rc = cheap.Take();
  ASSERT_TRUE(rb.ok() && re.ok() && rc.ok());
  EXPECT_EQ(rb.value().dispatch_seq, 1u);
  EXPECT_LT(rc.value().dispatch_seq, re.value().dispatch_seq)
      << "cheap query should jump the queue under shortest-cost-first";
}

// Admission aging: an expensive query that has waited past the aging
// bound outranks cost ordering, so sustained cheap traffic can no longer
// starve it. Deterministic in every timing: if the blocker finishes
// before the cheap queries are submitted, the expensive entry dispatches
// alone (trivially first); if it is still running, the expensive entry
// has aged past the bound while the cheap ones are fresh, and the aged
// entry wins the pop regardless of cost.
TEST(StreamAdmission, AgingStopsCheapTrafficFromStarvingExpensiveQuery) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  so.admission = AdmissionPolicy::kShortestCostFirst;
  so.scf_aging_ms = 200.0;
  StreamFixture fx(so, 300000);
  ExecOptions opts = Opts(Backend::kThreads);

  QueryHandle blocker = fx.db.Submit(fx.ChainQuery(3), opts);
  ASSERT_TRUE(WaitForInFlight(fx.db, 1));
  QueryHandle expensive = fx.db.Submit(fx.ChainQuery(3), opts);
  // Let the expensive entry age past the bound, then pile on the cheap
  // traffic that pure shortest-cost-first would dispatch ahead of it.
  std::this_thread::sleep_for(milliseconds(500));
  std::vector<QueryHandle> cheap;
  for (int i = 0; i < 3; ++i) {
    cheap.push_back(fx.db.Submit(fx.ChainQuery(1), opts));
  }

  auto re = expensive.Take();
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  for (auto& h : cheap) {
    auto rc = h.Take();
    ASSERT_TRUE(rc.ok()) << rc.status().ToString();
    EXPECT_LT(re.value().dispatch_seq, rc.value().dispatch_seq)
        << "aged expensive query must dispatch before fresh cheap traffic";
  }
  EXPECT_TRUE(blocker.Take().ok());
}

// The acceptance check for the pooled path: a concurrent stream with the
// build-reuse cache enabled (the default) produces digests identical to
// serial execution without reuse (itself checked against the reference),
// and later queries actually hit the cache.
TEST(StreamConsistency, PooledStreamWithReuseMatchesSerial) {
  SessionOptions so;
  so.max_concurrent_queries = 3;
  StreamFixture fx(so);

  std::vector<Query> queries;
  for (uint32_t i = 0; i < 9; ++i) queries.push_back(fx.ChainQuery(i % 3 + 1));

  ExecOptions one_by_one = Opts(Backend::kThreads);
  one_by_one.reuse_builds = false;
  one_by_one.validate = true;
  std::vector<std::pair<uint64_t, uint64_t>> serial;
  for (const Query& q : queries) {
    auto r = fx.db.Execute(q, one_by_one);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r.value().reference_match);
    serial.emplace_back(r.value().result_rows, r.value().result_checksum);
  }

  ExecOptions pooled = Opts(Backend::kThreads);
  ASSERT_TRUE(pooled.reuse_builds);  // the default is the point
  StreamReport sr = fx.db.RunStream(queries, pooled);
  ASSERT_EQ(sr.succeeded, 9u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& rep = sr.results[i].value().report;
    EXPECT_EQ(rep.result_rows, serial[i].first) << i;
    EXPECT_EQ(rep.result_checksum, serial[i].second) << i;
  }
  // With max 3 concurrent queries, the later waves find the first wave's
  // builds published: the stream must record hits.
  EXPECT_GT(sr.build_cache_hits, 0u);
  EXPECT_GT(sr.build_cache_misses, 0u);
  EXPECT_NE(sr.ToString().find("build_cache="), std::string::npos);
}

// Materialized rows match mt::ReferenceMaterialize row-for-row (after
// order normalization — parallel executions emit rows in any order).
TEST(StreamMaterialize, ThreadsRowsMatchReferenceMaterialize) {
  SessionOptions so;
  StreamFixture fx(so, 6000);
  ExecOptions opts = Opts(Backend::kThreads);
  opts.materialize = true;

  auto r = fx.db.Submit(fx.ChainQuery(3), opts).Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& qr = r.value();
  ASSERT_TRUE(qr.materialized);
  EXPECT_TRUE(qr.report.materialized);
  EXPECT_EQ(qr.report.materialized_rows, qr.rows.rows());
  EXPECT_EQ(qr.report.materialized_bytes, qr.rows.bytes());
  EXPECT_EQ(qr.report.result_rows, qr.rows.rows());
  EXPECT_NE(qr.report.ToString().find("mat_rows="), std::string::npos)
      << qr.report.ToString();

  // The equivalent explicit pipeline plan over the registered tables.
  std::vector<const mt::Table*> tables = {fx.db.table(fx.fact),
                                          fx.db.table(fx.d1),
                                          fx.db.table(fx.d2),
                                          fx.db.table(fx.d3)};
  mt::PipelinePlan plan = mt::MakeRightDeepPlan(0, {1, 2, 3}, {1, 2, 3});
  auto ref = mt::ReferenceMaterialize(plan, tables);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(ref.value().width(), qr.rows.width());
  EXPECT_EQ(SortedRows(ref.value()), SortedRows(qr.rows));
}

TEST(StreamMaterialize, ClusterRowsMatchReferenceMaterialize) {
  SessionOptions so;
  StreamFixture fx(so, 6000);
  ExecOptions opts = Opts(Backend::kCluster, 3, 2);
  opts.materialize = true;
  opts.validate = true;

  auto r = fx.db.Submit(fx.ChainQuery(3), opts).Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& qr = r.value();
  ASSERT_TRUE(qr.materialized);
  EXPECT_TRUE(qr.report.reference_match);
  EXPECT_EQ(qr.report.result_rows, qr.rows.rows());

  std::vector<const mt::Table*> tables = {fx.db.table(fx.fact),
                                          fx.db.table(fx.d1),
                                          fx.db.table(fx.d2),
                                          fx.db.table(fx.d3)};
  mt::PipelinePlan plan = mt::MakeRightDeepPlan(0, {1, 2, 3}, {1, 2, 3});
  auto ref = mt::ReferenceMaterialize(plan, tables);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(ref.value().width(), qr.rows.width());
  EXPECT_EQ(SortedRows(ref.value()), SortedRows(qr.rows));

  // A bushy (multi-chain) plan materializes only the final chain's rows;
  // intermediates keep reporting separately.
  ASSERT_TRUE(qr.report.cluster.has_value());
  EXPECT_EQ(qr.report.intermediate_rows, 0u);  // single chain here
}

TEST(StreamMaterialize, SimulatedBackendRejectsMaterialize) {
  SessionOptions so;
  StreamFixture fx(so, 1000);
  ExecOptions opts = Opts(Backend::kSimulated);
  opts.materialize = true;
  auto r = fx.db.Execute(fx.ChainQuery(2), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamReportTest, RunStreamSummarizesLatencies) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  StreamFixture fx(so, 8000);
  ExecOptions opts = Opts(Backend::kThreads);

  std::vector<Query> queries(4, fx.ChainQuery(2));
  StreamReport sr = fx.db.RunStream(queries, opts);
  EXPECT_EQ(sr.submitted, 4u);
  EXPECT_EQ(sr.succeeded, 4u);
  EXPECT_EQ(sr.failed, 0u);
  ASSERT_EQ(sr.results.size(), 4u);
  EXPECT_GT(sr.makespan_ms, 0.0);
  EXPECT_GT(sr.qps, 0.0);
  EXPECT_GT(sr.p50_ms, 0.0);
  EXPECT_LE(sr.p50_ms, sr.p95_ms);
  EXPECT_GE(sr.serial_ms, sr.p95_ms);
  for (const auto& r : sr.results) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().report.has_result);
  }
  EXPECT_NE(sr.ToString().find("qps"), std::string::npos);

  // A stream holding an invalid query reports the failure and keeps going.
  std::vector<Query> mixed = {fx.ChainQuery(2), Query()};
  StreamReport bad = fx.db.RunStream(mixed, opts);
  EXPECT_EQ(bad.succeeded, 1u);
  EXPECT_EQ(bad.failed, 1u);
  ASSERT_FALSE(bad.results[1].ok());
}

// The promoted white-box toggles are honored through ExecOptions.
TEST(StreamOptions, PromotedTogglesRunOnTheirBackends) {
  SessionOptions so;
  StreamFixture fx(so, 20000);

  // Simulator ablations: both toggles off must still complete, and
  // disabling primary-queue affinity changes scheduling (not correctness).
  ExecOptions sim = Opts(Backend::kSimulated, 1, 8);
  auto base = fx.db.Execute(fx.ChainQuery(3), sim);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  sim.primary_queue_affinity = false;
  sim.model_memory_hierarchy = false;
  auto ablated = fx.db.Execute(fx.ChainQuery(3), sim);
  ASSERT_TRUE(ablated.ok()) << ablated.status().ToString();
  EXPECT_GT(ablated.value().response_ms, 0.0);
  EXPECT_EQ(ablated.value().tuples, base.value().tuples);

  // Cluster: disabling the stolen-fragment cache stays correct under
  // placement skew (which provokes steals).
  ExecOptions cl = Opts(Backend::kCluster, 3, 2);
  cl.placement_theta = 0.9;
  cl.validate = true;
  cl.cache_stolen_fragments = false;
  auto r = fx.db.Execute(fx.ChainQuery(3), cl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().reference_match);
}

// A zero concurrency limit is normalized to 1 rather than deadlocking
// Take with a worker-less scheduler.
TEST(StreamLifecycle, ZeroConcurrencyLimitIsTreatedAsOne) {
  SessionOptions so;
  so.max_concurrent_queries = 0;
  StreamFixture fx(so, 2000);
  auto r = fx.db.Execute(fx.ChainQuery(1), Opts(Backend::kThreads));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(fx.db.scheduler_stats().max_in_flight, 1u);
}

// Sessions destruct cleanly with work still queued (the scheduler drains).
TEST(StreamLifecycle, DestructionDrainsInFlightQueries) {
  SessionOptions so;
  so.max_concurrent_queries = 2;
  std::vector<QueryHandle> handles;
  {
    StreamFixture fx(so, 30000);
    for (int i = 0; i < 4; ++i) {
      handles.push_back(fx.db.Submit(fx.ChainQuery(2),
                                     Opts(Backend::kThreads)));
    }
    // Session (and scheduler) destruct here with queries in flight.
  }
  for (auto& h : handles) {
    auto r = h.Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r.value().report.result_rows, 0u);
  }
}

}  // namespace
}  // namespace hierdb::api
