// Tests for the always-on flight recorder and its forensic pipeline:
// bounded seqlock rings (overwrite-oldest, disarmed cost, concurrent
// snapshot safety), order-independent plan-point row capture
// (QueryBuilder::CapturePoint) compared against the reference executor
// on both real backends, anomaly-triggered forensic bundles (deadline
// miss, retry under injected faults, explicit DumpForensics) whose
// flight.json always passes ValidateChromeTraceJson, the event-loop
// health gauges in SessionMetrics::ToJson, and the guarantee that
// kFault/kRetry/kFallback instants from a fault-injected run survive
// Chrome-trace export.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "mt/row.h"
#include "obs/capture.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace hierdb::api {
namespace {

namespace fs = std::filesystem;

// A per-test scratch directory for forensic bundles, removed on scope
// exit so repeated runs never see stale bundles.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() / ("hierdb_recorder_test_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    // A failed test keeps its bundles: CI uploads /tmp/hierdb_* as
    // forensic artifacts from failed runs.
    if (::testing::Test::HasFailure()) return;
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<fs::path> BundleDirs(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_directory()) out.push_back(e.path());
  }
  return out;
}

// Same shape as the obs_trace_test fixture: a 2-join chain over real
// data, the query every acceptance criterion runs.
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
};

ExecOptions Opts(Backend backend, uint32_t nodes, uint32_t threads) {
  ExecOptions o;
  o.backend = backend;
  o.nodes = nodes;
  o.threads_per_node = threads;
  return o;
}

bool HasKind(const std::vector<obs::TraceEvent>& evs, obs::EventKind k) {
  for (const obs::TraceEvent& ev : evs) {
    if (ev.kind == k) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// FlightRecorder unit

TEST(FlightRecorder, BoundedRingOverwritesOldestAndKeepsTheRecentPast) {
  obs::FlightRecorder::Options o;
  o.rings = 2;
  o.events_per_ring = 8;
  obs::FlightRecorder rec(o);
  for (uint64_t i = 0; i < 100; ++i) {
    rec.Instant(obs::EventKind::kSubmit, /*query=*/i + 1, /*detail=*/i);
  }
  std::vector<obs::TraceEvent> evs = rec.Snapshot();
  ASSERT_FALSE(evs.empty());
  EXPECT_LE(evs.size(), 8u);
  // Overwrite-oldest: at quiescence the ring holds exactly the tail of
  // the stream.
  for (const obs::TraceEvent& ev : evs) {
    EXPECT_GE(ev.detail, 100u - 8u);
    EXPECT_EQ(ev.kind, obs::EventKind::kSubmit);
    EXPECT_EQ(ev.query, ev.detail + 1);
  }
  obs::FlightRecorder::Stats st = rec.stats();
  EXPECT_EQ(st.recorded, 100u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.rings_claimed, 1u);  // single writer thread
  EXPECT_EQ(st.rings, 2u);
  EXPECT_EQ(st.events_per_ring, 8u);
}

TEST(FlightRecorder, DisarmedRecorderCostsABranchAndYieldsNothing) {
  obs::FlightRecorder::Options o;
  o.armed = false;
  obs::FlightRecorder rec(o);
  EXPECT_FALSE(rec.armed());
  for (uint64_t i = 0; i < 50; ++i) {
    rec.Instant(obs::EventKind::kSchedule, 1, i);
  }
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_EQ(rec.stats().recorded, 0u);
}

TEST(FlightRecorder, SnapshotIsSafeAgainstConcurrentWriters) {
  obs::FlightRecorder::Options o;
  o.rings = 8;
  o.events_per_ring = 64;
  obs::FlightRecorder rec(o);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        rec.Instant(obs::EventKind::kSchedule, static_cast<uint64_t>(t) + 1,
                    i);
      }
    });
  }
  // Snapshots race the writers; every event copied out must be whole
  // (the seqlock discards torn slots) and sorted by start time.
  for (int s = 0; s < 50; ++s) {
    std::vector<obs::TraceEvent> evs = rec.Snapshot();
    uint64_t prev = 0;
    for (const obs::TraceEvent& ev : evs) {
      EXPECT_GE(ev.start_ns, prev);
      prev = ev.start_ns;
      EXPECT_EQ(ev.kind, obs::EventKind::kSchedule);
      EXPECT_GE(ev.query, 1u);
      EXPECT_LE(ev.query, static_cast<uint64_t>(kWriters));
      EXPECT_LT(ev.detail, kPerWriter);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(rec.stats().recorded, kWriters * kPerWriter);
  EXPECT_EQ(rec.stats().rings_claimed, static_cast<uint32_t>(kWriters));
}

TEST(FlightRecorder, ThreadsBeyondTheRingPoolDropInsteadOfBlocking) {
  obs::FlightRecorder::Options o;
  o.rings = 1;
  o.events_per_ring = 8;
  obs::FlightRecorder rec(o);
  rec.Instant(obs::EventKind::kSubmit, 1, 0);  // claims the only ring
  std::thread overflow([&rec] {
    for (int i = 0; i < 10; ++i) {
      rec.Instant(obs::EventKind::kSubmit, 2, 0);
    }
  });
  overflow.join();
  obs::FlightRecorder::Stats st = rec.stats();
  EXPECT_EQ(st.recorded, 1u);
  EXPECT_EQ(st.dropped, 10u);
}

// ---------------------------------------------------------------------------
// RowCapture unit

TEST(RowCapture, BottomKSampleIsAPureFunctionOfTheOfferedMultiset) {
  constexpr uint32_t kK = 16;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 50; ++i) rows.push_back({i, i * 3, 7});
  // Duplicates count: the sample is a multiset selection.
  for (int64_t i = 0; i < 50; ++i) {
    rows.push_back({i % 10, (i % 10) * 3, 7});
  }
  obs::RowCapture fwd(kK), rev(kK);
  for (const auto& r : rows) fwd.Offer(r.data(), 3);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    rev.Offer(it->data(), 3);
  }
  obs::CaptureResult a = fwd.Take("p", 0, 1);
  obs::CaptureResult b = rev.Take("p", 0, 1);
  EXPECT_EQ(a.offered, 100u);
  EXPECT_EQ(b.offered, 100u);
  ASSERT_EQ(a.rows.size(), kK);
  EXPECT_EQ(a.width, 3u);
  EXPECT_TRUE(a.SameRows(b));
}

TEST(RowCapture, ConcurrentOffersConvergeToTheSerialSample) {
  constexpr uint32_t kK = 8;
  obs::RowCapture serial(kK), parallel(kK);
  for (int64_t i = 0; i < 4000; ++i) {
    int64_t row[2] = {i, i ^ 0x55};
    serial.Offer(row, 2);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&parallel, t] {
      for (int64_t i = t; i < 4000; i += 4) {
        int64_t row[2] = {i, i ^ 0x55};
        parallel.Offer(row, 2);
      }
    });
  }
  for (auto& t : threads) t.join();
  obs::CaptureResult a = serial.Take("p", 0, 0);
  obs::CaptureResult b = parallel.Take("p", 0, 0);
  EXPECT_TRUE(a.SameRows(b));
}

// ---------------------------------------------------------------------------
// Session black box

TEST(Recorder, SessionBlackBoxSeesAdmissionAndPoolTraffic) {
  Fixture f;
  auto r = f.db.Execute(f.Join2(), Opts(Backend::kThreads, 1, 4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(f.db.recorder(), nullptr);
  std::vector<obs::TraceEvent> evs = f.db.recorder()->Snapshot();
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kSubmit));
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kSchedule));
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kPoolRent));
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kPoolReturn));
  // Executor- and scheduler-side events carry the same admission seq.
  bool query_scoped = false;
  for (const obs::TraceEvent& ev : evs) {
    if (ev.kind == obs::EventKind::kSubmit && ev.query > 0) {
      query_scoped = true;
    }
  }
  EXPECT_TRUE(query_scoped);
  // A ring snapshot is a QueryTrace away from chrome://tracing.
  obs::QueryTrace t;
  t.backend = "recorder";
  t.events = std::move(evs);
  EXPECT_TRUE(obs::ValidateChromeTraceJson(obs::ChromeTraceJson(t)).ok());
}

TEST(Recorder, DisabledRecorderLeavesTheSessionFullyFunctional) {
  SessionOptions so;
  so.flight_recorder = false;
  Fixture f(20000, so);
  EXPECT_EQ(f.db.recorder(), nullptr);
  auto r = f.db.Execute(f.Join2(), Opts(Backend::kThreads, 1, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(f.db.MetricsSnapshot().recorder.recorded, 0u);
}

// A kCluster query creates no thread of its own: its node workers and
// schedulers are roles its pooled bodies take. So a stream of wide
// cluster queries records through a bounded set of threads (the pool,
// the event loop, the lanes and this caller) and the session's ring pool
// never runs out.
TEST(Recorder, ClusterStreamRecordsThroughABoundedSetOfThreads) {
  SessionOptions so;
  so.max_concurrent_queries = 4;
  Fixture f(4000, so);
  std::vector<Query> queries(40, f.Join2());
  StreamReport sr = f.db.RunStream(queries, Opts(Backend::kCluster, 4, 3));
  ASSERT_EQ(sr.succeeded, queries.size());
  const obs::FlightRecorder::Stats rs = f.db.recorder()->stats();
  EXPECT_EQ(rs.dropped, 0u);
  const SchedulerStats ss = f.db.scheduler_stats();
  EXPECT_LE(rs.rings_claimed, f.db.pool_stats().pool_threads +
                                  ss.loop_threads + ss.lane_threads + 1);
}

TEST(Recorder, MetricsCarryRecorderCountersAndLoopHealthGauges) {
  Fixture f;
  ExecOptions o = Opts(Backend::kThreads, 1, 2);
  o.deadline_ms = 60000;  // arms the timer wheel without ever firing
  ASSERT_TRUE(f.db.Execute(f.Join2(), o).ok());
  SessionMetrics m = f.db.MetricsSnapshot();
  EXPECT_GT(m.recorder.recorded, 0u);
  EXPECT_GT(m.recorder.rings, 0u);
  std::string json = m.ToJson();
  for (const char* key :
       {"\"loop_max_queue_depth\"", "\"timer_slip_total_ns\"",
        "\"timer_slip_max_ns\"", "\"loop_lag_p50_ms\"", "\"loop_lag_p99_ms\"",
        "\"recorder\"", "\"recorded\"", "\"rings_claimed\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// ---------------------------------------------------------------------------
// Plan-point capture

TEST(Capture, CapturePointRequiresTheChainFormAndARealBackend) {
  Fixture f;
  // Graph form: no chain points to capture at.
  Query graph =
      f.db.NewQuery().Join(f.fact, f.d1).CapturePoint("x").Build();
  auto r = f.db.Execute(graph, Opts(Backend::kThreads, 1, 2));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("CapturePoint"), std::string::npos);
  // The simulated backend has no rows to sample.
  auto r2 = f.db.Execute(
      f.db.NewQuery().Scan(f.fact).CapturePoint("scan").Probe(f.d1, 1, 0)
          .Build(),
      Opts(Backend::kSimulated, 1, 2));
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("capture"), std::string::npos);
}

TEST(Capture, PlanPointSamplesMatchTheReferenceOnBothRealBackends) {
  // The same sample must come back from the threads backend, the cluster
  // backend and (via validate) the single-threaded reference — the
  // bottom-k rule is order- and backend-independent.
  std::vector<obs::CaptureResult> threads_caps;
  for (Backend b : {Backend::kThreads, Backend::kCluster}) {
    SCOPED_TRACE(b == Backend::kThreads ? "threads" : "cluster");
    Fixture f;
    Query q = f.db.NewQuery()
                  .Scan(f.fact)
                  .CapturePoint("scan")
                  .Probe(f.d1, 1, 0)
                  .CapturePoint("after_d1")
                  .Probe(f.d2, 2, 0)
                  .CapturePoint("after_d2")
                  .Build();
    ExecOptions o = Opts(b, b == Backend::kCluster ? 2 : 1, 2);
    o.validate = true;
    auto r = f.db.Execute(q, o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ExecutionReport& rep = r.value();
    EXPECT_TRUE(rep.validated);
    EXPECT_TRUE(rep.reference_match);
    ASSERT_EQ(rep.captures.size(), 3u);
    EXPECT_TRUE(rep.captures_match);
    EXPECT_EQ(rep.captures[0].name, "scan");
    EXPECT_EQ(rep.captures[0].point, 0u);
    EXPECT_EQ(rep.captures[1].name, "after_d1");
    EXPECT_EQ(rep.captures[1].point, 1u);
    EXPECT_EQ(rep.captures[2].point, 2u);
    for (const obs::CaptureResult& c : rep.captures) {
      EXPECT_GT(c.offered, 0u);
      EXPECT_GT(c.width, 0u);
      EXPECT_LE(c.rows.size(), 64u);  // SessionOptions::capture_rows
      EXPECT_FALSE(c.rows.empty());
    }
    // Join outputs widen left-to-right along the chain.
    EXPECT_GT(rep.captures[2].width, rep.captures[0].width);
    if (b == Backend::kThreads) {
      threads_caps = rep.captures;
    } else {
      // Cross-backend: cluster retained byte-identical samples.
      ASSERT_EQ(threads_caps.size(), rep.captures.size());
      for (size_t i = 0; i < rep.captures.size(); ++i) {
        EXPECT_TRUE(rep.captures[i].SameRows(threads_caps[i])) << i;
      }
    }
  }
}

TEST(Capture, SampleSizeFollowsSessionOptionsCaptureRows) {
  SessionOptions so;
  so.capture_rows = 5;
  Fixture f(20000, so);
  Query q =
      f.db.NewQuery().Scan(f.fact).CapturePoint("scan").Probe(f.d1, 1, 0)
          .Build();
  auto r = f.db.Execute(q, Opts(Backend::kThreads, 1, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().captures.size(), 1u);
  EXPECT_EQ(r.value().captures[0].rows.size(), 5u);
  EXPECT_GT(r.value().captures[0].offered, 5u);
}

// ---------------------------------------------------------------------------
// Forensic bundles

void CheckBundle(const fs::path& dir, bool expect_plan) {
  SCOPED_TRACE(dir.string());
  std::string flight = ReadFile(dir / "flight.json");
  ASSERT_FALSE(flight.empty());
  EXPECT_TRUE(obs::ValidateChromeTraceJson(flight).ok());
  EXPECT_TRUE(fs::exists(dir / "metrics.json"));
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  if (expect_plan) EXPECT_TRUE(fs::exists(dir / "plan.json"));
  std::string manifest = ReadFile(dir / "manifest.json");
  EXPECT_NE(manifest.find("\"reason\""), std::string::npos);
  EXPECT_NE(manifest.find("\"files\""), std::string::npos);
}

TEST(Forensics, MidRunDeadlineMissWritesAValidBundle) {
  ScratchDir scratch("deadline");
  SessionOptions so;
  so.forensics_dir = scratch.str();
  // A deadline well inside one thread's measured run: the timer fires
  // mid-run, the executor stops cooperatively and the lane reports
  // DeadlineExceeded — the canonical anomaly.
  Fixture f(2000000, so);
  ExecOptions o = Opts(Backend::kThreads, 1, 1);
  o.deadline_ms = test::DeadlineInsideRun(f.db, f.Join2(), o);
  auto r = f.db.Execute(f.Join2(), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  std::vector<fs::path> bundles = BundleDirs(scratch.path);
  ASSERT_EQ(bundles.size(), 1u);
  CheckBundle(bundles[0], /*expect_plan=*/true);
  // The black box caught the deadline lifecycle.
  std::string flight = ReadFile(bundles[0] / "flight.json");
  EXPECT_NE(flight.find("\"deadline_arm\""), std::string::npos);
  EXPECT_NE(flight.find("\"deadline_fire\""), std::string::npos);
}

TEST(Forensics, ExplicitDumpWorksAnytimeAndIgnoresTheBundleCap) {
  ScratchDir scratch("manual");
  SessionOptions so;
  so.forensics_dir = scratch.str();
  so.forensics_max_bundles = 0;  // automatic dumps fully disabled
  Fixture f(20000, so);
  ASSERT_TRUE(f.db.Execute(f.Join2(), Opts(Backend::kThreads, 1, 2)).ok());
  auto dump = f.db.DumpForensics("operator_requested");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  CheckBundle(fs::path(dump.value()), /*expect_plan=*/false);
  EXPECT_NE(ReadFile(fs::path(dump.value()) / "manifest.json")
                .find("operator_requested"),
            std::string::npos);
  // Without a forensics_dir the call is a typed error, not a crash.
  Session bare;
  auto none = bare.DumpForensics();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Forensics, AutomaticBundlesStopAtTheCap) {
  ScratchDir scratch("cap");
  SessionOptions so;
  so.forensics_dir = scratch.str();
  so.forensics_max_bundles = 2;
  Fixture f(2000000, so);
  ExecOptions o = Opts(Backend::kThreads, 1, 1);
  o.deadline_ms = test::DeadlineInsideRun(f.db, f.Join2(), o);
  for (int i = 0; i < 4; ++i) {
    auto r = f.db.Execute(f.Join2(), o);
    ASSERT_FALSE(r.ok());
  }
  EXPECT_EQ(BundleDirs(scratch.path).size(), 2u);
}

// The chaos acceptance criterion: a fault-injected cluster stream with
// retries and the recorder armed produces a forensic bundle on the first
// retry/Unavailable automatically; its flight.json passes
// ValidateChromeTraceJson and its capture-point rows match the
// reference executor.
TEST(Forensics, ChaosStreamAutoDumpsValidBundlesWithMatchingCaptures) {
  ScratchDir scratch("chaos");
  SessionOptions so;
  so.forensics_dir = scratch.str();
  so.max_concurrent_queries = 2;
  Session db(so);
  RelId fact = db.AddTable(mt::MakeTable("fact", 20000, 3, 400, 7));
  RelId d1 = db.AddTable(mt::MakeTable("d1", 400, 2, 50, 8));
  RelId d2 = db.AddTable(mt::MakeTable("d2", 400, 2, 50, 9));
  Query q = db.NewQuery()
                .Scan(fact)
                .Probe(d1, 1, 0)
                .Probe(d2, 2, 0)
                .CapturePoint("after_d2")
                .Build();

  std::vector<QueryHandle> handles;
  for (uint32_t i = 0; i < 16; ++i) {
    ExecOptions o = Opts(Backend::kCluster, 2, 2);
    o.validate = true;
    o.liveness_timeout_ms = 150;
    fault::FaultPlan fp;
    fp.seed = 1000 + i;
    fp.drop_prob = 0.02;
    o.fault_plan = fp;
    o.max_retries = 2;
    o.retry_backoff_ms = 2.0;
    o.fallback_backend = Backend::kThreads;
    handles.push_back(db.Submit(q, o));
  }

  uint32_t anomalous = 0;
  for (QueryHandle& h : handles) {
    auto r = h.Take();
    if (!r.ok()) {
      // Typed failure after exhausting attempts — still an anomaly that
      // dumped a bundle.
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
          << r.status().ToString();
      ++anomalous;
      continue;
    }
    const ExecutionReport& rep = r.value().report;
    // Every success validated digest-identical to the clean reference,
    // and its plan-point sample matched row for row.
    EXPECT_TRUE(rep.validated);
    EXPECT_TRUE(rep.reference_match);
    ASSERT_EQ(rep.captures.size(), 1u);
    EXPECT_TRUE(rep.captures_match);
    EXPECT_EQ(rep.captures[0].name, "after_d2");
    if (rep.attempt > 0 || rep.fallback_used) {
      ++anomalous;
      // The first few anomalies got their bundle recorded on the report
      // (later ones may hit the session cap).
    }
  }
  // 2% message drop across 16 seeded cluster queries: retries are
  // statistically certain (and deterministic for these seeds).
  ASSERT_GT(anomalous, 0u);

  std::vector<fs::path> bundles = BundleDirs(scratch.path);
  ASSERT_FALSE(bundles.empty());
  EXPECT_LE(bundles.size(), 8u);  // default forensics_max_bundles
  for (const fs::path& b : bundles) {
    CheckBundle(b, /*expect_plan=*/true);
  }
  // The black box holds the chaos story: injected faults and retries.
  std::vector<obs::TraceEvent> evs = db.recorder()->Snapshot();
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kRetry));
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kFault) ||
              HasKind(evs, obs::EventKind::kFabricDrop));
}

// ---------------------------------------------------------------------------
// Tracing x chaos: fault instants survive the Chrome-trace exporter.

TEST(TraceChaos, FaultInstantsFromAnInjectedRunSurviveChromeExport) {
  // Run A: every fabric send delayed — faults fire during the winning
  // attempt, so its trace carries kFault instants.
  Fixture f;
  ExecOptions a = Opts(Backend::kCluster, 2, 2);
  a.trace = true;
  fault::FaultPlan delays;
  delays.seed = 5;
  delays.delay_prob = 1.0;
  delays.delay_us = 50;
  a.fault_plan = delays;
  auto ra = f.db.Execute(f.Join2(), a);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_NE(ra.value().trace, nullptr);
  EXPECT_GT(ra.value().faults_injected, 0u);
  EXPECT_TRUE(HasKind(ra.value().trace->events, obs::EventKind::kFault));
  std::string ja = obs::ChromeTraceJson(*ra.value().trace);
  EXPECT_TRUE(obs::ValidateChromeTraceJson(ja).ok());
  EXPECT_NE(ja.find("\"fault\""), std::string::npos);

  // Run B: node 1 stalls deterministically, liveness detection fails the
  // cluster attempt, and the fallback threads attempt wins — its trace
  // carries kRetry and kFallback instants.
  ExecOptions b = Opts(Backend::kCluster, 2, 2);
  b.trace = true;
  fault::FaultPlan stall;
  stall.seed = 6;
  stall.stall_node = 1;
  stall.stall_after_polls = 5;
  b.fault_plan = stall;
  b.liveness_timeout_ms = 100;
  b.fallback_backend = Backend::kThreads;
  auto rb = f.db.Execute(f.Join2(), b);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  const ExecutionReport& rep = rb.value();
  EXPECT_GT(rep.attempt, 0u);
  EXPECT_TRUE(rep.fallback_used);
  ASSERT_NE(rep.trace, nullptr);
  EXPECT_TRUE(HasKind(rep.trace->events, obs::EventKind::kRetry));
  EXPECT_TRUE(HasKind(rep.trace->events, obs::EventKind::kFallback));
  std::string jb = obs::ChromeTraceJson(*rep.trace);
  EXPECT_TRUE(obs::ValidateChromeTraceJson(jb).ok());
  EXPECT_NE(jb.find("\"retry\""), std::string::npos);
  EXPECT_NE(jb.find("\"fallback\""), std::string::npos);

  // The session black box saw both flights too.
  std::vector<obs::TraceEvent> evs = f.db.recorder()->Snapshot();
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kFault));
  EXPECT_TRUE(HasKind(evs, obs::EventKind::kFallback));
}

}  // namespace
}  // namespace hierdb::api
