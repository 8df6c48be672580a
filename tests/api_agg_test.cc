// Tests for the relational operator subsystem: scan-level Where filters
// and two-phase GROUP BY/aggregation, end-to-end through api::Session on
// all three backends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gtest/gtest.h"
#include "mt/agg.h"
#include "mt/row.h"

namespace hierdb::api {
namespace {

// A star chain with real data: fact(key, fk1, fk2, fk3) probing three
// dimensions d{1,2,3}(key, attr); dimension keys are dense and unique, so
// every probe matches exactly one row.
struct StarFixture {
  Session db;
  RelId fact, d1, d2, d3;

  explicit StarFixture(size_t fact_rows = 20000, uint64_t seed = 7,
                       SessionOptions so = {})
      : db(so) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 4, 500, seed));
    d1 = db.AddTable(mt::MakeTable("d1", 500, 2, 50, seed + 1));
    d2 = db.AddTable(mt::MakeTable("d2", 500, 2, 50, seed + 2));
    d3 = db.AddTable(mt::MakeTable("d3", 500, 2, 50, seed + 3));
  }

  QueryBuilder Joined() const {
    return db.NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Probe(
        d3, 3, 0);
  }

  /// The reporting query the acceptance criteria describe: a 3-join chain
  /// with a scan filter, grouped by a dimension attribute, with every
  /// aggregate function.
  Query Reporting() const {
    return Joined()
        .Where(fact, 1, CmpOp::kLt, 250)
        .GroupBy(d1, 1)
        .Count()
        .Agg(AggFn::kSum, fact, 0)
        .Agg(AggFn::kMin, fact, 0)
        .Agg(AggFn::kMax, fact, 0)
        .Agg(AggFn::kAvg, fact, 0)
        .Build();
  }
};

ExecOptions Opts(Backend backend, Strategy strategy, uint32_t nodes,
                 uint32_t threads) {
  ExecOptions o;
  o.backend = backend;
  o.strategy = strategy;
  o.nodes = nodes;
  o.threads_per_node = threads;
  o.seed = 3;
  o.validate = true;
  return o;
}

// The tentpole acceptance criterion: the 3-join + filter + GROUP BY query
// returns identical group/aggregate digests on kThreads and kCluster,
// matches the single-threaded reference aggregator, and completes on
// kSimulated with per-op end times for the new operators.
TEST(AggConsistency, FilteredGroupByAgreesAcrossAllBackends) {
  StarFixture fx;
  Query q = fx.Reporting();

  auto threads = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().aggregated);
  EXPECT_TRUE(threads.value().validated);
  EXPECT_TRUE(threads.value().reference_match);
  EXPECT_GT(threads.value().result_rows, 0u);
  EXPECT_LE(threads.value().result_rows, 50u);  // d1.attr in [0, 50)
  EXPECT_EQ(threads.value().agg_groups, threads.value().result_rows);
  EXPECT_GT(threads.value().agg_partials, 0u);
  EXPECT_GT(threads.value().rows_filtered, 0u);

  auto cluster =
      fx.db.Execute(q, Opts(Backend::kCluster, Strategy::kDP, 3, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_TRUE(cluster.value().reference_match);
  EXPECT_EQ(threads.value().result_rows, cluster.value().result_rows);
  EXPECT_EQ(threads.value().result_checksum, cluster.value().result_checksum);
  EXPECT_GT(cluster.value().agg_partials, 0u);
  // Partials repartition by group-key hash through tuple-batch shipping.
  EXPECT_GT(cluster.value().agg_repartition_bytes, 0u);

  auto sim = fx.db.Execute(q, Opts(Backend::kSimulated, Strategy::kDP, 2, 2));
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_GT(sim.value().response_ms, 0.0);
  bool saw_partial = false, saw_merge = false;
  for (size_t i = 0; i < sim.value().op_labels.size(); ++i) {
    if (sim.value().op_labels[i] == "AggPartial") {
      saw_partial = true;
      EXPECT_GT(sim.value().op_end_ms[i], 0.0);
    }
    if (sim.value().op_labels[i] == "AggMerge") {
      saw_merge = true;
      EXPECT_GT(sim.value().op_end_ms[i], 0.0);
    }
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_merge);
}

TEST(AggConsistency, EveryLocalStrategyProducesTheSameGroups) {
  StarFixture fx(8000);
  Query q = fx.Reporting();
  auto dp = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  auto fp = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kFP, 1, 4));
  auto sp = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kSP, 1, 4));
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  EXPECT_TRUE(dp.value().reference_match);
  EXPECT_TRUE(fp.value().reference_match);
  EXPECT_TRUE(sp.value().reference_match);
  EXPECT_EQ(dp.value().result_checksum, fp.value().result_checksum);
  EXPECT_EQ(dp.value().result_checksum, sp.value().result_checksum);
}

// Materialized aggregate rows match a naive aggregator written from
// scratch in the test (independent of the engine's reference path).
TEST(AggCorrectness, MaterializedRowsMatchNaiveAggregation) {
  StarFixture fx(5000);
  Query q = fx.Reporting();
  ExecOptions o = Opts(Backend::kThreads, Strategy::kDP, 1, 4);
  o.materialize = true;
  auto h = fx.db.Submit(q, o);
  auto got = h.Take();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const mt::Batch& rows = got.value().rows;
  ASSERT_EQ(rows.width(), 6u);  // group, count, sum, min, max, avg

  // Naive: join via the dense dimension keys, filter, group, aggregate.
  const mt::Table* fact = fx.db.table(fx.fact);
  const mt::Table* d1 = fx.db.table(fx.d1);
  struct Acc {
    int64_t count = 0, sum = 0;
    int64_t mn = INT64_MAX, mx = INT64_MIN;
  };
  std::map<int64_t, Acc> expect;
  for (size_t i = 0; i < fact->rows(); ++i) {
    const int64_t* row = fact->batch.row(i);
    if (!(row[1] < 250)) continue;
    int64_t group = d1->batch.at(static_cast<size_t>(row[1]), 1);
    Acc& a = expect[group];
    a.count += 1;
    a.sum += row[0];
    a.mn = std::min(a.mn, row[0]);
    a.mx = std::max(a.mx, row[0]);
  }
  ASSERT_EQ(rows.rows(), expect.size());
  for (size_t i = 0; i < rows.rows(); ++i) {
    const int64_t* r = rows.row(i);
    auto it = expect.find(r[0]);
    ASSERT_NE(it, expect.end()) << "unexpected group " << r[0];
    EXPECT_EQ(r[1], it->second.count);
    EXPECT_EQ(r[2], it->second.sum);
    EXPECT_EQ(r[3], it->second.mn);
    EXPECT_EQ(r[4], it->second.mx);
    EXPECT_EQ(r[5], it->second.sum / it->second.count);
  }
}

TEST(FilterCorrectness, AllPassPredicateChangesNothing) {
  StarFixture fx(6000);
  Query plain = fx.Joined().Build();
  Query filtered = fx.Joined().Where(fx.fact, 0, CmpOp::kGe, 0).Build();
  auto a = fx.db.Execute(plain, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  auto b =
      fx.db.Execute(filtered, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().result_rows, b.value().result_rows);
  EXPECT_EQ(a.value().result_checksum, b.value().result_checksum);
  EXPECT_EQ(b.value().rows_filtered, 0u);
  EXPECT_TRUE(b.value().reference_match);
}

TEST(FilterCorrectness, EmptyResultPredicate) {
  StarFixture fx(3000);
  Query q = fx.Joined().Where(fx.fact, 0, CmpOp::kLt, 0).Build();
  for (auto backend : {Backend::kThreads, Backend::kCluster}) {
    auto r = fx.db.Execute(
        q, Opts(backend, Strategy::kDP, backend == Backend::kCluster ? 2 : 1,
                2));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().has_result);
    EXPECT_EQ(r.value().result_rows, 0u);
    EXPECT_TRUE(r.value().reference_match);
    EXPECT_EQ(r.value().rows_filtered, 3000u);
  }
  // Aggregating an empty result yields zero groups on every backend.
  Query agg = fx.Joined()
                  .Where(fx.fact, 0, CmpOp::kLt, 0)
                  .GroupBy(fx.d1, 1)
                  .Count()
                  .Build();
  auto r = fx.db.Execute(agg, Opts(Backend::kThreads, Strategy::kDP, 1, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().result_rows, 0u);
  EXPECT_TRUE(r.value().reference_match);
}

TEST(FilterCorrectness, BuildSideFiltersApplyAndAgreeAcrossBackends) {
  StarFixture fx(6000);
  // Filter a dimension (a build side): only d1 rows with attr < 10.
  Query q = fx.Joined().Where(fx.d1, 1, CmpOp::kLt, 10).Build();
  auto t = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  auto c = fx.db.Execute(q, Opts(Backend::kCluster, Strategy::kDP, 2, 2));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(t.value().reference_match);
  EXPECT_TRUE(c.value().reference_match);
  EXPECT_EQ(t.value().result_checksum, c.value().result_checksum);
  EXPECT_GT(t.value().rows_filtered, 0u);
  EXPECT_LT(t.value().result_rows, 6000u);
}

TEST(AggForms, GlobalAggregateWithoutGroupBy) {
  StarFixture fx(4000);
  Query plain = fx.Joined().Build();
  Query q = fx.Joined().Count().Agg(AggFn::kSum, fx.fact, 0).Build();
  auto base = fx.db.Execute(plain, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  ASSERT_TRUE(base.ok());
  ExecOptions o = Opts(Backend::kThreads, Strategy::kDP, 1, 4);
  o.materialize = true;
  auto got = fx.db.Submit(q, o).Take();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().rows.rows(), 1u);  // one global group
  EXPECT_EQ(got.value().rows.at(0, 0),
            static_cast<int64_t>(base.value().result_rows));
  EXPECT_TRUE(got.value().report.reference_match);
}

TEST(AggForms, GroupByWithoutAggregatesIsDistinct) {
  StarFixture fx(4000);
  Query q = fx.Joined().GroupBy(fx.d2, 1).Build();
  auto t = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  auto c = fx.db.Execute(q, Opts(Backend::kCluster, Strategy::kDP, 3, 2));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(t.value().reference_match);
  EXPECT_GT(t.value().result_rows, 0u);
  EXPECT_LE(t.value().result_rows, 50u);
  EXPECT_EQ(t.value().result_checksum, c.value().result_checksum);
}

TEST(AggForms, GraphFormQueriesAggregateToo) {
  StarFixture fx(4000);
  Query q = fx.db.NewQuery()
                .JoinOn(fx.fact, 1, fx.d1, 0)
                .JoinOn(fx.fact, 2, fx.d2, 0)
                .Where(fx.fact, 3, CmpOp::kGe, 100)
                .GroupBy(fx.d1, 1)
                .Count()
                .Build();
  auto t = fx.db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t.value().reference_match);
  EXPECT_TRUE(t.value().aggregated);
  EXPECT_GT(t.value().result_rows, 0u);
}

// Aggregation under RunStream with the shared session pool: concurrent
// identical reporting queries all succeed with identical digests and the
// stream report accumulates the agg counters.
TEST(AggStreams, RunStreamWithSharedPool) {
  SessionOptions so;
  so.max_concurrent_queries = 4;
  so.pool_threads = 4;
  StarFixture fx(8000, 7, so);
  Query q = fx.Reporting();
  ExecOptions o = Opts(Backend::kThreads, Strategy::kDP, 1, 4);
  o.validate = false;
  std::vector<Query> queries(6, q);
  StreamReport sr = fx.db.RunStream(queries, o);
  EXPECT_EQ(sr.submitted, 6u);
  ASSERT_EQ(sr.succeeded, 6u);
  uint64_t checksum = 0, groups = 0;
  for (const auto& r : sr.results) {
    ASSERT_TRUE(r.ok());
    if (checksum == 0) {
      checksum = r.value().report.result_checksum;
      groups = r.value().report.result_rows;
    }
    EXPECT_EQ(r.value().report.result_checksum, checksum);
  }
  EXPECT_EQ(sr.agg_groups, 6u * groups);
  EXPECT_GT(sr.agg_partials, 0u);
  EXPECT_GT(sr.rows_filtered, 0u);
  EXPECT_NE(sr.ToString().find("groups="), std::string::npos);
}

// Cooperative cancellation reaches the aggregation phases: a huge
// group-per-row aggregation is cancelled mid-flight; the handle must
// complete promptly with Cancelled (or, losing the race, a full result).
TEST(AggCancel, CancelDuringAggregation) {
  SessionOptions so;
  so.max_concurrent_queries = 1;
  StarFixture fx(300000, 11, so);
  Query q = fx.Joined()
                .GroupBy(fx.fact, 0)  // dense key: one group per row
                .Count()
                .Agg(AggFn::kSum, fx.d3, 1)
                .Build();
  ExecOptions o = Opts(Backend::kThreads, Strategy::kDP, 1, 2);
  o.validate = false;
  QueryHandle h = fx.db.Submit(q, o);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  h.Cancel();
  auto got = h.Take();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
        << got.status().ToString();
  } else {
    // The query won the race; its result must still be complete.
    EXPECT_EQ(got.value().report.result_rows, 300000u);
  }
}

TEST(AggValidation, RejectsBadReferences) {
  StarFixture fx(1000);
  ExecOptions o = Opts(Backend::kThreads, Strategy::kDP, 1, 2);
  o.validate = false;

  // Where on a relation the query does not join.
  Session other;
  RelId stray = other.AddRelation("stray", 100);
  (void)stray;
  auto r1 = fx.db.Execute(
      fx.Joined().Where(99, 0, CmpOp::kEq, 1).Build(), o);
  EXPECT_FALSE(r1.ok());

  // Filter column out of range of the registered table.
  auto r2 = fx.db.Execute(
      fx.Joined().Where(fx.d1, 7, CmpOp::kEq, 1).Build(), o);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kOutOfRange);

  // GroupBy on an unjoined relation; Agg column out of range.
  auto r3 = fx.db.Execute(fx.Joined().GroupBy(99, 0).Count().Build(), o);
  EXPECT_FALSE(r3.ok());
  auto r4 = fx.db.Execute(
      fx.Joined().GroupBy(fx.d1, 1).Agg(AggFn::kSum, fx.fact, 9).Build(), o);
  EXPECT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kOutOfRange);
}

TEST(AggExplain, ShowsFiltersAndAggOperators) {
  StarFixture fx(1000);
  Query q = fx.Reporting();
  auto text = fx.db.Explain(q, Opts(Backend::kSimulated, Strategy::kDP, 2, 2));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("AggPartial"), std::string::npos);
  EXPECT_NE(text.value().find("AggMerge"), std::string::npos);
  EXPECT_NE(text.value().find("filter"), std::string::npos);
  EXPECT_NE(text.value().find("group by"), std::string::npos);
}

}  // namespace
}  // namespace hierdb::api
