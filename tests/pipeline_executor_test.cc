// Tests for the general multithreaded pipeline executor: plan validation,
// reference execution, and DP/FP/SP correctness against the reference
// across plan shapes, thread counts, skew, and scheduling options.

#include <algorithm>

#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "mt/row_table.h"

namespace hierdb::mt {
namespace {

std::vector<const Table*> Ptrs(const std::vector<Table>& tables) {
  std::vector<const Table*> out;
  for (const auto& t : tables) out.push_back(&t);
  return out;
}

// Small star-join fixture: fact(fk1, fk2, fk3) against three dims keyed on
// column 0. fk ranges equal dim sizes so every probe matches exactly once.
class StarFixture {
 public:
  explicit StarFixture(size_t fact_rows = 20000, size_t dim_rows = 500,
                       uint64_t seed = 7) {
    tables_.push_back(MakeTable("fact", fact_rows, 4,
                                static_cast<int64_t>(dim_rows), seed));
    for (int d = 0; d < 3; ++d) {
      tables_.push_back(MakeTable("dim" + std::to_string(d), dim_rows, 2,
                                  100, seed + 10 + d));
    }
    plan_ = MakeRightDeepPlan(0, {1, 2, 3}, {1, 2, 3});
  }

  const PipelinePlan& plan() const { return plan_; }
  std::vector<const Table*> tables() const { return Ptrs(tables_); }

 private:
  std::vector<Table> tables_;
  PipelinePlan plan_;
};

// --------------------------------------------------------------- rows ----

TEST(Row, BatchAppendAndAccess) {
  Batch b(3);
  int64_t r0[] = {1, 2, 3};
  int64_t r1[] = {4, 5, 6};
  b.AppendRow(r0);
  b.AppendRow(r1);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.at(1, 2), 6);
  EXPECT_EQ(b.row(0)[0], 1);
}

TEST(Row, AppendConcatJoinsFragments) {
  Batch b(5);
  int64_t a[] = {1, 2};
  int64_t c[] = {3, 4, 5};
  b.AppendConcat(a, 2, c, 3);
  EXPECT_EQ(b.rows(), 1u);
  EXPECT_EQ(b.at(0, 4), 5);
}

TEST(Row, DigestIsOrderIndependentAcrossRows) {
  int64_t r0[] = {1, 2};
  int64_t r1[] = {3, 4};
  ResultDigest a, b;
  a.Add(r0, 2);
  a.Add(r1, 2);
  b.Add(r1, 2);
  b.Add(r0, 2);
  EXPECT_EQ(a, b);
}

TEST(Row, DigestDistinguishesColumnPermutation) {
  int64_t r0[] = {1, 2};
  int64_t r1[] = {2, 1};
  EXPECT_NE(RowDigest(r0, 2), RowDigest(r1, 2));
}

TEST(Row, MakeTableIsDeterministic) {
  Table a = MakeTable("a", 100, 3, 50, 42);
  Table b = MakeTable("b", 100, 3, 50, 42);
  EXPECT_EQ(a.batch.data(), b.batch.data());
  Table c = MakeTable("c", 100, 3, 50, 43);
  EXPECT_NE(a.batch.data(), c.batch.data());
}

TEST(Row, MakeTableColumnZeroIsDenseKey) {
  Table t = MakeTable("t", 10, 2, 5, 1);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(t.batch.at(i, 0), static_cast<int64_t>(i));
  }
}

TEST(Row, SkewedTableConcentratesValues) {
  Table t = MakeSkewedTable("t", 10000, 2, 1000, 1, 1.0, 3);
  // Count hits on the most frequent value; under Zipf(1.0) over 1000
  // values the top value takes >> 1/1000 of the mass.
  std::vector<uint32_t> counts(1000, 0);
  for (size_t i = 0; i < t.rows(); ++i) {
    ++counts[static_cast<size_t>(t.batch.at(i, 1))];
  }
  uint32_t max = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max, 500u);  // uniform would give ~10
}

// ------------------------------------------------------------ row table --

TEST(RowTableTest, InsertAndMatch) {
  RowTable t(2, 0);
  int64_t r0[] = {5, 100};
  int64_t r1[] = {5, 200};
  int64_t r2[] = {6, 300};
  t.Insert(r0);
  t.Insert(r1);
  t.Insert(r2);
  int matches = 0;
  int64_t sum = 0;
  t.ForEachMatch(5, [&](const int64_t* row) {
    ++matches;
    sum += row[1];
  });
  EXPECT_EQ(matches, 2);
  EXPECT_EQ(sum, 300);
  t.ForEachMatch(7, [&](const int64_t*) { FAIL(); });
}

TEST(RowTableTest, GrowsPastRehash) {
  RowTable t(1, 0);
  for (int64_t k = 0; k < 1000; ++k) t.Insert(&k);
  for (int64_t k = 0; k < 1000; ++k) {
    int matches = 0;
    t.ForEachMatch(k, [&](const int64_t*) { ++matches; });
    EXPECT_EQ(matches, 1) << "key " << k;
  }
  EXPECT_EQ(t.rows(), 1000u);
}

TEST(RowTableTest, EmptyTableMatchesNothing) {
  RowTable t(2, 1);
  t.ForEachMatch(0, [&](const int64_t*) { FAIL(); });
  EXPECT_EQ(t.rows(), 0u);
}

// ------------------------------------------------------------ plans ------

TEST(Plan, ValidateAcceptsStarPlan) {
  StarFixture fx;
  EXPECT_TRUE(fx.plan().Validate(fx.tables()).ok());
}

TEST(Plan, ValidateRejectsBadTableIndex) {
  StarFixture fx;
  PipelinePlan plan = MakeRightDeepPlan(0, {9}, {1});
  EXPECT_FALSE(plan.Validate(fx.tables()).ok());
}

TEST(Plan, ValidateRejectsForwardChainReference) {
  StarFixture fx;
  PipelinePlan plan;
  Chain c0;
  c0.input = Source::OfChain(1);  // not yet produced
  plan.chains.push_back(c0);
  Chain c1;
  c1.input = Source::OfTable(0);
  plan.chains.push_back(c1);
  EXPECT_FALSE(plan.Validate(fx.tables()).ok());
}

TEST(Plan, ValidateRejectsBadProbeColumn) {
  StarFixture fx;
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {99});
  EXPECT_FALSE(plan.Validate(fx.tables()).ok());
}

TEST(Plan, ValidateRejectsEmptyPlan) {
  StarFixture fx;
  PipelinePlan plan;
  EXPECT_FALSE(plan.Validate(fx.tables()).ok());
}

TEST(Plan, OutputWidthAccumulates) {
  StarFixture fx;
  // fact(4) + 3 dims of width 2 each.
  EXPECT_EQ(fx.plan().OutputWidth(fx.tables(), 0), 10u);
}

TEST(Plan, MaterializedChainsMarksBuildSources) {
  Fig2Plan fig2 = MakeFig2BushyPlan(0, 1, 0, 1, 0, 2);
  auto mat = fig2.plan.MaterializedChains();
  ASSERT_EQ(mat.size(), 2u);
  EXPECT_TRUE(mat[0]);   // chain0 output probed by chain1
  EXPECT_FALSE(mat[1]);  // final chain
}

TEST(Plan, ToStringMentionsChains) {
  StarFixture fx;
  std::string s = fx.plan().ToString();
  EXPECT_NE(s.find("chain 0"), std::string::npos);
  EXPECT_NE(s.find("probe"), std::string::npos);
}

TEST(Plan, ReferenceCountsFkJoinExactly) {
  // Every fact row matches exactly one dim row per join, so the output
  // cardinality equals the fact cardinality.
  StarFixture fx(5000, 100);
  auto ref = ReferenceExecute(fx.plan(), fx.tables());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().count, 5000u);
}

TEST(Plan, ReferenceHandlesSelectiveJoin) {
  // fk range twice the dim size: half the fact rows match nothing.
  std::vector<Table> tables;
  tables.push_back(MakeTable("fact", 10000, 2, 200, 11));
  tables.push_back(MakeTable("dim", 100, 2, 10, 12));
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {1});
  auto ref = ReferenceExecute(plan, Ptrs(tables));
  ASSERT_TRUE(ref.ok());
  EXPECT_GT(ref.value().count, 3500u);
  EXPECT_LT(ref.value().count, 6500u);
}

TEST(Plan, ReferenceHandlesNToMJoin) {
  // Both sides have duplicate keys: output is the pairwise product per key.
  std::vector<Table> tables;
  Table l{"l", Batch(2)};
  Table r{"r", Batch(2)};
  // l: key 1 x3 rows; r: key 1 x4 rows -> 12 output rows.
  for (int64_t i = 0; i < 3; ++i) {
    int64_t row[] = {1, i};
    l.batch.AppendRow(row);
  }
  for (int64_t i = 0; i < 4; ++i) {
    int64_t row[] = {1, 100 + i};
    r.batch.AppendRow(row);
  }
  tables.push_back(std::move(l));
  tables.push_back(std::move(r));
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {0});
  auto ref = ReferenceExecute(plan, Ptrs(tables));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().count, 12u);
}

TEST(Plan, ReferenceMaterializeWidthMatches) {
  StarFixture fx(1000, 50);
  auto out = ReferenceMaterialize(fx.plan(), fx.tables());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().width(), 10u);
  EXPECT_EQ(out.value().rows(), 1000u);
}

// ----------------------------------------------- executor correctness ----

PipelineOptions Opts(LocalStrategy s, uint32_t threads) {
  PipelineOptions o;
  o.threads = threads;
  o.buckets = 64;
  o.morsel_rows = 1000;
  o.batch_rows = 128;
  o.queue_capacity = 16;
  o.strategy = s;
  return o;
}

TEST(Executor, DPMatchesReferenceOnStarJoin) {
  StarFixture fx;
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  PipelineExecutor exec(Opts(LocalStrategy::kDP, 4));
  PipelineStats stats;
  auto got = exec.Execute(fx.plan(), fx.tables(), &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  EXPECT_GT(stats.data_activations, 0u);
  EXPECT_GT(stats.morsels, 0u);
}

TEST(Executor, FPMatchesReferenceOnStarJoin) {
  StarFixture fx;
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  PipelineExecutor exec(Opts(LocalStrategy::kFP, 4));
  auto got = exec.Execute(fx.plan(), fx.tables());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

TEST(Executor, SPMatchesReferenceOnStarJoin) {
  StarFixture fx;
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  PipelineExecutor exec(Opts(LocalStrategy::kSP, 4));
  PipelineStats stats;
  auto got = exec.Execute(fx.plan(), fx.tables(), &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  // SP queues nothing: every hand-off is a procedure call in the slot
  // that produced the rows.
  EXPECT_EQ(stats.batches_emitted, 0u);
  EXPECT_EQ(stats.escapes, 0u);
  EXPECT_EQ(stats.nonprimary, 0u);
  EXPECT_GT(stats.morsels, 0u);
  ASSERT_FALSE(stats.rows_per_chain.empty());
  EXPECT_EQ(stats.rows_per_chain.back(), ref.count);
}

TEST(Executor, BushyFig2PlanAllStrategies) {
  // Figure 2 shape: (R ⋈ S) fed as build side of the second chain.
  std::vector<Table> tables;
  tables.push_back(MakeTable("R", 300, 2, 50, 1));    // R(key, attr)
  tables.push_back(MakeTable("S", 4000, 2, 300, 2));  // S(key, fk->R)
  tables.push_back(MakeTable("T", 200, 2, 50, 3));    // T(key, attr)
  tables.push_back(MakeTable("U", 5000, 3, 200, 4));  // U(key, fk->T, fk2)
  // chain1 probes chain0's output on its S-key column (width(R)=2, so
  // chain0 output columns are [R.key, R.attr, S.key, S.fk]; S.key is col 2).
  Fig2Plan fig2 = MakeFig2BushyPlan(/*r_key_col=*/0, /*s_fk_col=*/1,
                                    /*t_key_col=*/0, /*u_fk_col=*/1,
                                    /*chain0_out_col=*/2, /*u_fk2_col=*/2);
  // U.fk2 ranges over [0,200) but S keys range to 4000 — rescale U.fk2 to
  // S's key domain so the join is meaningful: regenerate with fk_range
  // matched. Simpler: U.fk2 in [0,200) matches S keys 0..199.
  auto tablev = Ptrs(tables);
  ASSERT_TRUE(fig2.plan.Validate(tablev).ok());
  auto ref = ReferenceExecute(fig2.plan, tablev).ValueOrDie();
  EXPECT_GT(ref.count, 0u);
  for (LocalStrategy s :
       {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
    PipelineExecutor exec(Opts(s, 4));
    auto got = exec.Execute(fig2.plan, tablev);
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s);
    EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
  }
}

// A bushy plan whose final chain probes chain0's output (S ⋈ R, columns
// [S.key, S.fk, R.key, R.attr]) on column `out_col`: S.key (0) is unique
// and dense, so that chain-output build takes the direct-address index
// like the base-table builds; S.fk (1) repeats, so it keeps the chained
// tables. Every strategy returns the reference digest either way.
TEST(DenseProbe, ChainOutputBuildOnBothSidesOfTheDecision) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("R", 300, 2, 50, 1));    // R(key, attr)
  tables.push_back(MakeTable("S", 4000, 2, 300, 2));  // S(key, fk->R)
  tables.push_back(MakeTable("T", 200, 2, 50, 3));    // T(key, attr)
  tables.push_back(MakeTable("U", 5000, 3, 200, 4));  // U(key, fk->T, fk2)
  const auto tablev = Ptrs(tables);
  for (uint32_t out_col : {0u, 1u}) {
    PipelinePlan plan;
    Chain c0;
    c0.input = Source::OfTable(1);
    c0.joins.push_back({Source::OfTable(0), 1, 0});
    Chain fin;
    fin.input = Source::OfTable(3);
    fin.joins.push_back({Source::OfTable(2), 1, 0});
    fin.joins.push_back({Source::OfChain(0), 2, out_col});
    plan.chains.push_back(std::move(c0));
    plan.chains.push_back(std::move(fin));
    ASSERT_TRUE(plan.Validate(tablev).ok());
    auto ref = ReferenceExecute(plan, tablev).ValueOrDie();
    EXPECT_GT(ref.count, 0u);
    for (LocalStrategy s :
         {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
      SCOPED_TRACE(std::string(LocalStrategyName(s)) + " column " +
                   std::to_string(out_col));
      PipelineStats stats;
      auto got = PipelineExecutor(Opts(s, 4)).Execute(plan, tablev, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), ref);
      EXPECT_GT(stats.direct_probes, 0u);
      if (out_col == 0) {
        EXPECT_EQ(stats.chained_probes, 0u);
      } else {
        EXPECT_GT(stats.chained_probes, 0u);
      }
    }
  }
}

TEST(Executor, PureScanChainDigestsInput) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("t", 5000, 3, 10, 5));
  PipelinePlan plan;
  Chain c;
  c.input = Source::OfTable(0);
  plan.chains.push_back(c);
  auto ref = ReferenceExecute(plan, Ptrs(tables)).ValueOrDie();
  EXPECT_EQ(ref.count, 5000u);
  PipelineExecutor exec(Opts(LocalStrategy::kDP, 3));
  auto got = exec.Execute(plan, Ptrs(tables));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
}

TEST(Executor, EmptyFactProducesEmptyResult) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("fact", 0, 2, 10, 1));
  tables.push_back(MakeTable("dim", 100, 2, 10, 2));
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {1});
  PipelineExecutor exec(Opts(LocalStrategy::kDP, 4));
  auto got = exec.Execute(plan, Ptrs(tables));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().count, 0u);
}

TEST(Executor, EmptyBuildSideProducesEmptyResult) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("fact", 1000, 2, 10, 1));
  tables.push_back(MakeTable("dim", 0, 2, 10, 2));
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {1});
  for (LocalStrategy s :
       {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
    PipelineExecutor exec(Opts(s, 4));
    auto got = exec.Execute(plan, Ptrs(tables));
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s);
    EXPECT_EQ(got.value().count, 0u) << LocalStrategyName(s);
  }
}

TEST(Executor, SingleThreadWorks) {
  StarFixture fx(5000, 100);
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  for (LocalStrategy s :
       {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
    PipelineExecutor exec(Opts(s, 1));
    auto got = exec.Execute(fx.plan(), fx.tables());
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s);
    EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
  }
}

TEST(Executor, SkewedProbeColumnStillCorrect) {
  std::vector<Table> tables;
  tables.push_back(MakeSkewedTable("fact", 30000, 2, 200, 1, 0.9, 21));
  tables.push_back(MakeTable("dim", 200, 2, 10, 22));
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {1});
  auto ref = ReferenceExecute(plan, Ptrs(tables)).ValueOrDie();
  for (LocalStrategy s :
       {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
    PipelineExecutor exec(Opts(s, 8));
    auto got = exec.Execute(plan, Ptrs(tables));
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s);
    EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
  }
}

TEST(Executor, ConcurrentChainsWithH1H2Disabled) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("R", 300, 2, 50, 1));
  tables.push_back(MakeTable("S", 4000, 2, 300, 2));
  tables.push_back(MakeTable("T", 200, 2, 50, 3));
  tables.push_back(MakeTable("U", 5000, 3, 200, 4));
  Fig2Plan fig2 = MakeFig2BushyPlan(0, 1, 0, 1, 2, 2);
  auto tablev = Ptrs(tables);
  auto ref = ReferenceExecute(fig2.plan, tablev).ValueOrDie();
  // SP keeps H1 whatever the option says: its scans call into probes.
  for (LocalStrategy s :
       {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
    PipelineOptions o = Opts(s, 4);
    o.apply_h1 = false;
    o.apply_h2 = false;
    PipelineExecutor exec(o);
    auto got = exec.Execute(fig2.plan, tablev);
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s);
    EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
  }
}

TEST(Executor, FPWithDistortedCostsStillCorrect) {
  StarFixture fx(10000, 200);
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  PipelineOptions o = Opts(LocalStrategy::kFP, 6);
  o.fp_cost_distortion.assign(CompiledOpCount(fx.plan()), 1.0);
  // Grossly misestimate: first op 10x, last op 0.1x.
  o.fp_cost_distortion.front() = 10.0;
  o.fp_cost_distortion.back() = 0.1;
  PipelineExecutor exec(o);
  auto got = exec.Execute(fx.plan(), fx.tables());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
}

TEST(Executor, FPDistortionSizeMismatchRejected) {
  StarFixture fx(100, 10);
  PipelineOptions o = Opts(LocalStrategy::kFP, 2);
  o.fp_cost_distortion = {1.0, 2.0};  // wrong size
  PipelineExecutor exec(o);
  auto got = exec.Execute(fx.plan(), fx.tables());
  EXPECT_FALSE(got.ok());
}

TEST(Executor, CompiledOpCountFormula) {
  StarFixture fx;
  // 1 chain, 3 joins: 3 buildscans + 3 builds + 1 scan + 3 probes = 10.
  EXPECT_EQ(CompiledOpCount(fx.plan()), 10u);
  Fig2Plan fig2 = MakeFig2BushyPlan(0, 1, 0, 1, 2, 2);
  // chain0: 1 join -> 4 ops; chain1: 2 joins -> 7 ops.
  EXPECT_EQ(CompiledOpCount(fig2.plan), 11u);
}

TEST(Executor, TinyQueuesExerciseFlowControl) {
  StarFixture fx(30000, 300);
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  PipelineOptions o = Opts(LocalStrategy::kDP, 4);
  o.queue_capacity = 2;
  o.batch_rows = 32;
  PipelineExecutor exec(o);
  PipelineStats stats;
  auto got = exec.Execute(fx.plan(), fx.tables(), &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
  EXPECT_GT(stats.escapes, 0u);  // flow control must have engaged
}

TEST(Executor, DPImbalanceStaysModestUnderSkew) {
  std::vector<Table> tables;
  // Large enough that the run outlasts several OS time slices: on a
  // loaded host, a run of a few ms can finish on whichever one thread
  // the scheduler happened to give the CPU.
  tables.push_back(MakeSkewedTable("fact", 600000, 2, 400, 1, 1.0, 31));
  tables.push_back(MakeTable("dim", 400, 2, 10, 32));
  PipelinePlan plan = MakeRightDeepPlan(0, {1}, {1});
  PipelineOptions o = Opts(LocalStrategy::kDP, 4);
  o.buckets = 256;  // high fragmentation absorbs skew (Section 3.1)
  PipelineExecutor exec(o);
  PipelineStats stats;
  auto got = exec.Execute(plan, Ptrs(tables), &stats);
  ASSERT_TRUE(got.ok());
  // On a multi-core host DP keeps activation counts near-even under
  // skew; on a time-sliced single-core host the OS scheduler, not the
  // strategy, decides how many activations each thread gets to run, so
  // the bound must stay conservative: no thread may have done (almost)
  // all the work alone.
  uint32_t active_threads = 0;
  for (uint64_t b : stats.busy_per_thread) active_threads += b > 0;
  EXPECT_GE(active_threads, 2u);
  EXPECT_LT(stats.Imbalance(), 3.5);  // 4.0 = one thread did everything
}

TEST(Executor, StatsCountBusyPerThread) {
  StarFixture fx;
  PipelineExecutor exec(Opts(LocalStrategy::kDP, 3));
  PipelineStats stats;
  ASSERT_TRUE(exec.Execute(fx.plan(), fx.tables(), &stats).ok());
  ASSERT_EQ(stats.busy_per_thread.size(), 3u);
  uint64_t total = 0;
  for (uint64_t b : stats.busy_per_thread) total += b;
  EXPECT_EQ(total, stats.morsels + stats.data_activations);
}

TEST(Executor, InvalidPlanRejectedBeforeRunning) {
  StarFixture fx;
  PipelinePlan bad = MakeRightDeepPlan(0, {99}, {1});
  PipelineExecutor exec(Opts(LocalStrategy::kDP, 2));
  EXPECT_FALSE(exec.Execute(bad, fx.tables()).ok());
}

// Data activations carry up to batch_rows rows whatever their buckets, so
// raising the build fragmentation must not multiply them (re-scattering
// every probe's output B ways made the count grow with B). Build inserts
// still scale with the buckets a build touches, so the dimensions stay
// small next to the fact stream.
TEST(Executor, DataActivationsDoNotGrowWithBuckets) {
  StarFixture fx(60000, 64);
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  const uint32_t buckets[2] = {16, 256};
  uint64_t acts[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    PipelineOptions o = Opts(LocalStrategy::kDP, 4);
    o.buckets = buckets[i];
    o.batch_rows = 64;
    PipelineExecutor exec(o);
    PipelineStats stats;
    auto got = exec.Execute(fx.plan(), fx.tables(), &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << "buckets=" << buckets[i];
    acts[i] = stats.data_activations;
  }
  const uint64_t lo = std::min(acts[0], acts[1]);
  const uint64_t hi = std::max(acts[0], acts[1]);
  EXPECT_LE(static_cast<double>(hi), 1.1 * static_cast<double>(lo))
      << "buckets=16: " << acts[0] << ", buckets=256: " << acts[1];
}

// Property sweep: all strategies x thread counts x bucket counts x
// data-activation sizes agree with the reference on a moderately sized
// star join. 100 buckets is the non-power-of-two case of the chain-slot
// rule (mt/hash.h SlotOf).
class StrategySweep
    : public ::testing::TestWithParam<
          std::tuple<LocalStrategy, uint32_t, uint32_t, uint32_t>> {};

TEST_P(StrategySweep, MatchesReference) {
  auto [strategy, threads, buckets, batch_rows] = GetParam();
  StarFixture fx(15000, 250, /*seed=*/threads * 100 + buckets);
  auto ref = ReferenceExecute(fx.plan(), fx.tables()).ValueOrDie();
  PipelineOptions o = Opts(strategy, threads);
  o.buckets = buckets;
  o.batch_rows = batch_rows;
  PipelineExecutor exec(o);
  auto got = exec.Execute(fx.plan(), fx.tables());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategySweep,
    ::testing::Combine(::testing::Values(LocalStrategy::kDP,
                                         LocalStrategy::kFP,
                                         LocalStrategy::kSP),
                       ::testing::Values<uint32_t>(1, 2, 4, 8),
                       ::testing::Values<uint32_t>(1, 64, 100, 512),
                       ::testing::Values<uint32_t>(1, 1024)));

}  // namespace
}  // namespace hierdb::mt
