// Tests for the unified hierdb::api::Session façade: one backend-neutral
// query bridged to the simulator, the real-thread executor and the
// cluster executor, with normalized reports and Explain output.

#include "api/session.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "mt/row.h"

namespace hierdb::api {
namespace {

// A session holding real data for a 3-join star chain:
// fact(key, fk1, fk2, fk3) probing three dimension tables on their keys.
struct StarFixture {
  Session db;
  RelId fact, d1, d2, d3;
  Query query;

  explicit StarFixture(size_t fact_rows = 20000, uint64_t seed = 7) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 4, 500, seed));
    d1 = db.AddTable(mt::MakeTable("d1", 500, 2, 50, seed + 1));
    d2 = db.AddTable(mt::MakeTable("d2", 500, 2, 50, seed + 2));
    d3 = db.AddTable(mt::MakeTable("d3", 500, 2, 50, seed + 3));
    query = db.NewQuery()
                .Scan(fact)
                .Probe(d1, 1, 0)
                .Probe(d2, 2, 0)
                .Probe(d3, 3, 0)
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

// The satellite requirement: one 3-join query through the Session on all
// three backends; threads and cluster must produce the identical result
// multiset, and the simulated run must complete with per-operator end
// times and tuple conservation (checked inside the engine).
TEST(SessionConsistency, ThreeJoinQueryAcrossAllBackends) {
  StarFixture fx;

  auto threads =
      fx.db.Execute(fx.query, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().has_result);
  EXPECT_TRUE(threads.value().validated);
  EXPECT_TRUE(threads.value().reference_match);
  EXPECT_GT(threads.value().result_rows, 0u);

  auto cluster =
      fx.db.Execute(fx.query, Opts(Backend::kCluster, Strategy::kDP, 3, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_TRUE(cluster.value().reference_match);

  // Identical result multiset across the two real backends.
  EXPECT_EQ(threads.value().result_rows, cluster.value().result_rows);
  EXPECT_EQ(threads.value().result_checksum,
            cluster.value().result_checksum);

  // Simulated run completes; conservation is verified by the engine before
  // it returns OK, and every operator reports a positive end time.
  auto sim =
      fx.db.Execute(fx.query, Opts(Backend::kSimulated, Strategy::kDP, 2, 2));
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_GT(sim.value().response_ms, 0.0);
  EXPECT_GT(sim.value().tuples, 0u);
  ASSERT_FALSE(sim.value().op_end_ms.empty());
  for (double end : sim.value().op_end_ms) EXPECT_GT(end, 0.0);
  ASSERT_TRUE(sim.value().sim.has_value());
  EXPECT_EQ(sim.value().op_end_ms.size(), sim.value().sim->op_end_time.size());
}

TEST(SessionConsistency, StrategiesAgreeOnRealBackends) {
  StarFixture fx(8000);
  uint64_t rows = 0, checksum = 0;
  bool first = true;
  for (Strategy s : {Strategy::kDP, Strategy::kFP, Strategy::kSP}) {
    auto got = fx.db.Execute(fx.query, Opts(Backend::kThreads, s, 1, 3));
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": "
                          << got.status().ToString();
    if (first) {
      rows = got.value().result_rows;
      checksum = got.value().result_checksum;
      first = false;
    } else {
      EXPECT_EQ(got.value().result_rows, rows) << StrategyName(s);
      EXPECT_EQ(got.value().result_checksum, checksum) << StrategyName(s);
    }
  }
  auto fp =
      fx.db.Execute(fx.query, Opts(Backend::kCluster, Strategy::kFP, 2, 2));
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  EXPECT_EQ(fp.value().result_rows, rows);
  EXPECT_EQ(fp.value().result_checksum, checksum);
}

// Graph-form query over catalog-only relations: the paper's methodology.
// The simulator runs the optimized plan; the real backends synthesize
// tables tracking the catalog cardinalities.
TEST(SessionGraphForm, CatalogOnlyRelationsRunEverywhere) {
  Session db;
  auto r = db.AddRelation("R", 20000);
  auto s = db.AddRelation("S", 80000);
  auto t = db.AddRelation("T", 40000);
  auto u = db.AddRelation("U", 160000);
  Query q = db.NewQuery().Join(r, s).Join(s, t).Join(t, u).Build();

  auto sim = db.Execute(q, Opts(Backend::kSimulated, Strategy::kDP, 2, 4));
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_GT(sim.value().tuples, 0u);

  ExecOptions to = Opts(Backend::kThreads, Strategy::kDP, 1, 4);
  to.bind_scale = 0.05;
  auto threads = db.Execute(q, to);
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().reference_match);
  EXPECT_GT(threads.value().result_rows, 0u);

  ExecOptions co = Opts(Backend::kCluster, Strategy::kDP, 2, 2);
  co.bind_scale = 0.05;
  auto cl = db.Execute(q, co);
  ASSERT_TRUE(cl.ok()) << cl.status().ToString();
  EXPECT_TRUE(cl.value().reference_match);
  // Same seed => same synthesized tables => identical results.
  EXPECT_EQ(cl.value().result_rows, threads.value().result_rows);
  EXPECT_EQ(cl.value().result_checksum, threads.value().result_checksum);
}

// Graph-form query with explicit join columns over registered tables must
// run on the registered rows (not synthesized data).
TEST(SessionGraphForm, ExplicitColumnsUseRegisteredTables) {
  Session db;
  auto fact = db.AddTable(mt::MakeTable("fact", 5000, 3, 200, 11));
  auto d1 = db.AddTable(mt::MakeTable("d1", 200, 2, 40, 12));
  auto d2 = db.AddTable(mt::MakeTable("d2", 200, 2, 40, 13));
  Query q = db.NewQuery()
                .JoinOn(fact, 1, d1, 0)
                .JoinOn(fact, 2, d2, 0)
                .Build();

  auto got = db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 2));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().reference_match);
  // Every fact row matches exactly one row in each dimension (FK in range),
  // so the join output has exactly |fact| rows — proof the registered rows
  // were used.
  EXPECT_EQ(got.value().result_rows, 5000u);
}

TEST(SessionExplain, RendersTreeChainsAndBridges) {
  StarFixture fx(2000);
  auto text =
      fx.db.Explain(fx.query, Opts(Backend::kCluster, Strategy::kDP, 2, 2));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string& s = text.value();
  EXPECT_NE(s.find("join tree"), std::string::npos) << s;
  EXPECT_NE(s.find("fact"), std::string::npos) << s;
  EXPECT_NE(s.find("parallel execution plan"), std::string::npos) << s;
  EXPECT_NE(s.find("pipeline plan"), std::string::npos) << s;
  EXPECT_NE(s.find("cluster"), std::string::npos) << s;
  EXPECT_NE(s.find("DP"), std::string::npos) << s;
}

TEST(SessionExplain, GraphFormShowsChainDecomposition) {
  Session db;
  auto a = db.AddRelation("alpha", 30000);
  auto b = db.AddRelation("beta", 10000);
  auto c = db.AddRelation("gamma", 60000);
  Query q = db.NewQuery().Join(a, b).Join(b, c).Build();
  auto text = db.Explain(q, Opts(Backend::kSimulated, Strategy::kFP, 1, 4));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("alpha"), std::string::npos) << text.value();
  EXPECT_NE(text.value().find("chain"), std::string::npos) << text.value();
  EXPECT_NE(text.value().find("FP"), std::string::npos) << text.value();
}

TEST(SessionValidation, RejectsBadOptionsAndQueries) {
  StarFixture fx(1000);
  // SP is shared-memory only.
  EXPECT_FALSE(
      fx.db.Execute(fx.query, Opts(Backend::kSimulated, Strategy::kSP, 2, 2))
          .ok());
  // Explain shares the option validation: it must not render a plan for a
  // machine shape Execute would reject.
  EXPECT_FALSE(
      fx.db.Explain(fx.query, Opts(Backend::kSimulated, Strategy::kSP, 2, 2))
          .ok());
  EXPECT_FALSE(
      fx.db.Execute(fx.query, Opts(Backend::kCluster, Strategy::kSP, 1, 2))
          .ok());
  // Threads backend is one SM-node.
  EXPECT_FALSE(
      fx.db.Execute(fx.query, Opts(Backend::kThreads, Strategy::kDP, 2, 2))
          .ok());
  // Empty query.
  EXPECT_FALSE(fx.db.Execute(Query(),
                             Opts(Backend::kSimulated, Strategy::kDP, 1, 2))
                   .ok());
  // Unknown relation id.
  Session db2;
  auto only = db2.AddRelation("only", 100);
  Query bad = db2.NewQuery().Join(only, only + 7).Build();
  EXPECT_FALSE(
      db2.Execute(bad, Opts(Backend::kSimulated, Strategy::kDP, 1, 2)).ok());
  // Chain query without registered data cannot run on real backends...
  Query cat_chain = db2.NewQuery().Scan(only).Probe(only, 0, 0).Build();
  EXPECT_FALSE(
      db2.Execute(cat_chain, Opts(Backend::kThreads, Strategy::kDP, 1, 2))
          .ok());
  // Probe without Scan.
  Query no_scan = fx.db.NewQuery().Probe(fx.d1, 1, 0).Build();
  EXPECT_FALSE(
      fx.db.Execute(no_scan, Opts(Backend::kThreads, Strategy::kDP, 1, 2))
          .ok());
  // Malformed explicit tree (default-constructed, root = -1).
  Query bad_tree =
      db2.NewQuery().Join(only, only).Tree(plan::JoinTree{}).Build();
  EXPECT_FALSE(
      db2.Execute(bad_tree, Opts(Backend::kSimulated, Strategy::kDP, 1, 2))
          .ok());
}

// Malformed explicit trees must come back as InvalidArgument, not crash:
// child indices out of range and self-referential (cyclic) nodes.
TEST(SessionValidation, RejectsMalformedExplicitTrees) {
  Session db;
  auto a = db.AddRelation("a", 1000);
  auto b = db.AddRelation("b", 2000);
  auto mk_leaf = [](RelId rel) {
    plan::JoinTreeNode n;
    n.rel = rel;
    n.rels = plan::RelBit(rel);
    n.card = 1000;
    return n;
  };

  // Inner node with a child index far out of range.
  plan::JoinTree oob;
  oob.nodes.push_back(mk_leaf(a));
  plan::JoinTreeNode inner;
  inner.left = 0;
  inner.right = 57;
  oob.nodes.push_back(inner);
  oob.root = 1;
  Query q1 = db.NewQuery().Join(a, b).Tree(oob).Build();
  auto r1 = db.Execute(q1, Opts(Backend::kSimulated, Strategy::kDP, 1, 2));
  EXPECT_FALSE(r1.ok());

  // Inner node whose child is itself (cycle).
  plan::JoinTree cyc;
  cyc.nodes.push_back(mk_leaf(a));
  plan::JoinTreeNode self;
  self.left = 0;
  self.right = 1;  // itself
  cyc.nodes.push_back(self);
  cyc.root = 1;
  Query q2 = db.NewQuery().Join(a, b).Tree(cyc).Build();
  auto r2 = db.Execute(q2, Opts(Backend::kSimulated, Strategy::kDP, 1, 2));
  EXPECT_FALSE(r2.ok());
}

// Snowflake chain: the third probe joins on a column contributed by the
// first build (d1's second column), not by the driving input. All
// backends must execute it, and threads vs cluster must agree.
TEST(SessionChainForm, SnowflakeProbeOnBuildColumn) {
  Session db;
  // fact(key, fk1); d1(key, fk2); d2(key) — fact->d1 on fk1, then the
  // pipelined row's d1.fk2 column probes d2.
  auto fact = db.AddTable(mt::MakeTable("fact", 4000, 2, 300, 21));
  auto d1 = db.AddTable(mt::MakeTable("d1", 300, 2, 80, 22));
  auto d2 = db.AddTable(mt::MakeTable("d2", 80, 2, 10, 23));
  Query q = db.NewQuery()
                .Scan(fact)
                .Probe(d1, 1, 0)
                .Probe(d2, /*probe_col=*/3, 0)  // d1's fk2 in the row
                .Build();
  auto threads = db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 3));
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().reference_match);
  EXPECT_EQ(threads.value().result_rows, 4000u);
  auto cl = db.Execute(q, Opts(Backend::kCluster, Strategy::kDP, 2, 2));
  ASSERT_TRUE(cl.ok()) << cl.status().ToString();
  EXPECT_EQ(cl.value().result_checksum, threads.value().result_checksum);
  auto sim = db.Execute(q, Opts(Backend::kSimulated, Strategy::kDP, 1, 2));
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
}

// Explicit-tree override: a user-supplied right-deep tree must be honored
// (one maximal chain under build-on-right semantics is not required here;
// we only check the query runs and Explain shows the given structure).
TEST(SessionTreeOverride, ExplicitTreeRuns) {
  Session db;
  auto r = db.AddRelation("R", 4000);
  auto s = db.AddRelation("S", 8000);
  auto t = db.AddRelation("T", 2000);
  plan::JoinTree tree;
  int32_t lr = tree.AddLeaf(r, 4000), ls = tree.AddLeaf(s, 8000),
          lt = tree.AddLeaf(t, 2000);
  tree.AddJoin(tree.AddJoin(ls, lt, 8000), lr, 8000);

  Query q = db.NewQuery().Join(r, s).Join(s, t).Tree(tree).Build();
  auto got = db.Execute(q, Opts(Backend::kSimulated, Strategy::kDP, 1, 2));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got.value().tuples, 0u);
}

// Bushy plans run end-to-end on the cluster: a 2-chain (3-join) and a
// 3-chain (4-join) bushy query must produce identical digests on threads
// and cluster, and the cluster must report distributed-intermediate
// shipping (nonzero for bushy plans, zero for a single chain).

// 4 relations R,S,T,U with a bushy tree ((U ⋈ T) ⋈ (S ⋈ R)): chain0 is
// S ⋈ R, the final chain scans U, probes T, probes chain0's output.
struct BushySessionFixture {
  Session db;
  RelId r, s, t, u;
  Query query;

  explicit BushySessionFixture(size_t u_rows = 10000, uint64_t seed = 51) {
    r = db.AddTable(mt::MakeTable("R", 100, 2, 10, seed));
    s = db.AddTable(mt::MakeTable("S", 400, 2, 100, seed + 1));
    t = db.AddTable(mt::MakeTable("T", 400, 2, 10, seed + 2));
    u = db.AddTable(mt::MakeTable("U", u_rows, 3, 400, seed + 3));
    plan::JoinTree tree;
    int32_t lr = tree.AddLeaf(r, 100), ls = tree.AddLeaf(s, 400);
    int32_t lt = tree.AddLeaf(t, 400), lu = tree.AddLeaf(u, double(u_rows));
    int32_t jsr = tree.AddJoin(ls, lr, 400);
    int32_t jut = tree.AddJoin(lu, lt, double(u_rows));
    tree.AddJoin(jut, jsr, double(u_rows));
    query = db.NewQuery()
                .JoinOn(s, 1, r, 0)
                .JoinOn(u, 1, t, 0)
                .JoinOn(u, 2, s, 0)
                .Tree(tree)
                .Build();
  }
};

TEST(SessionBushy, TwoChainPlanAgreesAcrossRealBackends) {
  BushySessionFixture fx;
  auto threads =
      fx.db.Execute(fx.query, Opts(Backend::kThreads, Strategy::kDP, 1, 4));
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().reference_match);
  EXPECT_EQ(threads.value().result_rows, 10000u);

  auto cl =
      fx.db.Execute(fx.query, Opts(Backend::kCluster, Strategy::kDP, 3, 2));
  ASSERT_TRUE(cl.ok()) << cl.status().ToString();
  EXPECT_TRUE(cl.value().reference_match);
  EXPECT_EQ(cl.value().result_rows, threads.value().result_rows);
  EXPECT_EQ(cl.value().result_checksum, threads.value().result_checksum);

  // chain0's |S| = 400 intermediate rows stayed distributed, and a share
  // of them shipped cross-node while repartitioning to the consumer.
  EXPECT_EQ(cl.value().intermediate_rows, 400u);
  EXPECT_GT(cl.value().intermediate_bytes, 0u);
  // Multi-chain reports describe their intermediates in ToString.
  EXPECT_NE(cl.value().ToString().find("inter_rows=400"), std::string::npos)
      << cl.value().ToString();
  ASSERT_TRUE(cl.value().cluster.has_value());
  ASSERT_EQ(cl.value().cluster->per_chain.size(), 2u);
  EXPECT_EQ(cl.value().cluster->per_chain[0].intermediate_rows, 400u);
  EXPECT_GT(cl.value().cluster->per_chain[0].repartition_rows, 0u);
  EXPECT_GT(cl.value().cluster->per_chain[0].repartition_bytes, 0u);

  // FP on the same bushy plan agrees too.
  auto fp =
      fx.db.Execute(fx.query, Opts(Backend::kCluster, Strategy::kFP, 2, 2));
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  EXPECT_EQ(fp.value().result_checksum, threads.value().result_checksum);
}

TEST(SessionBushy, SingleChainReportsZeroIntermediates) {
  StarFixture fx(6000);
  auto cl =
      fx.db.Execute(fx.query, Opts(Backend::kCluster, Strategy::kDP, 3, 2));
  ASSERT_TRUE(cl.ok()) << cl.status().ToString();
  EXPECT_TRUE(cl.value().reference_match);
  EXPECT_EQ(cl.value().intermediate_rows, 0u);
  EXPECT_EQ(cl.value().intermediate_bytes, 0u);
  ASSERT_TRUE(cl.value().cluster.has_value());
  ASSERT_EQ(cl.value().cluster->per_chain.size(), 1u);
  EXPECT_EQ(cl.value().cluster->per_chain[0].repartition_rows, 0u);
}

TEST(SessionBushy, ThreeChainPlanAgreesAcrossRealBackendsAndSchedules) {
  // chain0 = B ⋈ A, chain1 = D ⋈ C, final = scan F, probe both outputs.
  Session db;
  auto a = db.AddTable(mt::MakeTable("A", 100, 2, 10, 61));
  auto b = db.AddTable(mt::MakeTable("B", 300, 2, 100, 62));
  auto c = db.AddTable(mt::MakeTable("C", 80, 2, 10, 63));
  auto d = db.AddTable(mt::MakeTable("D", 300, 2, 80, 64));
  auto f = db.AddTable(mt::MakeTable("F", 8000, 3, 300, 65));
  plan::JoinTree tree;
  int32_t jab = tree.AddJoin(tree.AddLeaf(b, 300), tree.AddLeaf(a, 100), 300);
  int32_t jcd = tree.AddJoin(tree.AddLeaf(d, 300), tree.AddLeaf(c, 80), 300);
  int32_t jf = tree.AddJoin(tree.AddLeaf(f, 8000), jab, 8000);
  tree.AddJoin(jf, jcd, 8000);
  Query q = db.NewQuery()
                .JoinOn(b, 1, a, 0)
                .JoinOn(d, 1, c, 0)
                .JoinOn(f, 1, b, 0)
                .JoinOn(f, 2, d, 0)
                .Tree(tree)
                .Build();

  auto threads = db.Execute(q, Opts(Backend::kThreads, Strategy::kDP, 1, 3));
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().reference_match);
  EXPECT_EQ(threads.value().result_rows, 8000u);

  // Staged (H2) and concurrent chain scheduling, with and without H1
  // (scans wait for their hash tables), agree with threads on both real
  // backends: the engine's one blockers rule honours both flags. Reuse
  // off: each run must execute every chain, not reuse the previous run's
  // branch outputs (the reused path is covered in build_cache_test).
  for (bool h1 : {true, false}) {
    for (bool h2 : {true, false}) {
      const std::string mode = std::string("h1=") + (h1 ? "on" : "off") +
                               " h2=" + (h2 ? "on" : "off");
      ExecOptions to = Opts(Backend::kThreads, Strategy::kDP, 1, 3);
      to.apply_h1 = h1;
      to.apply_h2 = h2;
      to.reuse_builds = false;
      auto th = db.Execute(q, to);
      ASSERT_TRUE(th.ok()) << mode << ": " << th.status().ToString();
      EXPECT_TRUE(th.value().reference_match) << mode;

      ExecOptions o = Opts(Backend::kCluster, Strategy::kDP, 3, 2);
      o.apply_h1 = h1;
      o.apply_h2 = h2;
      o.reuse_builds = false;
      auto cl = db.Execute(q, o);
      ASSERT_TRUE(cl.ok()) << mode << ": " << cl.status().ToString();
      EXPECT_EQ(cl.value().result_rows, threads.value().result_rows) << mode;
      EXPECT_EQ(cl.value().result_checksum, threads.value().result_checksum)
          << mode;
      EXPECT_EQ(cl.value().intermediate_rows, 600u) << mode;  // 2 x 300 rows
      ASSERT_TRUE(cl.value().cluster.has_value());
      ASSERT_EQ(cl.value().cluster->per_chain.size(), 3u);
    }
  }
}

// A relation probed twice in a chain breaks the join-tree invariants
// (duplicate leaf RelSet bits): reject with the table's name.
TEST(SessionValidation, RejectsDuplicateChainRelation) {
  StarFixture fx(1000);
  Query dup = fx.db.NewQuery()
                  .Scan(fx.fact)
                  .Probe(fx.d1, 1, 0)
                  .Probe(fx.d1, 2, 0)
                  .Build();
  for (Backend b : {Backend::kSimulated, Backend::kThreads,
                    Backend::kCluster}) {
    auto got = fx.db.Execute(dup, Opts(b, Strategy::kDP,
                                       b == Backend::kCluster ? 2 : 1, 2));
    ASSERT_FALSE(got.ok()) << BackendName(b);
    EXPECT_NE(got.status().ToString().find("d1"), std::string::npos)
        << got.status().ToString();
  }
  // Scanning the probed relation is equally rejected.
  Query scan_dup =
      fx.db.NewQuery().Scan(fx.d1).Probe(fx.d1, 1, 0).Build();
  EXPECT_FALSE(
      fx.db.Execute(scan_dup, Opts(Backend::kThreads, Strategy::kDP, 1, 2))
          .ok());
}

// The unified skew knob: skew_theta drives attribute-value skew on every
// backend. Synthesized (catalog-only) runs stay correct and identical
// across the two real backends under skew.
TEST(SessionSkew, AttributeSkewDrivesSynthesizedRuns) {
  Session db;
  auto r = db.AddRelation("R", 30000);
  auto s = db.AddRelation("S", 120000);
  auto t = db.AddRelation("T", 60000);
  Query q = db.NewQuery().Join(r, s).Join(s, t).Build();
  ExecOptions to = Opts(Backend::kThreads, Strategy::kDP, 1, 4);
  to.bind_scale = 0.05;
  to.skew_theta = 0.9;
  auto threads = db.Execute(q, to);
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  EXPECT_TRUE(threads.value().reference_match);

  ExecOptions co = Opts(Backend::kCluster, Strategy::kDP, 3, 2);
  co.bind_scale = 0.05;
  co.skew_theta = 0.9;
  auto cl = db.Execute(q, co);
  ASSERT_TRUE(cl.ok()) << cl.status().ToString();
  EXPECT_TRUE(cl.value().reference_match);
  EXPECT_EQ(cl.value().result_rows, threads.value().result_rows);
  EXPECT_EQ(cl.value().result_checksum, threads.value().result_checksum);

  // The simulator keeps modeling the same knob as redistribution skew.
  ExecOptions so = Opts(Backend::kSimulated, Strategy::kDP, 2, 2);
  so.skew_theta = 0.9;
  auto sim = db.Execute(q, so);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
}

// Cluster placement skew moved to its own knob.
TEST(SessionSkew, PlacementSkewKnobStaysCorrect) {
  StarFixture fx(30000);
  ExecOptions o = Opts(Backend::kCluster, Strategy::kDP, 3, 2);
  o.placement_theta = 0.9;
  auto skewed = fx.db.Execute(fx.query, o);
  ASSERT_TRUE(skewed.ok()) << skewed.status().ToString();
  EXPECT_TRUE(skewed.value().reference_match);
}

// fp_error_rate now reaches the cluster backend's FP allocation.
TEST(SessionFpError, CostErrorHonoredOnCluster) {
  StarFixture fx(15000);
  ExecOptions o = Opts(Backend::kCluster, Strategy::kFP, 2, 3);
  o.fp_error_rate = 0.5;
  auto got = fx.db.Execute(fx.query, o);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().reference_match);
}

// Unified strategy enum: the aliases stay interchangeable.
TEST(StrategyUnification, AliasesShareOneEnum) {
  static_assert(std::is_same_v<exec::Strategy, hierdb::Strategy>);
  static_assert(std::is_same_v<mt::LocalStrategy, hierdb::Strategy>);
  EXPECT_STREQ(StrategyName(Strategy::kDP), "DP");
  EXPECT_STREQ(mt::LocalStrategyName(mt::LocalStrategy::kSP), "SP");
  EXPECT_STREQ(exec::StrategyName(exec::Strategy::kFP), "FP");
}

}  // namespace
}  // namespace hierdb::api
