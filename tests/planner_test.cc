// Tests for the staged planner (api/planner.h): a golden dump of a fixed
// query set pinned byte for byte, unit tests of each stage, and a table of
// every rejection the stages return. None of them builds a Session.

#include "api/planner.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "gtest/gtest.h"
#include "mt/build_cache.h"
#include "tests/planner_cases.h"

namespace hierdb::api {
namespace {

// --- Golden dump -----------------------------------------------------------

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Every case's Explain text (all stages) plus the fields of the plan its
// Submit builds: the simulator bridge only when a simulated attempt may
// run, the real bridge only for a real primary backend.
TEST(PlannerGolden, DumpIsByteIdentical) {
  PlanCatalog db;
  std::string dump;
  for (const golden::PlanCase& c : golden::MakePlanCases(db)) {
    Planned all;
    Status st = PlanLogical(c.query, c.opts, db, &all);
    if (st.ok()) st = BridgeSimulated(c.query, c.opts, &all);
    if (st.ok()) st = BridgeReal(c.query, c.opts, db, &all);
    const std::string explain = st.ok()
                                    ? ExplainText(c.query, c.opts, all)
                                    : "error: " + st.ToString() + "\n";
    Planned p;
    ASSERT_TRUE(PlanLogical(c.query, c.opts, db, &p).ok()) << c.name;
    if (c.opts.backend == Backend::kSimulated) {
      ASSERT_TRUE(BridgeSimulated(c.query, c.opts, &p).ok()) << c.name;
    } else {
      ASSERT_TRUE(BridgeReal(c.query, c.opts, db, &p).ok()) << c.name;
      EXPECT_TRUE(p.pplan.ops.empty()) << c.name;
    }
    dump += golden::DumpCase(c, explain, p, p.chain_est);
  }

  const auto path =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "planner_dump.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::stringstream want;
  want << in.rdbuf();
  const std::vector<std::string> got_lines = Lines(dump);
  const std::vector<std::string> want_lines = Lines(want.str());
  std::string current_case;
  for (size_t i = 0; i < std::min(got_lines.size(), want_lines.size());
       ++i) {
    if (want_lines[i].rfind("== ", 0) == 0) current_case = want_lines[i];
    ASSERT_EQ(got_lines[i], want_lines[i])
        << "first difference at line " << i + 1 << " (" << current_case
        << ")";
  }
  EXPECT_EQ(got_lines.size(), want_lines.size());
  EXPECT_EQ(dump, want.str());
}

// --- Stage tests -----------------------------------------------------------

// fact(key, fk1, fk2, fk3) with registered dimensions d1/d2 (key, attr),
// plus catalog-only R-S-T for the synthesized path.
struct Fixture {
  PlanCatalog db;
  RelId fact, d1, d2, r, s, t;

  Fixture() {
    fact = db.AddTable(mt::MakeTable("fact", 4000, 4, 200, 1));
    d1 = db.AddTable(mt::MakeTable("d1", 200, 2, 20, 2));
    d2 = db.AddTable(mt::MakeTable("d2", 200, 2, 20, 3));
    r = db.AddRelation("R", 1000);
    s = db.AddRelation("S", 4000);
    t = db.AddRelation("T", 2000);
  }

  QueryBuilder Star() const {
    return QueryBuilder().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0);
  }
};

ExecOptions Threads() { return golden::Machine(Backend::kThreads, 1, 2); }

TEST(PlannerStages, LocalizeBuildsTheSortedDenseCatalog) {
  Fixture fx;
  Query q = QueryBuilder().Join(fx.t, fx.s).Join(fx.s, fx.r).Build();
  Planned p;
  ASSERT_TRUE(LocalizeQuery(q, Threads(), fx.db, &p).ok());
  EXPECT_EQ(p.to_global, (std::vector<RelId>{fx.r, fx.s, fx.t}));
  ASSERT_EQ(p.cat.size(), 3u);
  EXPECT_EQ(p.cat.relation(0).name, "R");
  EXPECT_EQ(p.cat.relation(2).cardinality, 2000u);

  Query cq = QueryBuilder()
                 .Scan(fx.fact)
                 .CapturePoint("in")
                 .Probe(fx.d1, 1, 0)
                 .CapturePoint("out")
                 .Build();
  Planned c;
  ASSERT_TRUE(LocalizeQuery(cq, Threads(), fx.db, &c).ok());
  ASSERT_EQ(c.captures.size(), 2u);
  EXPECT_EQ(c.captures[0].point, 0u);
  EXPECT_EQ(c.captures[1].name, "out");
  EXPECT_EQ(c.captures[1].point, 1u);
}

TEST(PlannerStages, FoldFiltersDropsAlwaysTrueAndCollapsesAlwaysFalse) {
  Fixture fx;
  // fact.key spans [0, 4000): >= -5 can reject nothing, < 0 rejects all.
  Query q = fx.Star()
                .Where(fx.fact, 0, CmpOp::kGe, -5)
                .Where(fx.d1, 1, CmpOp::kLt, 0)
                .Where(fx.d1, 0, CmpOp::kEq, 3)
                .Where(fx.d2, 0, CmpOp::kLt, 100)
                .Build();
  Planned p;
  ASSERT_TRUE(LocalizeQuery(q, Threads(), fx.db, &p).ok());
  ASSERT_TRUE(FoldFilters(q, fx.db, &p).ok());
  const uint32_t lf = 0, ld1 = 1, ld2 = 2;  // fact < d1 < d2 by id
  EXPECT_TRUE(p.filters[lf].empty());
  EXPECT_EQ(p.filter_sel[lf], 1.0);
  ASSERT_EQ(p.filters[ld1].size(), 1u);  // the impossible compare alone
  EXPECT_EQ(p.filters[ld1][0].cmp, CmpOp::kLt);
  EXPECT_EQ(p.filter_sel[ld1], 1e-4);
  ASSERT_EQ(p.filters[ld2].size(), 1u);
  EXPECT_GT(p.filter_sel[ld2], 0.3);  // about half of [0, 200)
  EXPECT_LT(p.filter_sel[ld2], 0.7);
  EXPECT_EQ(p.filter_pass, p.filter_sel);

  // Catalog-only relations fall back to the System R constants.
  Query g = QueryBuilder()
                .Join(fx.r, fx.s)
                .Join(fx.s, fx.t)
                .Where(fx.r, 0, CmpOp::kEq, 1)
                .Where(fx.s, 0, CmpOp::kNe, 1)
                .Where(fx.t, 0, CmpOp::kLt, 1)
                .Build();
  Planned gp;
  ASSERT_TRUE(LocalizeQuery(g, Threads(), fx.db, &gp).ok());
  ASSERT_TRUE(FoldFilters(g, fx.db, &gp).ok());
  EXPECT_DOUBLE_EQ(gp.filter_sel[0], 0.1);
  EXPECT_DOUBLE_EQ(gp.filter_sel[1], 0.9);
  EXPECT_DOUBLE_EQ(gp.filter_sel[2], 1.0 / 3.0);
}

TEST(PlannerStages, ResolveAggregationMapsHavingOntoOutputColumns) {
  Fixture fx;
  Query q = fx.Star()
                .GroupBy(fx.d1, 1)
                .GroupBy(fx.d2, 1)
                .Count()
                .Agg(AggFn::kSum, fx.fact, 0)
                .Having(AggFn::kSum, fx.fact, 0, CmpOp::kGt, 10)
                .Having(fx.d2, 1, CmpOp::kLe, 5)
                .HavingCount(CmpOp::kGe, 2)
                .Build();
  Planned p;
  ASSERT_TRUE(LocalizeQuery(q, Threads(), fx.db, &p).ok());
  ASSERT_TRUE(ResolveAggregation(q, fx.db, &p).ok());
  EXPECT_TRUE(p.has_agg);
  // Output row: [d1.1, d2.1, COUNT(*), SUM(fact.0)].
  ASSERT_EQ(p.having.size(), 3u);
  EXPECT_EQ(p.having[0].col, 3u);
  EXPECT_EQ(p.having[1].col, 1u);
  EXPECT_EQ(p.having[2].col, 2u);
  EXPECT_EQ(p.having[2].value, 2);
}

TEST(PlannerStages, ChooseTreeBuildsTheChainSpineAndPricesAggregation) {
  Fixture fx;
  Query plain = fx.Star().Build();
  Planned p;
  ASSERT_TRUE(PlanLogical(plain, Threads(), fx.db, &p).ok());
  // Left-deep spine: ((fact JOIN d1) JOIN d2), builds on the right.
  const plan::JoinTreeNode& root = p.tree.nodes[p.tree.root];
  EXPECT_EQ(p.tree.num_joins(), 2u);
  EXPECT_TRUE(p.tree.nodes[root.right].IsLeaf());
  EXPECT_EQ(p.tree.nodes[root.right].rel, 2u);
  EXPECT_EQ(p.plan_cost, p.tree.cost);
  EXPECT_EQ(p.graph.num_relations(), 3u);

  Query grouped = fx.Star().GroupBy(fx.d1, 1).Count().Build();
  Planned g;
  ASSERT_TRUE(PlanLogical(grouped, Threads(), fx.db, &g).ok());
  // d1.attr draws from [0, 20): the KMV sketch bounds the group count.
  EXPECT_GE(g.est_groups, 1.0);
  EXPECT_LE(g.est_groups, 25.0);
  const double root_card = g.tree.nodes[g.tree.root].card;
  EXPECT_DOUBLE_EQ(g.plan_cost, g.tree.cost + root_card + g.est_groups);

  // An explicit tree over session ids is remapped onto local ids.
  plan::JoinTree tree;
  const int32_t lt = tree.AddLeaf(fx.t), lr = tree.AddLeaf(fx.r);
  const int32_t rs = tree.AddJoin(lr, tree.AddLeaf(fx.s));
  tree.AddJoin(lt, rs);
  Query tq =
      QueryBuilder().Join(fx.r, fx.s).Join(fx.s, fx.t).Tree(tree).Build();
  Planned t;
  ASSERT_TRUE(PlanLogical(tq, Threads(), fx.db, &t).ok());
  EXPECT_EQ(t.tree.nodes[0].rel, 2u);  // T is local 2
  EXPECT_EQ(t.tree.nodes[t.tree.root].rels, plan::RelSet{0b111});
}

TEST(PlannerStages, BridgesRunIndependently) {
  Fixture fx;
  Query q = fx.Star().Build();
  Planned sim;
  ASSERT_TRUE(PlanLogical(q, Threads(), fx.db, &sim).ok());
  ASSERT_TRUE(BridgeSimulated(q, Threads(), &sim).ok());
  EXPECT_FALSE(sim.pplan.ops.empty());
  EXPECT_FALSE(sim.has_real);
  EXPECT_TRUE(sim.mtplan.chains.empty());
  EXPECT_TRUE(sim.chain_est.empty());

  Planned real;
  ASSERT_TRUE(PlanLogical(q, Threads(), fx.db, &real).ok());
  ASSERT_TRUE(BridgeReal(q, Threads(), fx.db, &real).ok());
  EXPECT_TRUE(real.pplan.ops.empty());
  ASSERT_TRUE(real.has_real);
  // Registered tables are used in place, keyed by their content hashes.
  EXPECT_EQ(real.tables,
            (std::vector<const mt::Table*>{fx.db.table(fx.fact),
                                           fx.db.table(fx.d1),
                                           fx.db.table(fx.d2)}));
  EXPECT_EQ(real.cache_ids,
            (std::vector<uint64_t>{fx.db.tables[fx.fact].content_hash,
                                   fx.db.tables[fx.d1].content_hash,
                                   fx.db.tables[fx.d2].content_hash}));
  EXPECT_TRUE(real.owned.empty());
  ASSERT_EQ(real.chain_est.size(), 1u);
  EXPECT_EQ(ChainCards(real).size(), 1u);
  EXPECT_EQ(ChainCards(real)[0].est_rows, real.chain_est[0]);

  // Without reuse (or on the simulator) no cache identities are kept.
  ExecOptions no_reuse = Threads();
  no_reuse.reuse_builds = false;
  Planned bare;
  ASSERT_TRUE(PlanLogical(q, no_reuse, fx.db, &bare).ok());
  ASSERT_TRUE(BridgeReal(q, no_reuse, fx.db, &bare).ok());
  EXPECT_TRUE(bare.cache_ids.empty());
}

TEST(PlannerStages, RealBridgePushesFiltersIntoSynthesizedTables) {
  Fixture fx;
  Query q = QueryBuilder()
                .Join(fx.r, fx.s)
                .Join(fx.s, fx.t)
                .Where(fx.s, 0, CmpOp::kLt, 10)
                .Build();
  ExecOptions o = Threads();
  o.bind_scale = 0.1;
  Planned p;
  ASSERT_TRUE(PlanLogical(q, o, fx.db, &p).ok());
  ASSERT_TRUE(BridgeReal(q, o, fx.db, &p).ok());
  ASSERT_EQ(p.owned.size(), 3u);
  EXPECT_EQ(p.owned[1].batch.rows(), 10u);  // S keys are 0..399
  EXPECT_EQ(p.prefiltered_rows, 390u);
  EXPECT_EQ(p.filter_pass[1], 1.0);        // the scanned table shrank
  EXPECT_DOUBLE_EQ(p.filter_sel[1], 1.0 / 3.0);  // the optimizer's view
  EXPECT_TRUE(p.mtplan.table_filters[1].empty());
  EXPECT_EQ(p.filters[1].size(), 1u);  // stage 2's output is untouched
  EXPECT_NE(p.cache_seed_skew, 0u);
  ASSERT_EQ(p.cache_ids.size(), 3u);
  EXPECT_EQ(p.cache_ids[1], mt::TableContentHash(p.owned[1].batch));
  EXPECT_EQ(p.tables[1], &p.owned[1]);
}

TEST(PlannerStages, ChainOverACatalogOnlyRelationReportsTheGap) {
  Fixture fx;
  Query q = QueryBuilder().Scan(fx.fact).Probe(fx.r, 1, 0).Build();
  Planned p;
  ASSERT_TRUE(PlanLogical(q, Threads(), fx.db, &p).ok());
  ASSERT_TRUE(BridgeReal(q, Threads(), fx.db, &p).ok());
  EXPECT_FALSE(p.has_real);
  EXPECT_EQ(p.real_gap,
            "relation 'R' has no registered data (chain queries run on real "
            "tables; use Session::AddTable)");
}

// --- Rejections ------------------------------------------------------------

struct StageFailure {
  std::string stage;
  Status status;
};

// Runs every stage in order, each called directly, and reports the first
// failure (stage "" when all pass).
StageFailure RunStages(const Query& q, const ExecOptions& o,
                       const PlanCatalog& db) {
  Planned p;
  const std::pair<const char*, std::function<Status()>> stages[] = {
      {"LocalizeQuery", [&] { return LocalizeQuery(q, o, db, &p); }},
      {"FoldFilters", [&] { return FoldFilters(q, db, &p); }},
      {"ResolveAggregation", [&] { return ResolveAggregation(q, db, &p); }},
      {"ChooseTree", [&] { return ChooseTree(q, db, &p); }},
      {"BridgeSimulated", [&] { return BridgeSimulated(q, o, &p); }},
      {"BridgeReal", [&] { return BridgeReal(q, o, db, &p); }},
  };
  for (const auto& [name, run] : stages) {
    Status st = run();
    if (!st.ok()) return {name, st};
  }
  return {"", Status::OK()};
}

TEST(PlannerRejections, EveryStageStatusHasItsCodeAndMessage) {
  Fixture fx;
  // 65 catalog-only relations joined in a path.
  std::vector<RelId> many;
  for (int i = 0; i < 65; ++i) {
    many.push_back(fx.db.AddRelation("m" + std::to_string(i), 100));
  }
  QueryBuilder path;
  for (size_t i = 1; i < many.size(); ++i) path.Join(many[i - 1], many[i]);

  const ExecOptions threads = Threads();
  const ExecOptions sim = golden::Machine(Backend::kSimulated, 1, 2);
  auto tree_query = [&](plan::JoinTree tree) {
    return QueryBuilder().Join(fx.r, fx.s).Join(fx.s, fx.t).Tree(tree)
        .Build();
  };
  plan::JoinTree foreign;  // R JOIN (S JOIN fact): fact is not joined
  const int32_t fr = foreign.AddLeaf(fx.r), fs = foreign.AddLeaf(fx.s);
  foreign.AddJoin(fr, foreign.AddJoin(fs, foreign.AddLeaf(fx.fact)));
  plan::JoinTree out_of_range;
  out_of_range.AddLeaf(fx.r);
  out_of_range.nodes.push_back({0, 7});
  out_of_range.root = 1;
  plan::JoinTree shared;
  int32_t leaf = shared.AddLeaf(fx.r);
  shared.AddJoin(leaf, leaf);

  const std::string fact_id = std::to_string(fx.fact);
  const std::string d1_id = std::to_string(fx.d1);
  struct Case {
    const char* what;
    Query query;
    ExecOptions opts;
    const char* stage;
    StatusCode code;
    std::string message;
  };
  const Case cases[] = {
      {"no joins", Query(), threads, "LocalizeQuery",
       StatusCode::kInvalidArgument, "query has no joins"},
      {"mixed forms",
       QueryBuilder().Scan(fx.fact).Probe(fx.d1, 1, 0).Join(fx.r, fx.s)
           .Build(),
       threads, "LocalizeQuery", StatusCode::kInvalidArgument,
       "query mixes chain form (Scan/Probe) and graph form (Join)"},
      {"chain without Scan", QueryBuilder().Probe(fx.d1, 1, 0).Build(),
       threads, "LocalizeQuery", StatusCode::kInvalidArgument,
       "chain query has no Scan()"},
      {"CapturePoint on the graph form",
       QueryBuilder().Join(fx.r, fx.s).CapturePoint("x").Build(), threads,
       "LocalizeQuery", StatusCode::kInvalidArgument,
       "CapturePoint requires the chain form (Scan/Probe)"},
      {"CapturePoint on kSimulated",
       fx.Star().CapturePoint("x").Build(), sim, "LocalizeQuery",
       StatusCode::kInvalidArgument,
       "the simulated backend has no rows to capture (use "
       "Backend::kThreads or Backend::kCluster)"},
      {"unknown relation id", QueryBuilder().Join(fx.r, 999).Build(),
       threads, "LocalizeQuery", StatusCode::kInvalidArgument,
       "query references unknown relation id 999"},
      {"self-join in a chain",
       QueryBuilder().Scan(fx.fact).Probe(fx.d1, 1, 0).Probe(fx.fact, 0, 0)
           .Build(),
       threads, "LocalizeQuery", StatusCode::kInvalidArgument,
       "relation 'fact' appears more than once in the chain; self-joins "
       "are unsupported (register the table twice to alias it)"},
      {"more than 64 relations", path.Build(), sim, "LocalizeQuery",
       StatusCode::kInvalidArgument, "queries support at most 64 relations"},
      {"Where on an unjoined relation",
       fx.Star().Where(fx.r, 0, CmpOp::kEq, 1).Build(), threads,
       "FoldFilters", StatusCode::kInvalidArgument,
       "Where references relation id " + std::to_string(fx.r) +
           ", which the query does not join"},
      {"Where column out of range on a registered table",
       fx.Star().Where(fx.fact, 9, CmpOp::kEq, 1).Build(), sim,
       "FoldFilters", StatusCode::kOutOfRange,
       "Where column 9 >= width 4 of relation 'fact'"},
      {"GroupBy on an unjoined relation",
       QueryBuilder().Join(fx.r, fx.s).GroupBy(fx.fact, 0).Build(), sim,
       "ResolveAggregation", StatusCode::kInvalidArgument,
       "GroupBy references relation id " + fact_id +
           ", which the query does not join"},
      {"Agg on an unjoined relation",
       QueryBuilder().Join(fx.r, fx.s).Agg(AggFn::kMax, fx.d1, 1).Build(),
       sim, "ResolveAggregation", StatusCode::kInvalidArgument,
       "Agg references relation id " + d1_id +
           ", which the query does not join"},
      {"GroupBy column out of range on a registered table",
       fx.Star().GroupBy(fx.d1, 5).Count().Build(), sim,
       "ResolveAggregation", StatusCode::kOutOfRange,
       "GroupBy column 5 >= width 2 of relation 'd1'"},
      {"Agg column out of range on a registered table",
       fx.Star().Agg(AggFn::kSum, fx.fact, 4).Build(), threads,
       "ResolveAggregation", StatusCode::kOutOfRange,
       "Agg column 4 >= width 4 of relation 'fact'"},
      {"Having without aggregation",
       fx.Star().HavingCount(CmpOp::kGt, 1).Build(), threads,
       "ResolveAggregation", StatusCode::kInvalidArgument,
       "Having requires a GroupBy/Agg query (it filters aggregate output "
       "rows)"},
      {"Having on an undeclared aggregate",
       fx.Star().Count().Having(AggFn::kSum, fx.fact, 0, CmpOp::kGt, 1)
           .Build(),
       threads, "ResolveAggregation", StatusCode::kInvalidArgument,
       "Having references aggregate sum(col), which no Agg()/Count() call "
       "declares"},
      {"Having on an undeclared COUNT(*)",
       fx.Star().Agg(AggFn::kSum, fx.fact, 0).HavingCount(CmpOp::kGt, 1)
           .Build(),
       threads, "ResolveAggregation", StatusCode::kInvalidArgument,
       "Having references aggregate count(*), which no Agg()/Count() call "
       "declares"},
      {"Having on an undeclared grouping column",
       fx.Star().GroupBy(fx.d1, 1).Count().Having(fx.d2, 1, CmpOp::kEq, 1)
           .Build(),
       threads, "ResolveAggregation", StatusCode::kInvalidArgument,
       "Having references a grouping column that no GroupBy() call "
       "declares"},
      {"cyclic graph",
       QueryBuilder().Join(fx.r, fx.s).Join(fx.s, fx.t).Join(fx.t, fx.r)
           .Build(),
       sim, "ChooseTree", StatusCode::kInvalidArgument,
       "acyclic connected graph must have n-1 edges"},
      {"disconnected graph",
       QueryBuilder().Join(fx.r, fx.s).Join(fx.t, fx.d1).Build(), sim,
       "ChooseTree", StatusCode::kInvalidArgument,
       "acyclic connected graph must have n-1 edges"},
      {"disconnected graph with a cycle",
       QueryBuilder().Join(fx.r, fx.s).Join(fx.s, fx.r).Join(fx.t, fx.d1)
           .Build(),
       sim, "ChooseTree", StatusCode::kInvalidArgument,
       "graph is not connected"},
      {"empty explicit tree", tree_query(plan::JoinTree()), sim,
       "ChooseTree", StatusCode::kInvalidArgument,
       "explicit tree is empty or malformed"},
      {"explicit tree over a foreign relation", tree_query(foreign), sim,
       "ChooseTree", StatusCode::kInvalidArgument,
       "explicit tree references a relation outside the join graph"},
      {"explicit tree child out of range", tree_query(out_of_range), sim,
       "ChooseTree", StatusCode::kInvalidArgument,
       "explicit tree has a child index out of range"},
      {"explicit tree sharing nodes", tree_query(shared), sim,
       "ChooseTree", StatusCode::kInvalidArgument,
       "explicit tree shares nodes or contains a cycle"},
      {"Where column out of range on a synthesized table",
       QueryBuilder().Join(fx.r, fx.s).Where(fx.r, 5, CmpOp::kEq, 1)
           .Build(),
       threads, "BridgeReal", StatusCode::kOutOfRange,
       "Where column 5 >= width 1 of relation 'R'"},
      {"GroupBy column out of range on a synthesized table",
       QueryBuilder().Join(fx.r, fx.s).GroupBy(fx.s, 7).Count().Build(),
       threads, "BridgeReal", StatusCode::kOutOfRange,
       "GroupBy column 7 >= width 2 of relation 'S'"},
      {"probe column past the pipelined row",
       QueryBuilder().Scan(fx.fact).Probe(fx.d1, 6, 0).Build(), threads,
       "BridgeReal", StatusCode::kOutOfRange,
       "probe col 6 >= pipelined width 4"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const StageFailure f = RunStages(c.query, c.opts, fx.db);
    EXPECT_EQ(f.stage, c.stage);
    EXPECT_EQ(f.status.code(), c.code) << f.status.ToString();
    EXPECT_EQ(f.status.message(), c.message);
  }
}

}  // namespace
}  // namespace hierdb::api
