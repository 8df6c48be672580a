// The planner's golden query set and its dump format.
//
// The set covers every examples/*.cpp query (tables scaled down), the two
// perfbench workload shapes (the star_skew chain over a Zipf(0.8) fact and
// the bushy_cluster graph-form snowflake on 2x2 with placement skew),
// catalog-only synthesized graphs, JoinOn over registered tables, explicit
// Tree and Shape queries, and the always-true/always-false Where folds.
// Cases are built against any registry exposing Session's AddRelation and
// AddTable, so the same set plans through a Session or a bare
// api::PlanCatalog with identical relation ids and table statistics.
//
// tests/golden/planner_dump.txt holds the dump of this set; planner_test
// regenerates it and requires byte identity.

#ifndef HIERDB_TESTS_PLANNER_CASES_H_
#define HIERDB_TESTS_PLANNER_CASES_H_

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "api/session.h"
#include "mt/row.h"
#include "opt/query_gen.h"
#include "opt/workload.h"

namespace hierdb::api::golden {

struct PlanCase {
  std::string name;
  Query query;
  ExecOptions opts;
};

inline ExecOptions Machine(Backend backend, uint32_t nodes, uint32_t threads,
                           Strategy strategy = Strategy::kDP) {
  ExecOptions o;
  o.backend = backend;
  o.strategy = strategy;
  o.nodes = nodes;
  o.threads_per_node = threads;
  return o;
}

template <class Db>
std::vector<PlanCase> MakePlanCases(Db& db) {
  std::vector<PlanCase> cases;
  auto add = [&](std::string name, Query q, ExecOptions o) {
    cases.push_back({std::move(name), std::move(q), std::move(o)});
  };
  const ExecOptions sim = Machine(Backend::kSimulated, 2, 4);
  const ExecOptions threads = Machine(Backend::kThreads, 1, 4);
  const ExecOptions cluster = Machine(Backend::kCluster, 2, 2);

  // examples/quickstart.cpp: a catalog-only 4-relation graph.
  {
    RelId r = db.AddRelation("R", 20'000);
    RelId s = db.AddRelation("S", 80'000);
    RelId t = db.AddRelation("T", 40'000);
    RelId u = db.AddRelation("U", 160'000);
    Query q = QueryBuilder().Join(r, s).Join(s, t).Join(t, u).Build();
    ExecOptions o = sim;
    o.seed = 2024;
    add("quickstart/sim", q, o);
    o.backend = Backend::kThreads;
    o.nodes = 1;
    o.bind_scale = 0.05;
    add("quickstart/threads", q, o);
    o.reuse_builds = false;
    add("quickstart/threads-noreuse", q, o);
  }

  // examples/optimizer_explain.cpp: a generated 6-relation graph under
  // every shape constraint.
  {
    opt::QueryGenOptions qo;
    qo.num_relations = 6;
    qo.scale = 0.1;
    opt::GeneratedQuery gq = opt::QueryGenerator(qo, 7).Generate();
    std::vector<RelId> ids;
    for (const auto& rel : gq.catalog.relations()) {
      ids.push_back(db.AddRelation(rel.name, rel.cardinality,
                                   rel.tuple_bytes));
    }
    for (opt::TreeShape shape :
         {opt::TreeShape::kBushy, opt::TreeShape::kZigZag,
          opt::TreeShape::kRightDeep, opt::TreeShape::kLeftDeep,
          opt::TreeShape::kSegmentedRightDeep}) {
      QueryBuilder qb;
      for (const auto& e : gq.graph.edges()) {
        qb.Join(ids[e.a], ids[e.b], e.selectivity);
      }
      qb.Shape(shape, /*segment_length=*/2);
      add(std::string("optimizer_explain/") + opt::TreeShapeName(shape),
          qb.Build(), sim);
    }
    // The same generated graph, unshaped, synthesized for the real
    // backends with Where pushdown, attribute skew and an aggregate.
    QueryBuilder qb;
    for (const auto& e : gq.graph.edges()) {
      qb.Join(ids[e.a], ids[e.b], e.selectivity);
    }
    qb.Where(ids[0], 0, CmpOp::kLt, 40)
        .Where(ids[1], 0, CmpOp::kNe, 3)
        .GroupBy(ids[2], 0)
        .Count()
        .Agg(AggFn::kSum, ids[0], 0);
    Query q = qb.Build();
    ExecOptions o = threads;
    o.skew_theta = 0.5;
    o.seed = 11;
    add("synth_graph/threads", q, o);
    o = cluster;
    o.bind_scale = 0.02;
    add("synth_graph/cluster", q, o);
    add("synth_graph/sim", q, sim);
  }

  // examples/skew_resilience.cpp: a generated 12-relation workload query
  // with an explicit Tree().
  {
    opt::WorkloadOptions wo;
    wo.num_queries = 1;
    wo.trees_per_query = 1;
    wo.query.num_relations = 12;
    wo.query.scale = 0.1;
    wo.seed = 99;
    opt::WorkloadPlan wp = std::move(opt::MakeWorkload(wo)[0]);
    std::vector<RelId> ids;
    for (const auto& rel : wp.catalog.relations()) {
      ids.push_back(db.AddRelation(rel.name, rel.cardinality,
                                   rel.tuple_bytes));
    }
    QueryBuilder qb;
    for (const auto& e : wp.edges) qb.Join(ids[e.a], ids[e.b], e.selectivity);
    plan::JoinTree tree = wp.tree;
    for (auto& node : tree.nodes) {
      if (node.IsLeaf()) node.rel = ids[node.rel];
    }
    Query q = qb.Tree(tree).Build();
    ExecOptions o = Machine(Backend::kSimulated, 1, 16);
    o.seed = 5;
    o.skew_theta = 0.6;
    add("skew_resilience/sim", q, o);
    o.strategy = Strategy::kFP;
    add("skew_resilience/sim-fp", q, o);
    o = threads;
    o.seed = 5;
    add("skew_resilience/threads", q, o);
  }

  // examples/warehouse_reporting.cpp: a filtered, grouped 3-probe star.
  {
    RelId sales = db.AddTable(mt::MakeTable("sales", 20'000, 4, 2000, 1));
    RelId customers = db.AddTable(mt::MakeTable("customers", 2000, 2, 100, 2));
    RelId products = db.AddTable(mt::MakeTable("products", 2000, 2, 100, 3));
    RelId stores = db.AddTable(mt::MakeTable("stores", 2000, 2, 24, 4));
    Query q = QueryBuilder()
                  .Scan(sales)
                  .Probe(customers, 1, 0)
                  .Probe(products, 2, 0)
                  .Probe(stores, 3, 0)
                  .Where(sales, 0, CmpOp::kGe, 200)
                  .GroupBy(stores, 1)
                  .Count()
                  .Agg(AggFn::kSum, sales, 0)
                  .Agg(AggFn::kMax, sales, 0)
                  .Agg(AggFn::kAvg, sales, 0)
                  .Build();
    ExecOptions o = threads;
    o.materialize = true;
    add("warehouse_reporting/threads", q, o);
    add("warehouse_reporting/cluster", q, Machine(Backend::kCluster, 4, 2));
    add("warehouse_reporting/sim", q, Machine(Backend::kSimulated, 4, 8));
  }

  // examples/real_executor_join.cpp: a skewed fact probing three
  // dimensions.
  {
    RelId fact = db.AddTable(
        mt::MakeSkewedTable("fact", 50'000, 4, 5'000, 1, 0.5, 1));
    RelId customers = db.AddTable(mt::MakeTable("customers", 20'000, 2,
                                                5'000, 2));
    RelId products = db.AddTable(mt::MakeTable("products", 10'000, 2,
                                               5'000, 3));
    RelId stores = db.AddTable(mt::MakeTable("stores", 5'000, 2, 5'000, 4));
    Query q = QueryBuilder()
                  .Scan(fact)
                  .Probe(customers, 1, 0)
                  .Probe(products, 2, 0)
                  .Probe(stores, 3, 0)
                  .Build();
    ExecOptions o = Machine(Backend::kThreads, 1, 2);
    o.buckets = 512;
    o.validate = true;
    add("real_executor_join/threads", q, o);
  }

  // examples/hierarchical_cluster.cpp and query_streams.cpp: plain 1-3
  // probe stars on the cluster and the threads backend.
  {
    RelId fact = db.AddTable(mt::MakeTable("fact", 20'000, 4, 1000, 1));
    RelId d1 = db.AddTable(mt::MakeTable("d1", 1000, 2, 50, 2));
    RelId d2 = db.AddTable(mt::MakeTable("d2", 1000, 2, 50, 3));
    RelId d3 = db.AddTable(mt::MakeTable("d3", 1000, 2, 50, 4));
    Query q3 = QueryBuilder()
                   .Scan(fact)
                   .Probe(d1, 1, 0)
                   .Probe(d2, 2, 0)
                   .Probe(d3, 3, 0)
                   .Build();
    for (Strategy st : {Strategy::kDP, Strategy::kFP}) {
      ExecOptions o = Machine(Backend::kCluster, 4, 2, st);
      o.buckets = 128;
      o.placement_theta = 0.9;
      o.seed = 5;
      add(std::string("hierarchical_cluster/") + StrategyName(st), q3, o);
    }
    ExecOptions o = Machine(Backend::kThreads, 1, 2);
    add("query_streams/q1",
        QueryBuilder().Scan(fact).Probe(d1, 1, 0).Build(), o);
    add("query_streams/q2",
        QueryBuilder().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build(),
        o);
    o.materialize = true;
    add("query_streams/q3", q3, o);
  }

  // examples/observability_trace.cpp and flight_recorder.cpp: a filtered,
  // grouped star with HAVING on all three backends, and capture points.
  {
    RelId fact = db.AddTable(mt::MakeTable("fact", 6'000, 3, 800, 1));
    RelId d1 = db.AddTable(mt::MakeTable("d1", 800, 2, 64, 2));
    RelId d2 = db.AddTable(mt::MakeTable("d2", 800, 2, 64, 3));
    Query q = QueryBuilder()
                  .Scan(fact)
                  .Probe(d1, 1, 0)
                  .Probe(d2, 2, 0)
                  .Where(fact, 1, CmpOp::kLt, 600)
                  .GroupBy(d1, 1)
                  .Count()
                  .HavingCount(CmpOp::kGt, 10)
                  .Build();
    ExecOptions o = threads;
    o.trace = true;
    add("observability_trace/threads", q, o);
    o = cluster;
    o.trace = true;
    add("observability_trace/cluster", q, o);
    o = Machine(Backend::kSimulated, 2, 2);
    o.trace = true;
    add("observability_trace/sim", q, o);
    Query cq = QueryBuilder()
                   .Scan(fact)
                   .CapturePoint("scan_out")
                   .Probe(d1, 1, 0)
                   .Probe(d2, 2, 0)
                   .CapturePoint("joined")
                   .Build();
    o = threads;
    o.validate = true;
    add("flight_recorder/threads", cq, o);
    o.threads_per_node = 1;
    o.validate = false;
    o.deadline_ms = 15;
    add("flight_recorder/deadline", cq, o);
  }

  // perfbench star_skew: a Zipf(0.8) fact probing 1-3 dimensions with a
  // fact Where, optional GroupBy, and a HAVING variant.
  {
    RelId fact = db.AddTable(
        mt::MakeSkewedTable("fact", 20'000, 4, 1000, 1, 0.8, 1));
    std::vector<RelId> dims;
    for (uint64_t d = 0; d < 3; ++d) {
      dims.push_back(db.AddTable(mt::MakeTable("d" + std::to_string(d + 1),
                                               1000, 2, 100, 2 + d)));
    }
    for (uint32_t probes = 1; probes <= 3; ++probes) {
      for (int variant = 0; variant < 3; ++variant) {
        QueryBuilder qb;
        qb.Scan(fact);
        for (uint32_t d = 1; d <= probes; ++d) qb.Probe(dims[d - 1], d, 0);
        qb.Where(fact, 0, CmpOp::kLt, 2'000 + 6'000 * variant);
        if (variant > 0) {
          qb.GroupBy(dims[probes - 1], 1).Count().Agg(AggFn::kSum, fact, 0);
        }
        if (variant == 2) {
          qb.Having(AggFn::kSum, fact, 0, CmpOp::kGt, 1000)
              .Having(dims[probes - 1], 1, CmpOp::kLe, 90);
        }
        add("star_skew/p" + std::to_string(probes) + "v" +
                std::to_string(variant),
            qb.Build(), threads);
      }
    }
  }

  // perfbench bushy_cluster: the JoinOn snowflake over registered tables
  // (fact -> b -> a, fact -> d -> c) on 2x2 with placement skew, and an
  // explicit tree over the same edges.
  {
    RelId fact = db.AddTable(mt::MakeTable("fact", 40'000, 3, 8'000, 1));
    RelId b = db.AddTable(mt::MakeTable("b", 8'000, 2, 1'000, 2));
    RelId a = db.AddTable(mt::MakeTable("a", 1'000, 2, 50, 3));
    RelId d = db.AddTable(mt::MakeTable("d", 8'000, 2, 1'000, 4));
    RelId c = db.AddTable(mt::MakeTable("c", 1'000, 2, 50, 5));
    ExecOptions o = cluster;
    o.placement_theta = 0.8;
    o.global_lb = false;
    for (int t = 0; t < 6; ++t) {
      const bool four_way = t % 3 != 0;
      const bool group_c = t % 3 == 2;
      QueryBuilder qb;
      qb.JoinOn(fact, 1, b, 0).JoinOn(b, 1, a, 0);
      if (four_way) qb.JoinOn(fact, 2, d, 0).JoinOn(d, 1, c, 0);
      qb.Where(fact, 0, CmpOp::kLt, 10'000 * (1 + t / 3))
          .GroupBy(group_c ? c : a, 1)
          .Count()
          .Agg(AggFn::kSum, fact, 0);
      add("bushy_cluster/t" + std::to_string(t), qb.Build(), o);
    }
    plan::JoinTree tree;
    const int32_t lf = tree.AddLeaf(fact), lb = tree.AddLeaf(b);
    const int32_t fb = tree.AddJoin(lf, lb);
    const int32_t ld = tree.AddLeaf(d), lc = tree.AddLeaf(c);
    const int32_t dc = tree.AddJoin(ld, lc);
    const int32_t fba = tree.AddJoin(fb, tree.AddLeaf(a));
    tree.AddJoin(fba, dc);
    Query tq = QueryBuilder()
                   .JoinOn(fact, 1, b, 0)
                   .JoinOn(b, 1, a, 0)
                   .JoinOn(fact, 2, d, 0)
                   .JoinOn(d, 1, c, 0)
                   .Tree(tree)
                   .Build();
    add("joinon_tree/cluster", tq, o);
    add("joinon_tree/threads", tq, threads);
    add("joinon_tree/sim", tq, sim);
    Query sq = QueryBuilder()
                   .JoinOn(fact, 1, b, 0)
                   .JoinOn(b, 1, a, 0)
                   .JoinOn(fact, 2, d, 0)
                   .JoinOn(d, 1, c, 0)
                   .Shape(opt::TreeShape::kRightDeep)
                   .Build();
    add("joinon_shape/threads", sq, threads);
    // Graph form without join columns over registered tables: the real
    // bridge synthesizes tables from the catalog instead.
    add("join_nocols/threads",
        QueryBuilder().Join(fact, b).Join(b, a).Build(), threads);
  }

  // Predicate folds against the registered [min, max] envelopes: an
  // always-true Where is dropped, an always-false one replaces the
  // relation's whole conjunction.
  {
    RelId fact = db.AddTable(mt::MakeTable("ffact", 5'000, 3, 500, 9));
    RelId d1 = db.AddTable(mt::MakeTable("fd1", 500, 2, 40, 10));
    auto star = [&] { return QueryBuilder().Scan(fact).Probe(d1, 1, 0); };
    add("fold/always_true",
        star().Where(fact, 0, CmpOp::kGe, -1).Where(d1, 1, CmpOp::kLt, 1000)
            .Build(),
        threads);
    add("fold/always_false",
        star().Where(fact, 0, CmpOp::kLt, 0).Where(fact, 1, CmpOp::kEq, 3)
            .Build(),
        threads);
    add("fold/mixed",
        star().Where(fact, 1, CmpOp::kEq, 3).Where(d1, 1, CmpOp::kGt, 1000)
            .Where(fact, 0, CmpOp::kNe, 7)
            .Build(),
        threads);
    add("fold/always_false_sim",
        star().Where(d1, 1, CmpOp::kGt, 1000).Build(), sim);
  }

  // A chain over a catalog-only relation: the real bridge reports the gap
  // instead of failing the plan.
  {
    RelId fact = db.AddTable(mt::MakeTable("gfact", 1'000, 2, 100, 12));
    RelId ghost = db.AddRelation("ghost", 100);
    add("chain_gap/threads",
        QueryBuilder().Scan(fact).Probe(ghost, 1, 0).Build(), threads);
  }
  return cases;
}

inline std::string G17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class T>
std::string List(const std::vector<T>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ", ";
    if constexpr (std::is_floating_point_v<T>) {
      s += G17(v[i]);
    } else {
      s += std::to_string(v[i]);
    }
  }
  return s + "]";
}

/// One case's dump: the Explain text (or its error) plus every Submit-path
/// plan field Explain does not print.
template <class P>
std::string DumpCase(const PlanCase& c, const std::string& explain,
                     const P& p, const std::vector<double>& chain_est) {
  std::string s = "== " + c.name + "\n-- explain\n" + explain;
  s += "\n-- planned\nplan_cost " + G17(p.plan_cost);
  s += "\nfilter_pass " + List(p.filter_pass);
  s += "\ncache_ids " + List(p.cache_ids);
  s += "\ncache_seed_skew " + std::to_string(p.cache_seed_skew);
  s += "\nprefiltered_rows " + std::to_string(p.prefiltered_rows);
  s += "\ncaptures";
  for (const auto& cp : p.captures) {
    s += " " + cp.name + "@" + std::to_string(cp.chain) + "." +
         std::to_string(cp.point);
  }
  s += "\nchain_est " + List(chain_est) + "\n";
  return s;
}

}  // namespace hierdb::api::golden

#endif  // HIERDB_TESTS_PLANNER_CASES_H_
