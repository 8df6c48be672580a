#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "opt/bushy_optimizer.h"

namespace hierdb::test {

catalog::Catalog MakeCatalog(std::initializer_list<uint64_t> cards) {
  catalog::Catalog cat;
  uint32_t i = 0;
  for (uint64_t c : cards) {
    cat.AddRelation("R" + std::to_string(i++), c);
  }
  return cat;
}

Fig2Query MakeFig2Query(uint64_t scale) {
  Fig2Query q;
  // R, S, T, U with R smallest (it builds), as in Figure 2.
  q.catalog = MakeCatalog({scale, 4 * scale, 2 * scale, 8 * scale});
  std::vector<plan::JoinEdge> edges;
  auto sel = [&](uint32_t a, uint32_t b) {
    double ca = static_cast<double>(q.catalog.relation(a).cardinality);
    double cb = static_cast<double>(q.catalog.relation(b).cardinality);
    return std::max(ca, cb) / (ca * cb);
  };
  edges.push_back({0, 1, sel(0, 1)});
  edges.push_back({1, 2, sel(1, 2)});
  edges.push_back({2, 3, sel(2, 3)});
  plan::JoinGraph graph(4, edges);
  opt::BushyOptimizer optz;
  q.tree = optz.Best(graph, q.catalog);
  q.plan = plan::MacroExpand(q.tree, q.catalog);
  return q;
}

SimpleJoin MakeSimpleJoin(uint64_t r_card, uint64_t s_card) {
  SimpleJoin q;
  q.catalog = MakeCatalog({r_card, s_card});
  double sel = static_cast<double>(std::max(r_card, s_card)) /
               (static_cast<double>(r_card) * static_cast<double>(s_card));
  plan::JoinGraph graph(2, {plan::JoinEdge{0, 1, sel}});
  opt::BushyOptimizer optz;
  q.plan = plan::MacroExpand(optz.Best(graph, q.catalog), q.catalog);
  return q;
}

sim::SystemConfig SmallConfig(uint32_t nodes, uint32_t procs) {
  sim::SystemConfig cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = procs;
  cfg.buckets_per_operator = 64;
  cfg.activation_batch_tuples = 64;
  cfg.queue_capacity = 16;
  return cfg;
}

exec::RunMetrics MustRun(const sim::SystemConfig& cfg, exec::Strategy strat,
                         const catalog::Catalog& cat,
                         const plan::PhysicalPlan& plan,
                         const exec::RunOptions& opts) {
  exec::Engine engine(cfg, strat);
  exec::RunResult r = engine.Run(plan, cat, opts);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  return r.metrics;
}

namespace {
// A small cap: each doubling rebuilds the fixture and times it again.
constexpr int kMaxDeadlineDoublings = 3;
}  // namespace

DeadlineSize DeadlineInsideRun(
    size_t rows, const api::ExecOptions& opts,
    const std::function<DeadlineFixture(size_t rows)>& build) {
  double best = std::numeric_limits<double>::infinity();
  for (int doublings = 0;; ++doublings, rows *= 2) {
    const DeadlineFixture f = build(rows);
    best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      auto r = f.db->Submit(f.query, opts).Take();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      best = std::min(best, std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    // The timer wheel ticks every millisecond: keep two ticks at least.
    if (best / 8 >= 2.0 || doublings == kMaxDeadlineDoublings) break;
  }
  EXPECT_GE(best / 8, 2.0) << "fixture too small: runs take " << best
                           << " ms at " << rows << " rows";
  return {rows, best / 8};
}

cluster::PlanQuery OneChainQuery(const cluster::PartitionedTable* input,
                                 const std::vector<ChainJoin>& joins) {
  cluster::PlanQuery q;
  q.tables.push_back(input);
  mt::Chain chain;
  chain.input = mt::Source::OfTable(0);
  for (const ChainJoin& j : joins) {
    q.tables.push_back(j.build);
    chain.joins.push_back(
        {mt::Source::OfTable(static_cast<uint32_t>(q.tables.size() - 1)),
         j.probe_col, j.build_col});
  }
  q.plan.chains.push_back(std::move(chain));
  return q;
}

}  // namespace hierdb::test
