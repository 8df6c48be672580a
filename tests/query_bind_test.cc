// End-to-end tests of the optimizer -> real-executor loop: random
// generated queries, bushy/shaped optimization, data synthesis, plan
// translation, and execution under every strategy against the reference.

#include "mt/query_bind.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "opt/bushy_optimizer.h"
#include "opt/query_gen.h"
#include "opt/tree_shapes.h"

namespace hierdb::mt {
namespace {

BoundQuery BindGenerated(uint64_t seed, uint32_t relations,
                         opt::TreeShape shape = opt::TreeShape::kBushy) {
  opt::QueryGenOptions qo;
  qo.num_relations = relations;
  opt::QueryGenerator gen(qo, seed);
  opt::GeneratedQuery q = gen.Generate();
  plan::JoinTree tree =
      opt::ShapedBest(q.graph, q.catalog, {.shape = shape});
  BindOptions bo;
  bo.scale = 0.002;
  bo.seed = seed * 31 + 1;
  auto bound = BindJoinTree(tree, q.graph, q.catalog, bo);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return std::move(bound).value();
}

TEST(QueryBind, ProducesValidatedPlan) {
  BoundQuery bq = BindGenerated(1, 6);
  EXPECT_TRUE(bq.plan.Validate(bq.TablePtrs()).ok());
  EXPECT_EQ(bq.tables.size(), 6u);
  // 5 joins across all chains.
  size_t joins = 0;
  for (const auto& c : bq.plan.chains) joins += c.joins.size();
  EXPECT_EQ(joins, 5u);
}

TEST(QueryBind, ReferenceProducesRows) {
  BoundQuery bq = BindGenerated(2, 6);
  auto ref = ReferenceExecute(bq.plan, bq.TablePtrs());
  ASSERT_TRUE(ref.ok());
  // FK joins: the output matches the largest "child chain" cardinality,
  // which is at least min_rows and positive.
  EXPECT_GT(ref.value().count, 0u);
}

TEST(QueryBind, AllStrategiesMatchReferenceOnGeneratedQueries) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    BoundQuery bq = BindGenerated(seed, 7);
    auto tables = bq.TablePtrs();
    auto ref = ReferenceExecute(bq.plan, tables).ValueOrDie();
    for (LocalStrategy s :
         {LocalStrategy::kDP, LocalStrategy::kFP, LocalStrategy::kSP}) {
      PipelineOptions o;
      o.threads = 3;
      o.buckets = 32;
      o.morsel_rows = 512;
      o.batch_rows = 128;
      o.strategy = s;
      PipelineExecutor exec(o);
      auto got = exec.Execute(bq.plan, tables);
      ASSERT_TRUE(got.ok()) << LocalStrategyName(s) << " seed " << seed;
      EXPECT_EQ(got.value(), ref) << LocalStrategyName(s) << " seed "
                                  << seed;
    }
  }
}

TEST(QueryBind, ShapedTreesExecuteCorrectly) {
  // The same generated query bound under different tree shapes must give
  // the same result multiset (same logical query).
  opt::QueryGenOptions qo;
  qo.num_relations = 6;
  opt::QueryGenerator gen(qo, 17);
  opt::GeneratedQuery q = gen.Generate();
  BindOptions bo;
  bo.scale = 0.002;
  bo.seed = 99;

  ResultDigest first;
  bool have_first = false;
  for (opt::TreeShape shape :
       {opt::TreeShape::kBushy, opt::TreeShape::kRightDeep,
        opt::TreeShape::kZigZag}) {
    plan::JoinTree tree = opt::ShapedBest(q.graph, q.catalog,
                                          {.shape = shape});
    auto bound = BindJoinTree(tree, q.graph, q.catalog, bo);
    ASSERT_TRUE(bound.ok());
    auto tables = bound.value().TablePtrs();
    auto ref = ReferenceExecute(bound.value().plan, tables);
    ASSERT_TRUE(ref.ok()) << opt::TreeShapeName(shape);
    // Same data (same bind seed), same logical join -> same digest, up to
    // column order. Column order differs across shapes, so compare
    // counts (the multiset digest is column-order sensitive).
    if (!have_first) {
      first = ref.value();
      have_first = true;
    } else {
      EXPECT_EQ(ref.value().count, first.count)
          << opt::TreeShapeName(shape);
    }
    PipelineOptions po;
    po.threads = 2;
    po.buckets = 32;
    PipelineExecutor exec(po);
    auto got = exec.Execute(bound.value().plan, tables);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), ref.value()) << opt::TreeShapeName(shape);
  }
}

TEST(QueryBind, ScaleControlsCardinality) {
  opt::QueryGenOptions qo;
  qo.num_relations = 4;
  opt::QueryGenerator gen(qo, 8);
  opt::GeneratedQuery q = gen.Generate();
  opt::BushyOptimizer bushy;
  plan::JoinTree tree = bushy.Best(q.graph, q.catalog);
  BindOptions small{.scale = 0.001, .seed = 1};
  BindOptions large{.scale = 0.004, .seed = 1};
  auto a = BindJoinTree(tree, q.graph, q.catalog, small);
  auto b = BindJoinTree(tree, q.graph, q.catalog, large);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  uint64_t ra = 0, rb = 0;
  for (const auto& t : a.value().tables) ra += t.rows();
  for (const auto& t : b.value().tables) rb += t.rows();
  EXPECT_GT(rb, 2 * ra);
}

TEST(QueryBind, RejectsEmptyTree) {
  opt::QueryGenOptions qo;
  qo.num_relations = 4;
  opt::QueryGenerator gen(qo, 8);
  opt::GeneratedQuery q = gen.Generate();
  plan::JoinTree empty;
  EXPECT_FALSE(BindJoinTree(empty, q.graph, q.catalog, {}).ok());
}

// BindOptions::skew_theta draws FK columns Zipf-distributed over the
// parent key range — the unified attribute-value skew knob. The heaviest
// value must be far above the uniform expectation, and execution must
// still match the reference.
TEST(QueryBind, SkewThetaConcentratesForeignKeys) {
  catalog::Catalog cat;
  cat.AddRelation("child", 5000, 100);
  cat.AddRelation("parent", 100, 100);
  plan::JoinGraph graph(2, {{0, 1, 0.01}});
  plan::JoinTree tree;
  tree.AddJoin(tree.AddLeaf(0, 5000), tree.AddLeaf(1, 100), 5000);

  BindOptions bo{.scale = 1.0, .seed = 3, .min_rows = 16, .skew_theta = 0.9};
  auto bound = BindJoinTree(tree, graph, cat, bo);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const Table& child = bound.value().tables[0];
  ASSERT_EQ(child.rows(), 5000u);
  std::vector<uint64_t> freq(100, 0);
  for (size_t i = 0; i < child.rows(); ++i) {
    int64_t fk = child.batch.at(i, 1);
    ASSERT_GE(fk, 0);
    ASSERT_LT(fk, 100);
    ++freq[static_cast<size_t>(fk)];
  }
  uint64_t top = *std::max_element(freq.begin(), freq.end());
  EXPECT_GT(top, 150u);  // uniform expectation is 50 per parent key

  auto tables = bound.value().TablePtrs();
  auto ref = ReferenceExecute(bound.value().plan, tables).ValueOrDie();
  EXPECT_EQ(ref.count, 5000u);
  PipelineOptions o;
  o.threads = 3;
  o.buckets = 32;
  PipelineExecutor exec(o);
  auto got = exec.Execute(bound.value().plan, tables);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

}  // namespace
}  // namespace hierdb::mt
