// Cross-module integration tests: the cluster protocol across node
// counts, and end-to-end agreement between the one-node and the N-node
// executors of the engine.

#include "cluster/cluster_executor.h"
#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "tests/test_util.h"

namespace hierdb {
namespace {

// End-detection message count is exactly 4 (N - 1) wire messages per
// operator for every cluster size (the coordinator's own share is local).
class EndDetectionSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EndDetectionSweep, WireCountMatchesFormula) {
  const uint32_t nodes = GetParam();
  const uint32_t joins = 2;
  mt::Table fact = mt::MakeTable("fact", 6000, joins + 1, 200, 3);
  std::vector<mt::Table> dims;
  std::vector<cluster::PartitionedTable> dim_parts;
  cluster::PartitionedTable fact_parts =
      cluster::PartitionRoundRobin(fact, nodes);
  for (uint32_t j = 0; j < joins; ++j) {
    dims.push_back(mt::MakeTable("dim", 200, 2, 10, 11 + j));
  }
  for (uint32_t j = 0; j < joins; ++j) {
    dim_parts.push_back(cluster::PartitionByHash(dims[j], nodes, 0));
  }
  std::vector<test::ChainJoin> probes;
  for (uint32_t j = 0; j < joins; ++j) {
    probes.push_back({&dim_parts[j], j + 1, 0});
  }
  cluster::PlanQuery q = test::OneChainQuery(&fact_parts, probes);
  cluster::ClusterOptions o;
  o.nodes = nodes;
  o.threads = 2;
  o.buckets = std::max(32u, nodes);
  o.global_lb = false;
  cluster::ClusterExecutor exec(o);
  cluster::ClusterStats stats;
  auto ref = cluster::ReferenceExecute(q).ValueOrDie();
  auto got = exec.Execute(q, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
  const uint64_t nops = 3 * joins + 1;
  const uint64_t wire = 4 * (nodes - 1) * nops;
  uint64_t protocol =
      stats.fabric.by_type[static_cast<size_t>(
          net::MsgType::kEndOfQueuesAtNode)] +
      stats.fabric.by_type[static_cast<size_t>(net::MsgType::kDrainConfirm)] +
      stats.fabric.by_type[static_cast<size_t>(net::MsgType::kOpTerminated)];
  EXPECT_EQ(protocol, wire);
}

INSTANTIATE_TEST_SUITE_P(Nodes, EndDetectionSweep,
                         ::testing::Values(1u, 2u, 3u, 5u));

// The two independent real execution paths (single-node pipeline executor
// and the cluster executor) agree on the same logical chain query.
TEST(Integration, PipelineAndClusterAgree) {
  const uint32_t joins = 3;
  mt::Table fact = mt::MakeTable("fact", 20000, joins + 1, 300, 5);
  std::vector<mt::Table> dims;
  for (uint32_t j = 0; j < joins; ++j) {
    dims.push_back(mt::MakeTable("dim", 300, 2, 30, 21 + j));
  }

  // Path 1: pipeline executor on the gathered tables.
  std::vector<const mt::Table*> tables = {&fact};
  std::vector<uint32_t> dim_ids, cols;
  for (uint32_t j = 0; j < joins; ++j) {
    tables.push_back(&dims[j]);
    dim_ids.push_back(j + 1);
    cols.push_back(j + 1);
  }
  mt::PipelinePlan plan = mt::MakeRightDeepPlan(0, dim_ids, cols);
  mt::PipelineOptions po;
  po.threads = 3;
  po.buckets = 64;
  mt::PipelineExecutor pipe(po);
  auto a = pipe.Execute(plan, tables);
  ASSERT_TRUE(a.ok());

  // Path 2: cluster executor on partitioned data.
  cluster::PartitionedTable fact_parts =
      cluster::PartitionRoundRobin(fact, 3);
  std::vector<cluster::PartitionedTable> dim_parts;
  for (uint32_t j = 0; j < joins; ++j) {
    dim_parts.push_back(cluster::PartitionByHash(dims[j], 3, 0));
  }
  std::vector<test::ChainJoin> probes;
  for (uint32_t j = 0; j < joins; ++j) {
    probes.push_back({&dim_parts[j], j + 1, 0});
  }
  cluster::ClusterOptions co;
  co.nodes = 3;
  co.threads = 2;
  cluster::ClusterExecutor clus(co);
  auto b = clus.Execute(test::OneChainQuery(&fact_parts, probes));
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace hierdb
