// Cross-module integration tests: storage feeding the real executor,
// the cluster protocol across node counts, and end-to-end agreement
// between independent execution paths.

#include <filesystem>

#include "cluster/cluster_executor.h"
#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace hierdb {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("hierdb_integ_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

// Storage -> executor: a fact relation persisted as a partitioned table,
// scanned back through the buffer pool, and joined by the real executor.
// The join result must equal the one computed from the in-memory data the
// table was built from.
TEST(Integration, StoredTableFeedsPipelineExecutor) {
  TempDir dir;
  const uint64_t kRows = 30000;

  // Fact tuples: key = row id, payload = fk into the dimension.
  storage::TableBuilder builder(dir.str(),
                                {.name = "fact", .nodes = 2, .disks = 2});
  mt::Relation original;
  Rng rng(7);
  for (uint64_t i = 0; i < kRows; ++i) {
    mt::Tuple t{static_cast<int64_t>(i),
                static_cast<int64_t>(rng.NextBounded(500))};
    original.push_back(t);
    ASSERT_TRUE(builder.Append(t).ok());
  }
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  // Read the stored partitions back into an mt::Table (key, fk columns).
  storage::BufferPool pool({.frames = 64, .window_pages = 8});
  auto read_back = table.value()->ReadAll(&pool);
  ASSERT_TRUE(read_back.ok());
  ASSERT_EQ(read_back.value().size(), kRows);

  mt::Table fact{"fact", mt::Batch(2)};
  for (const auto& t : read_back.value()) {
    int64_t row[] = {t.key, t.payload};
    fact.batch.AppendRow(row);
  }
  mt::Table fact_mem{"fact_mem", mt::Batch(2)};
  for (const auto& t : original) {
    int64_t row[] = {t.key, t.payload};
    fact_mem.batch.AppendRow(row);
  }
  mt::Table dim = mt::MakeTable("dim", 500, 2, 50, 9);

  mt::PipelinePlan plan = mt::MakeRightDeepPlan(0, {1}, {1});
  mt::PipelineOptions o;
  o.threads = 4;
  o.buckets = 64;
  mt::PipelineExecutor exec(o);

  std::vector<const mt::Table*> stored_tables = {&fact, &dim};
  std::vector<const mt::Table*> mem_tables = {&fact_mem, &dim};
  auto from_storage = exec.Execute(plan, stored_tables);
  ASSERT_TRUE(from_storage.ok());
  mt::PipelineExecutor exec2(o);
  auto from_memory = exec2.Execute(plan, mem_tables);
  ASSERT_TRUE(from_memory.ok());
  // The multisets of joined rows are identical regardless of the
  // cell-major order the storage read-back produced.
  EXPECT_EQ(from_storage.value(), from_memory.value());
  EXPECT_EQ(from_storage.value().count, kRows);
}

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
