// Tests for the hierarchical cluster executor: partitioning helpers,
// correctness of DP/FP against the reference across node/thread/skew
// configurations, the global load-sharing protocol, the stolen-fragment
// cache, and the operator-end detection protocol's message accounting.

#include "cluster/cluster_executor.h"

#include "fault/fault.h"
#include "gtest/gtest.h"
#include "net/message.h"
#include "tests/test_util.h"

namespace hierdb::cluster {
namespace {

using mt::LocalStrategy;
using mt::LocalStrategyName;
using mt::MakeSkewedTable;
using mt::MakeTable;
using test::OneChainQuery;

// Chain fixture: fact(key, fk1..fkJ) joined against J dims on column 0.
struct ChainFixture {
  ChainFixture(uint32_t nodes, uint32_t joins, size_t fact_rows,
               size_t dim_rows, double placement_skew = 0.0,
               uint64_t seed = 11) {
    fact = MakeTable("fact", fact_rows, joins + 1,
                     static_cast<int64_t>(dim_rows), seed);
    for (uint32_t j = 0; j < joins; ++j) {
      dims.push_back(MakeTable("dim" + std::to_string(j), dim_rows, 2, 100,
                               seed + 100 + j));
    }
    if (placement_skew > 0.0) {
      fact_parts = PartitionWithPlacementSkew(fact, nodes, placement_skew,
                                              seed + 7);
    } else {
      fact_parts = PartitionRoundRobin(fact, nodes);
    }
    for (uint32_t j = 0; j < joins; ++j) {
      dim_parts.push_back(PartitionByHash(dims[j], nodes, 0));
    }
    std::vector<test::ChainJoin> probes;
    for (uint32_t j = 0; j < joins; ++j) {
      probes.push_back({&dim_parts[j], j + 1, 0});
    }
    query = OneChainQuery(&fact_parts, probes);
  }

  mt::Table fact;
  std::vector<mt::Table> dims;
  PartitionedTable fact_parts;
  std::vector<PartitionedTable> dim_parts;
  PlanQuery query;
};

ClusterOptions Opts(uint32_t nodes, uint32_t threads,
                    LocalStrategy s = LocalStrategy::kDP) {
  ClusterOptions o;
  o.nodes = nodes;
  o.threads = threads;
  o.buckets = 64;
  o.morsel_rows = 1000;
  o.batch_rows = 128;
  o.queue_capacity = 32;
  o.strategy = s;
  return o;
}

// ------------------------------------------------------- partitioning ----

TEST(Partitioning, HashPartitionCoversAllRows) {
  mt::Table t = MakeTable("t", 10000, 2, 100, 3);
  PartitionedTable pt = PartitionByHash(t, 4, 0);
  EXPECT_EQ(pt.total_rows(), 10000u);
  EXPECT_EQ(pt.parts.size(), 4u);
  for (const auto& p : pt.parts) EXPECT_GT(p.rows(), 1500u);
}

TEST(Partitioning, RoundRobinIsExactlyBalanced) {
  mt::Table t = MakeTable("t", 1000, 2, 100, 3);
  PartitionedTable pt = PartitionRoundRobin(t, 4);
  for (const auto& p : pt.parts) EXPECT_EQ(p.rows(), 250u);
}

TEST(Partitioning, PlacementSkewConcentratesRows) {
  mt::Table t = MakeTable("t", 10000, 2, 100, 3);
  PartitionedTable pt = PartitionWithPlacementSkew(t, 4, 0.8, 9);
  EXPECT_EQ(pt.total_rows(), 10000u);
  uint64_t max = 0;
  for (const auto& p : pt.parts) max = std::max<uint64_t>(max, p.rows());
  EXPECT_GT(max, 4000u);  // Zipf(0.8) over 4 nodes: top >> 25%
}

TEST(Partitioning, ValidateRejectsWrongPartCount) {
  ChainFixture fx(2, 1, 100, 50);
  EXPECT_FALSE(fx.query.Validate(3).ok());
  EXPECT_TRUE(fx.query.Validate(2).ok());
}

TEST(Partitioning, ValidateRejectsBadColumns) {
  ChainFixture fx(2, 1, 100, 50);
  PlanQuery bad = fx.query;
  bad.plan.chains[0].joins[0].probe_col = 99;
  EXPECT_FALSE(bad.Validate(2).ok());
  bad = fx.query;
  bad.plan.chains[0].joins[0].build_col = 99;
  EXPECT_FALSE(bad.Validate(2).ok());
}

TEST(Partitioning, ValidateRejectsNullTableAndZeroJoins) {
  ChainFixture fx(2, 1, 100, 50);
  PlanQuery null_build = fx.query;
  null_build.tables[1] = nullptr;
  EXPECT_FALSE(null_build.Validate(2).ok());
  PlanQuery null_input = fx.query;
  null_input.tables[0] = nullptr;
  EXPECT_FALSE(null_input.Validate(2).ok());
  EXPECT_FALSE(OneChainQuery(&fx.fact_parts, {}).Validate(2).ok());
}

// ------------------------------------------------------- correctness -----

TEST(Cluster, SingleNodeMatchesReference) {
  ChainFixture fx(1, 2, 8000, 300);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  EXPECT_EQ(ref.count, 8000u);  // FK joins: one match per fact row
  ClusterExecutor exec(Opts(1, 4));
  auto got = exec.Execute(fx.query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

TEST(Cluster, MultiNodeDPMatchesReference) {
  ChainFixture fx(4, 3, 20000, 400);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterExecutor exec(Opts(4, 2));
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  EXPECT_GT(stats.dataflow_bytes, 0u);  // redistribution happened
}

TEST(Cluster, MultiNodeFPMatchesReference) {
  ChainFixture fx(3, 2, 15000, 300);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterExecutor exec(Opts(3, 3, LocalStrategy::kFP));
  auto got = exec.Execute(fx.query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

TEST(Cluster, PlacementSkewStillCorrectDP) {
  ChainFixture fx(4, 2, 20000, 300, /*placement_skew=*/0.9);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterExecutor exec(Opts(4, 2));
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

TEST(Cluster, PlacementSkewStillCorrectFP) {
  ChainFixture fx(4, 2, 20000, 300, /*placement_skew=*/0.9);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterExecutor exec(Opts(4, 2, LocalStrategy::kFP));
  auto got = exec.Execute(fx.query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

TEST(Cluster, AttributeValueSkewStillCorrect) {
  // Zipf-skewed probe column: a few buckets receive most probe tuples.
  const uint32_t nodes = 3;
  mt::Table fact = MakeSkewedTable("fact", 30000, 2, 300, 1, 0.9, 21);
  mt::Table dim = MakeTable("dim", 300, 2, 10, 22);
  PartitionedTable fact_parts = PartitionRoundRobin(fact, nodes);
  PartitionedTable dim_parts = PartitionByHash(dim, nodes, 0);
  PlanQuery q = OneChainQuery(&fact_parts, {{&dim_parts, 1, 0}});
  auto ref = ReferenceExecute(q).ValueOrDie();
  for (LocalStrategy s : {LocalStrategy::kDP, LocalStrategy::kFP}) {
    ClusterExecutor exec(Opts(nodes, 2, s));
    auto got = exec.Execute(q);
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s);
    EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
  }
}

TEST(Cluster, EmptyFactPartitionsHandled) {
  // All fact rows at node 0: nodes 1..3 have empty scan partitions and
  // must starve into stealing (DP) without corrupting termination.
  ChainFixture fx(4, 2, 10000, 200, /*placement_skew=*/0.0);
  mt::Table fact2 = MakeTable("fact", 10000, 3, 200, 5);
  PartitionedTable all_at_zero;
  all_at_zero.width = fact2.width();
  all_at_zero.parts.assign(4, mt::Batch(fact2.width()));
  for (size_t i = 0; i < fact2.rows(); ++i) {
    all_at_zero.parts[0].AppendRow(fact2.batch.row(i));
  }
  PlanQuery q = fx.query;
  q.tables[0] = &all_at_zero;
  auto ref = ReferenceExecute(q).ValueOrDie();
  ClusterExecutor exec(Opts(4, 2));
  auto got = exec.Execute(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
}

TEST(Cluster, RejectsEmptyJoinList) {
  ChainFixture fx(2, 1, 100, 50);
  ClusterExecutor exec(Opts(2, 1));
  EXPECT_FALSE(exec.Execute(OneChainQuery(&fx.fact_parts, {})).ok());
}

TEST(Cluster, SelectiveAndNToMJoinsCorrect) {
  // fk range 2x dim size: ~half the probes miss; dim keys duplicated 2x:
  // hits produce two output rows.
  const uint32_t nodes = 2;
  mt::Table fact = MakeTable("fact", 10000, 2, 400, 31);
  mt::Table dim{"dim", mt::Batch(2)};
  for (int64_t i = 0; i < 200; ++i) {
    for (int rep = 0; rep < 2; ++rep) {
      int64_t row[] = {i, 1000 + rep};
      dim.batch.AppendRow(row);
    }
  }
  PartitionedTable fact_parts = PartitionRoundRobin(fact, nodes);
  PartitionedTable dim_parts = PartitionByHash(dim, nodes, 0);
  PlanQuery q = OneChainQuery(&fact_parts, {{&dim_parts, 1, 0}});
  auto ref = ReferenceExecute(q).ValueOrDie();
  EXPECT_GT(ref.count, 8000u);
  EXPECT_LT(ref.count, 12000u);
  ClusterExecutor exec(Opts(nodes, 2));
  auto got = exec.Execute(q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
}

TEST(Cluster, ProbeActivationsDoNotGrowWithBuckets) {
  // A probe activation carries up to batch_rows rows of any of its node's
  // home buckets, so the probe ops' activation count depends on the rows
  // and the node count, not on the bucket count. Global LB is off: a
  // stolen batch travels split by bucket.
  ChainFixture fx(2, 2, 60000, 300);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  const uint32_t buckets[2] = {16, 256};
  uint64_t acts[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    ClusterOptions o = Opts(2, 2);
    o.buckets = buckets[i];
    o.batch_rows = 64;
    o.global_lb = false;
    obs::FlightRecorder rec({});
    rec.BeginTrace(1);
    o.recorder = &rec;
    o.recorder_query = 1;
    ClusterExecutor exec(o);
    auto got = exec.Execute(fx.query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << "buckets=" << buckets[i];
    // Ops of a 2-join chain: buildscans 0-1, builds 2-3, scan 4, probes
    // 5-6.
    for (const obs::TraceEvent& ev : rec.EndTrace(1)) {
      if (ev.kind == obs::EventKind::kSpan && (ev.op == 5 || ev.op == 6)) {
        acts[i] += ev.activations;
      }
    }
  }
  EXPECT_GT(acts[0], 0u);
  const uint64_t lo = std::min(acts[0], acts[1]);
  const uint64_t hi = std::max(acts[0], acts[1]);
  EXPECT_LE(static_cast<double>(hi), 1.1 * static_cast<double>(lo))
      << "buckets=16: " << acts[0] << ", buckets=256: " << acts[1];
}

// -------------------------------------------------- load sharing ---------

TEST(Cluster, GlobalLBFiresUnderPlacementSkew) {
  // Every fact row sits at node 0 and every probe key is homed at node 1,
  // with 16 dim matches per key: node 1's probe queue backs up while the
  // other nodes idle, so they must steal from it. (A probe activation
  // carries up to batch_rows rows, so a probe that only keeps pace with
  // the scans rarely leaves min_steal activations queued.)
  ClusterOptions o = Opts(4, 2);
  o.queue_capacity = 128;  // deep queues: plenty to steal
  std::vector<int64_t> hot;
  for (int64_t key = 0; key < 400; ++key) {
    if (mt::HashKey(key) % o.buckets % o.nodes == 1) hot.push_back(key);
  }
  ASSERT_FALSE(hot.empty());
  PartitionedTable fact_parts;
  fact_parts.width = 2;
  fact_parts.parts.assign(4, mt::Batch(2));
  for (int64_t i = 0; i < 60000; ++i) {
    const int64_t row[] = {i, hot[static_cast<size_t>(i) % hot.size()]};
    fact_parts.parts[0].AppendRow(row);
  }
  mt::Table dim{"dim", mt::Batch(2)};
  for (int64_t key = 0; key < 400; ++key) {
    for (int64_t rep = 0; rep < 16; ++rep) {
      const int64_t row[] = {key, rep};
      dim.batch.AppendRow(row);
    }
  }
  PartitionedTable dim_parts = PartitionByHash(dim, 4, 0);
  PlanQuery q = OneChainQuery(&fact_parts, {{&dim_parts, 1, 0}});
  auto ref = ReferenceExecute(q).ValueOrDie();
  EXPECT_EQ(ref.count, 60000u * 16);
  ClusterExecutor exec(o);
  ClusterStats stats;
  auto got = exec.Execute(q, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  EXPECT_GT(stats.steal_requests, 0u);
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.stolen_activations, 0u);
  EXPECT_GT(stats.lb_bytes, 0u);
  EXPECT_EQ(stats.late_steals, 0u);
}

TEST(Cluster, GlobalLBCanBeDisabled) {
  ChainFixture fx(3, 2, 15000, 300, /*placement_skew=*/0.9);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterOptions o = Opts(3, 2);
  o.global_lb = false;
  ClusterExecutor exec(o);
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
  EXPECT_EQ(stats.steal_requests, 0u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.lb_bytes, 0u);
}

TEST(Cluster, StolenWorkIsAccounted) {
  // Strong placement skew with tiny morsels generates stealable queues.
  mt::Table fact = MakeTable("fact", 80000, 2, 400, 51);
  mt::Table dim = MakeTable("dim", 400, 2, 10, 52);
  PartitionedTable fact_parts;
  fact_parts.width = 2;
  fact_parts.parts.assign(4, mt::Batch(2));
  for (size_t i = 0; i < fact.rows(); ++i) {
    fact_parts.parts[0].AppendRow(fact.batch.row(i));
  }
  PartitionedTable dim_parts = PartitionByHash(dim, 4, 0);
  PlanQuery q = OneChainQuery(&fact_parts, {{&dim_parts, 1, 0}});
  auto ref = ReferenceExecute(q).ValueOrDie();
  ClusterOptions o = Opts(4, 2);
  o.queue_capacity = 256;
  o.steal_batch = 32;
  ClusterExecutor exec(o);
  ClusterStats stats;
  auto got = exec.Execute(q, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ref);
  if (stats.steals > 0) {
    EXPECT_GT(stats.stolen_activations, 0u);
    EXPECT_GT(stats.lb_bytes, 0u);
  }
  EXPECT_EQ(stats.late_steals, 0u);
}

TEST(Cluster, StolenFragmentsShipFromASharedBuild) {
  // The StolenWorkIsAccounted setup with the dim build served by the
  // build cache: a provider ships the stolen buckets' fragments out of
  // the shared entry, and the thief's answer stays the reference's.
  mt::Table fact = MakeTable("fact", 80000, 2, 400, 51);
  mt::Table dim = MakeTable("dim", 400, 2, 10, 52);
  PartitionedTable fact_parts;
  fact_parts.width = 2;
  fact_parts.parts.assign(4, mt::Batch(2));
  for (size_t i = 0; i < fact.rows(); ++i) {
    fact_parts.parts[0].AppendRow(fact.batch.row(i));
  }
  PartitionedTable dim_parts = PartitionByHash(dim, 4, 0);
  PlanQuery q = OneChainQuery(&fact_parts, {{&dim_parts, 1, 0}});
  auto ref = ReferenceExecute(q).ValueOrDie();
  mt::BuildCache cache;
  ClusterOptions o = Opts(4, 2);
  o.queue_capacity = 256;
  o.steal_batch = 32;
  o.build_cache = &cache;
  o.table_cache_ids = {mt::TableContentHash(fact.batch),
                       mt::TableContentHash(dim.batch)};
  ClusterStats stats;
  ASSERT_TRUE(ClusterExecutor(o).Execute(q, &stats).ok());
  EXPECT_EQ(stats.build_cache_misses, 1u);
  // Steals are likely but not certain in any one run: retry until one
  // ships a fragment, checking every run's answer on the way.
  bool shipped = false;
  for (int run = 0; run < 40 && !shipped; ++run) {
    auto got = ClusterExecutor(o).Execute(q, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << "run " << run;
    EXPECT_EQ(stats.build_cache_hits, 1u);
    EXPECT_EQ(stats.late_steals, 0u);
    shipped = stats.shipped_fragment_rows > 0;
  }
  EXPECT_TRUE(shipped);
}

TEST(Cluster, NoStealAfterDrainAckUnderFabricDelays) {
  // Steals late in a probe op's life: a node that acked the op's drain
  // must not take its work from a node that still has some, or the
  // provider's own ack lets the coordinator terminate the op while the
  // stolen batches are in flight, and their rows are lost downstream.
  // Placement skew keeps nodes starving near the end of every op, one
  // thread per node leaves the schedulers slow to drain, and seeded
  // fabric delays stretch the window between ack and offer.
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ChainFixture fx(4, 2, 12000, 250, /*placement_skew=*/0.8, seed);
    auto ref = ReferenceExecute(fx.query).ValueOrDie();
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.delay_prob = 0.2;
    plan.delay_us = 100;
    fault::FaultInjector injector(plan);
    ClusterOptions o = Opts(4, 1);
    o.injector = &injector;
    o.detect_faults = true;  // message faults need liveness detection on
    ClusterExecutor exec(o);
    ClusterStats stats;
    auto got = exec.Execute(fx.query, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << "seed " << seed;
    EXPECT_EQ(stats.late_steals, 0u) << "seed " << seed;
    EXPECT_GT(stats.faults.delayed, 0u);
  }
}

// ------------------------------------------- end-detection protocol ------

TEST(Cluster, TerminationMessageCountMatchesProtocol) {
  // Per operator: (N-1) EndOfQueuesAtNode to the coordinator, (N-1)
  // DrainConfirm requests out, (N-1) acks back, (N-1) OpTerminated out —
  // 4(N-1) messages per op on the wire (the coordinator's own are local),
  // the 4N total the paper quotes (Section 4).
  ChainFixture fx(3, 2, 5000, 200);
  ClusterOptions o = Opts(3, 2);
  o.global_lb = false;  // keep the wire clean of LB traffic
  ClusterExecutor exec(o);
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok());
  const uint32_t nops = 3 * 2 + 1;
  const uint64_t n1 = 3 - 1;
  auto count = [&](net::MsgType t) {
    return stats.fabric.by_type[static_cast<size_t>(t)];
  };
  EXPECT_EQ(count(net::MsgType::kEndOfQueuesAtNode), nops * n1);
  EXPECT_EQ(count(net::MsgType::kDrainConfirm), nops * 2 * n1);
  EXPECT_EQ(count(net::MsgType::kOpTerminated), nops * n1);
}

TEST(Cluster, NoLeftoverPendingAfterExecution) {
  ChainFixture fx(2, 2, 10000, 300);
  ClusterExecutor exec(Opts(2, 2));
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok());
  // Busy totals must cover every morsel and every data activation that
  // was produced (conservation of work: nothing lost, nothing dropped).
  uint64_t busy = 0;
  for (uint64_t b : stats.busy_per_node) busy += b;
  EXPECT_GT(busy, 0u);
}

// ------------------------------------------------- multi-chain plans -----

// Bushy 3-join fixture: chain0 = S ⋈ R (materialized, distributed), final
// chain = scan U, probe T, probe chain0. Every U row matches exactly one
// T and one chain0 row, so the result has |U| rows.
struct BushyFixture {
  mt::Table r, s, t, u;
  PartitionedTable rp, sp, tp, up;
  PlanQuery query;

  explicit BushyFixture(uint32_t nodes, size_t u_rows = 12000,
                        uint64_t seed = 5) {
    r = MakeTable("R", 100, 2, 10, seed);
    s = MakeTable("S", 400, 2, 100, seed + 1);   // S.fk -> R.key
    t = MakeTable("T", 400, 2, 10, seed + 2);
    u = MakeTable("U", u_rows, 3, 400, seed + 3);  // U.fk1->T, U.fk2->S
    rp = PartitionByHash(r, nodes, 0);
    sp = PartitionRoundRobin(s, nodes);
    tp = PartitionByHash(t, nodes, 0);
    up = PartitionRoundRobin(u, nodes);
    query.tables = {&rp, &sp, &tp, &up};
    mt::Chain c0;
    c0.input = mt::Source::OfTable(1);
    c0.joins.push_back({mt::Source::OfTable(0), 1, 0});
    mt::Chain fin;
    fin.input = mt::Source::OfTable(3);
    fin.joins.push_back({mt::Source::OfTable(2), 1, 0});
    fin.joins.push_back({mt::Source::OfChain(0), 2, 0});
    query.plan.chains.push_back(std::move(c0));
    query.plan.chains.push_back(std::move(fin));
  }
};

TEST(MultiChain, BushyPlanMatchesReferenceDP) {
  BushyFixture fx(3);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  EXPECT_EQ(ref.count, 12000u);
  ClusterExecutor exec(Opts(3, 2));
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  // chain0's output stayed distributed: |S| rows materialized across the
  // nodes, a share of them repartitioned cross-node to the consuming join.
  ASSERT_EQ(stats.per_chain.size(), 2u);
  EXPECT_EQ(stats.per_chain[0].intermediate_rows, 400u);
  EXPECT_EQ(stats.per_chain[0].intermediate_bytes,
            400u * 4 * sizeof(int64_t));
  EXPECT_GT(stats.per_chain[0].repartition_rows, 0u);
  EXPECT_GT(stats.per_chain[0].repartition_bytes, 0u);
  EXPECT_EQ(stats.per_chain[1].intermediate_rows, 0u);
  EXPECT_EQ(stats.intermediate_rows, 400u);
  EXPECT_GT(stats.dataflow_bytes, 0u);
}

TEST(MultiChain, BushyPlanMatchesReferenceFP) {
  BushyFixture fx(2, 8000, 9);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterExecutor exec(Opts(2, 3, LocalStrategy::kFP));
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  EXPECT_EQ(stats.intermediate_rows, 400u);
}

TEST(MultiChain, ConcurrentChainsMatchReference) {
  // H2 off: chain0 and the final chain's builds overlap; the probe over
  // chain0's intermediate still waits for its termination.
  BushyFixture fx(3, 10000, 13);
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  for (LocalStrategy s : {LocalStrategy::kDP, LocalStrategy::kFP}) {
    ClusterOptions o = Opts(3, 2, s);
    o.apply_h2 = false;
    ClusterExecutor exec(o);
    auto got = exec.Execute(fx.query);
    ASSERT_TRUE(got.ok()) << LocalStrategyName(s) << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
  }
}

TEST(MultiChain, ThreeChainPlanMatchesReference) {
  // chain0 = B ⋈ A, chain1 = D ⋈ C, final = scan F, probe both.
  const uint32_t nodes = 3;
  mt::Table a = MakeTable("A", 100, 2, 10, 31);
  mt::Table b = MakeTable("B", 300, 2, 100, 32);
  mt::Table c = MakeTable("C", 80, 2, 10, 33);
  mt::Table d = MakeTable("D", 300, 2, 80, 34);
  mt::Table f = MakeTable("F", 9000, 3, 300, 35);
  PartitionedTable ap = PartitionByHash(a, nodes, 0);
  PartitionedTable bp = PartitionRoundRobin(b, nodes);
  PartitionedTable cp = PartitionByHash(c, nodes, 0);
  PartitionedTable dp = PartitionRoundRobin(d, nodes);
  PartitionedTable fp = PartitionRoundRobin(f, nodes);
  PlanQuery q;
  q.tables = {&ap, &bp, &cp, &dp, &fp};
  mt::Chain c0;
  c0.input = mt::Source::OfTable(1);
  c0.joins.push_back({mt::Source::OfTable(0), 1, 0});
  mt::Chain c1;
  c1.input = mt::Source::OfTable(3);
  c1.joins.push_back({mt::Source::OfTable(2), 1, 0});
  mt::Chain fin;
  fin.input = mt::Source::OfTable(4);
  fin.joins.push_back({mt::Source::OfChain(0), 1, 0});  // F.fk1 -> B.key
  fin.joins.push_back({mt::Source::OfChain(1), 2, 0});  // F.fk2 -> D.key
  q.plan.chains.push_back(std::move(c0));
  q.plan.chains.push_back(std::move(c1));
  q.plan.chains.push_back(std::move(fin));
  auto ref = ReferenceExecute(q).ValueOrDie();
  EXPECT_EQ(ref.count, 9000u);
  // H2 (serialized chains) and H1 (scans wait for their hash tables),
  // each on and off.
  for (int mode = 0; mode < 4; ++mode) {
    ClusterOptions o = Opts(nodes, 2);
    o.apply_h2 = (mode & 1) == 0;
    o.apply_h1 = (mode & 2) == 0;
    ClusterExecutor exec(o);
    ClusterStats stats;
    auto got = exec.Execute(q, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << "h1=" << o.apply_h1 << " h2=" << o.apply_h2;
    ASSERT_EQ(stats.per_chain.size(), 3u);
    EXPECT_EQ(stats.per_chain[0].intermediate_rows, 300u);
    EXPECT_EQ(stats.per_chain[1].intermediate_rows, 300u);
    EXPECT_EQ(stats.intermediate_rows, 600u);
  }
}

TEST(MultiChain, SingleChainReportsZeroIntermediates) {
  ChainFixture fx(2, 2, 6000, 200);
  ClusterExecutor exec(Opts(2, 2));
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(stats.per_chain.size(), 1u);
  EXPECT_EQ(stats.per_chain[0].intermediate_rows, 0u);
  EXPECT_EQ(stats.per_chain[0].repartition_rows, 0u);
  EXPECT_EQ(stats.intermediate_rows, 0u);
  EXPECT_EQ(stats.intermediate_bytes, 0u);
}

TEST(MultiChain, LoadBalancingOnBushyPlanStaysCorrect) {
  // Final-chain input all at node 0: the other nodes starve into the
  // global protocol while chain0's intermediate is already distributed.
  BushyFixture fx(3, 20000, 17);
  PartitionedTable all_at_zero;
  all_at_zero.width = fx.u.width();
  all_at_zero.parts.assign(3, mt::Batch(fx.u.width()));
  for (size_t i = 0; i < fx.u.rows(); ++i) {
    all_at_zero.parts[0].AppendRow(fx.u.batch.row(i));
  }
  fx.query.tables[3] = &all_at_zero;
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterOptions o = Opts(3, 2);
  o.queue_capacity = 256;
  ClusterExecutor exec(o);
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  if (stats.steals > 0) {
    EXPECT_GT(stats.stolen_activations, 0u);
    EXPECT_GT(stats.lb_bytes, 0u);
  }
  EXPECT_EQ(stats.late_steals, 0u);
}

TEST(MultiChain, ValidateRejectsMalformedPlans) {
  BushyFixture fx(2);
  ClusterExecutor exec(Opts(2, 1));
  // Chain with no joins.
  PlanQuery no_joins = fx.query;
  no_joins.plan.chains[0].joins.clear();
  EXPECT_FALSE(exec.Execute(no_joins).ok());
  // Forward chain reference.
  PlanQuery forward = fx.query;
  forward.plan.chains[0].joins[0].build = mt::Source::OfChain(1);
  EXPECT_FALSE(exec.Execute(forward).ok());
  // Partition count mismatch.
  PartitionedTable wrong = PartitionRoundRobin(fx.u, 3);
  PlanQuery bad_parts = fx.query;
  bad_parts.tables[3] = &wrong;
  EXPECT_FALSE(exec.Execute(bad_parts).ok());
  // Non-final chain whose output nothing consumes.
  PlanQuery unconsumed = fx.query;
  unconsumed.plan.chains[1].joins.pop_back();  // drop the probe of chain0
  EXPECT_FALSE(exec.Execute(unconsumed).ok());
}

// ------------------------------------------------ direct-address probe ---

// chain0's output (S ⋈ R) is built on S's key, unique and dense: every
// node indexes its home buckets of that chain-output build as it does
// the base-table builds of R and T. With global LB off no batch is a
// stolen piece, so every probe batch takes an index.
TEST(DenseProbe, UniqueChainOutputBuildTakesTheIndex) {
  for (uint32_t nodes : {1u, 2u, 3u}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    BushyFixture fx(nodes, 9000, 17);
    auto ref = ReferenceExecute(fx.query).ValueOrDie();
    for (LocalStrategy s : {LocalStrategy::kDP, LocalStrategy::kFP}) {
      ClusterOptions o = Opts(nodes, 2, s);
      o.global_lb = false;
      ClusterStats stats;
      auto got = ClusterExecutor(o).Execute(fx.query, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), ref) << LocalStrategyName(s);
      EXPECT_GT(stats.direct_probes, 0u) << LocalStrategyName(s);
      EXPECT_EQ(stats.chained_probes, 0u) << LocalStrategyName(s);
    }
  }
}

// Global LB on over a unique dim, every fact row at node 0 and every key
// homed at node 1: mixed batches take node 1's index, a stolen piece
// (one bucket, a fragment) the chained tables, and the answer is the
// reference's. Whether a steal happens depends on timing, so only its
// consequence is asserted.
TEST(DenseProbe, GlobalLBOverUniqueDimsKeepsTheDigest) {
  ClusterOptions o = Opts(4, 2);
  o.queue_capacity = 128;
  std::vector<int64_t> hot;
  for (int64_t key = 0; key < 400; ++key) {
    if (mt::HashKey(key) % o.buckets % o.nodes == 1) hot.push_back(key);
  }
  ASSERT_FALSE(hot.empty());
  PartitionedTable fact_parts;
  fact_parts.width = 2;
  fact_parts.parts.assign(4, mt::Batch(2));
  for (int64_t i = 0; i < 60000; ++i) {
    const int64_t row[] = {i, hot[static_cast<size_t>(i) % hot.size()]};
    fact_parts.parts[0].AppendRow(row);
  }
  mt::Table dim = MakeTable("dim", 400, 2, 10, 53);
  PartitionedTable dim_parts = PartitionByHash(dim, 4, 0);
  PlanQuery q = OneChainQuery(&fact_parts, {{&dim_parts, 1, 0}});
  auto ref = ReferenceExecute(q).ValueOrDie();
  EXPECT_EQ(ref.count, 60000u);
  for (int run = 0; run < 5; ++run) {
    ClusterStats stats;
    auto got = ClusterExecutor(o).Execute(q, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), ref) << "run " << run;
    EXPECT_EQ(stats.late_steals, 0u);
    EXPECT_GT(stats.direct_probes, 0u);
    if (stats.stolen_activations > 0) EXPECT_GT(stats.chained_probes, 0u);
  }
}

// --------------------------------------------------------- sweeps --------

// Strategies x nodes x threads x placement skew x data-activation sizes.
class ClusterSweep
    : public ::testing::TestWithParam<
          std::tuple<LocalStrategy, uint32_t, uint32_t, double, uint32_t>> {};

TEST_P(ClusterSweep, MatchesReference) {
  auto [strategy, nodes, threads, skew, batch_rows] = GetParam();
  ChainFixture fx(nodes, 2, 12000, 250, skew,
                  /*seed=*/nodes * 1000 + threads * 10 +
                      static_cast<uint64_t>(skew * 10));
  auto ref = ReferenceExecute(fx.query).ValueOrDie();
  ClusterOptions o = Opts(nodes, threads, strategy);
  o.batch_rows = batch_rows;
  ClusterExecutor exec(o);
  ClusterStats stats;
  auto got = exec.Execute(fx.query, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), ref);
  EXPECT_EQ(stats.late_steals, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterSweep,
    ::testing::Combine(::testing::Values(LocalStrategy::kDP,
                                         LocalStrategy::kFP),
                       ::testing::Values<uint32_t>(1, 2, 4),
                       ::testing::Values<uint32_t>(1, 3),
                       ::testing::Values(0.0, 0.8),
                       ::testing::Values<uint32_t>(1, 512)));

}  // namespace
}  // namespace hierdb::cluster
