// Shared helpers for the test suite: tiny canned catalogs, plans and
// configurations so individual tests stay focused on behaviour.

#ifndef HIERDB_TESTS_TEST_UTIL_H_
#define HIERDB_TESTS_TEST_UTIL_H_

#include <cstdint>

#include "api/session.h"
#include "catalog/catalog.h"
#include "cluster/cluster_executor.h"
#include "exec/engine.h"
#include "opt/workload.h"
#include "plan/join_graph.h"
#include "plan/operator_tree.h"
#include "sim/config.h"

namespace hierdb::test {

/// A catalog with relations R0..R{n-1} of the given cardinalities.
catalog::Catalog MakeCatalog(std::initializer_list<uint64_t> cards);

/// The paper's Figure 2 query: four relations joined along a chain-ish
/// acyclic graph, producing a bushy tree with three joins.
struct Fig2Query {
  catalog::Catalog catalog;
  plan::JoinTree tree;
  plan::PhysicalPlan plan;
};
Fig2Query MakeFig2Query(uint64_t scale = 1000);

/// A two-relation join (the Section 3.3 example).
struct SimpleJoin {
  catalog::Catalog catalog;
  plan::PhysicalPlan plan;
};
SimpleJoin MakeSimpleJoin(uint64_t r_card, uint64_t s_card);

/// Small fast system configuration for engine tests.
sim::SystemConfig SmallConfig(uint32_t nodes, uint32_t procs);

/// Runs a plan and requires success; returns the metrics.
exec::RunMetrics MustRun(const sim::SystemConfig& cfg, exec::Strategy strat,
                         const catalog::Catalog& cat,
                         const plan::PhysicalPlan& plan,
                         const exec::RunOptions& opts = {});

/// A deadline that lands well inside a run of `q` on `db`: an eighth of
/// the fastest of three runs without a deadline (these arm no timer).
/// Measured, so deadline tests hold however fast the executor is; the
/// margin absorbs a host that slows down between the measurement and the
/// run it times. Fails the test if the eighth is under two timer-wheel
/// ticks (the fixture is too small).
double DeadlineInsideRun(api::Session& db, const api::Query& q,
                         const api::ExecOptions& opts);

/// One probe of a single-chain cluster query.
struct ChainJoin {
  const cluster::PartitionedTable* build = nullptr;
  uint32_t probe_col = 0;
  uint32_t build_col = 0;
};

/// A one-chain cluster query: `input` (table 0) scanned and piped through
/// `joins` in order (join j's build side is table j + 1).
cluster::PlanQuery OneChainQuery(const cluster::PartitionedTable* input,
                                 const std::vector<ChainJoin>& joins);

}  // namespace hierdb::test

#endif  // HIERDB_TESTS_TEST_UTIL_H_
