// Shared helpers for the test suite: tiny canned catalogs, plans and
// configurations so individual tests stay focused on behaviour.

#ifndef HIERDB_TESTS_TEST_UTIL_H_
#define HIERDB_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>

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

/// A deadline fixture at a given size: the session and the query to time
/// and then run. `db` belongs to the caller's fixture.
struct DeadlineFixture {
  api::Session* db = nullptr;
  api::Query query;
};

/// The calibrated size of a deadline fixture: the row count it was built
/// at and a deadline that lands inside a run of its query.
struct DeadlineSize {
  size_t rows = 0;
  double deadline_ms = 0.0;
};

/// A deadline that lands well inside a run of the query: an eighth of the
/// fastest of three runs without a deadline (these arm no timer).
/// `build(rows)` (re)builds the caller's fixture at `rows` rows; starting
/// at `rows`, the count doubles (at most three times)
/// until that eighth clears two timer-wheel ticks. Measured, so deadline
/// tests hold however fast the executor is; the margin absorbs a host
/// that slows down between the measurement and the run it times. Fails
/// the test if the eighth is still under two ticks (the fixture is too
/// small). The caller's fixture is left built at the returned rows.
DeadlineSize DeadlineInsideRun(
    size_t rows, const api::ExecOptions& opts,
    const std::function<DeadlineFixture(size_t rows)>& build);

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
