// hierdb::api planner — turns one Query into its bridged plans, apart from
// the Session that admits and runs it.
//
// Planning is a pure function of (Query, ExecOptions, PlanCatalog) ->
// Planned, split into named stages. Each stage reads what the earlier ones
// left in Planned, so each is callable (and testable) on its own:
//
//   1. LocalizeQuery       validate the query form, the relation ids, the
//                          self-join and 64-relation limits and the capture
//                          points; build the dense local catalog;
//   2. FoldFilters         fold Where predicates against the registered
//                          [min, max] envelopes (always-true dropped,
//                          always-false collapsing the conjunction) and
//                          estimate per-relation pass fractions;
//   3. ResolveAggregation  check GroupBy/Agg references and resolve HAVING
//                          onto the aggregate output row;
//   4. ChooseTree          build the predicate graph, choose the join tree
//                          (explicit > chain spine > shaped optimization),
//                          estimate the group count and the plan cost;
//   5. BridgeSimulated     macro-expand the tree into the simulator's
//                          physical plan;
//   6. BridgeReal          bind registered or synthesized tables, push
//                          filters into synthesized ones, assign build-cache
//                          identities, attach filters and aggregation to the
//                          pipeline plan and estimate chain cardinalities.
//
// PlanLogical runs stages 1-4. Callers then run the bridges their backend
// reads: the simulator only stage 5, the real backends only stage 6.
//
// Snapshot contract: the stages read the PlanCatalog unlocked, so no
// relation may be registered while a planning call runs. A finished
// Planned copies everything it needs except the registered tables, which
// it points at; PlanCatalog storage never relocates them, so a Planned
// stays valid while later registrations grow the catalog.

#ifndef HIERDB_API_PLANNER_H_
#define HIERDB_API_PLANNER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "mt/column_batch.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "obs/trace.h"
#include "plan/join_graph.h"
#include "plan/operator_tree.h"

namespace hierdb::api {

using catalog::RelId;

class Query;
struct ExecOptions;

/// One relation's registered data; empty for catalog-only relations.
struct TableSlot {
  std::optional<mt::Table> table;
  uint64_t content_hash = 0;  ///< build-cache identity (0 = catalog-only)
  /// Per-column min/max + approximate distinct counts, computed once at
  /// AddTable. The predicate folds read the [min, max] envelope.
  std::vector<mt::ColumnStats> stats;
};

/// What the planner reads: the catalog plus each relation's registered
/// data, aligned with RelIds. A deque never relocates existing elements,
/// so planned queries' table pointers survive later registrations.
struct PlanCatalog {
  catalog::Catalog catalog;
  std::deque<TableSlot> tables;

  RelId AddRelation(std::string name, uint64_t cardinality,
                    uint32_t tuple_bytes = 100);
  /// Registers real data, hashing it and computing its column stats.
  RelId AddTable(mt::Table table);
  /// Registered data / column stats for `id`; nullptr when catalog-only.
  const mt::Table* table(RelId id) const;
  const std::vector<mt::ColumnStats>* stats(RelId id) const;
};

/// One planned query, filled stage by stage (the comments name the stage
/// that sets each group of fields).
struct Planned {
  Planned() = default;
  // `tables` may point into `owned`, so a copy would alias the original's
  // synthesized tables; a move keeps the vector's elements in place.
  Planned(const Planned&) = delete;
  Planned& operator=(const Planned&) = delete;
  Planned(Planned&&) = default;
  Planned& operator=(Planned&&) = default;

  // 1. LocalizeQuery
  catalog::Catalog cat;          ///< local catalog (dense rel ids)
  std::vector<RelId> to_global;  ///< local rel id -> session rel id, sorted
  /// Plan-point capture specs (QueryBuilder::CapturePoint), resolved to
  /// (chain, point) coordinates on mtplan (chain queries compile to one
  /// chain, so chain is always 0).
  struct CapturePointSpec {
    std::string name;
    uint32_t chain = 0;
    uint32_t point = 0;
  };
  std::vector<CapturePointSpec> captures;

  // 2. FoldFilters
  std::vector<std::vector<mt::Predicate>> filters;  ///< per local relation
  /// Per-local-relation pass fractions (stats-driven where column
  /// statistics exist, System R defaults otherwise): what the optimizer,
  /// the admission cost and the simulator price.
  std::vector<double> filter_sel;
  /// filter_sel, but 1.0 once a relation's filters were pushed into its
  /// synthesized bind — the single source the chain-card estimates and
  /// trace plans read, so they stay consistent with the scanned tables.
  std::vector<double> filter_pass;

  // 3. ResolveAggregation
  bool has_agg = false;
  std::vector<mt::Predicate> having;  ///< on aggregate output-row columns

  // 4. ChooseTree
  plan::JoinGraph graph{0, {}};
  plan::JoinTree tree;
  double est_groups = 0.0;
  /// Admission cost (cost-ordered policies): the join tree's cost plus
  /// the estimated aggregation work for GroupBy/Agg queries, over the
  /// filter-adjusted cardinalities.
  double plan_cost = 0.0;

  // 5. BridgeSimulated
  plan::PhysicalPlan pplan;

  // 6. BridgeReal
  bool has_real = false;
  std::string real_gap;                  ///< why real execution is unavailable
  std::vector<mt::Table> owned;          ///< synthesized tables (if any)
  std::vector<const mt::Table*> tables;  ///< local rel id -> data
  mt::PipelinePlan mtplan;
  /// Rows dropped at bind time by pushing Where predicates into the
  /// synthesized tables (ExecutionReport::rows_prefiltered).
  uint64_t prefiltered_rows = 0;
  /// Build-cache identities aligned with `tables` (0 = uncacheable), plus
  /// the synthesis identity (seed/skew/bind parameters) folded into every
  /// key when the tables were synthesized rather than registered.
  std::vector<uint64_t> cache_ids;
  uint64_t cache_seed_skew = 0;
  /// Estimated output rows of every mtplan chain, in chain order.
  std::vector<double> chain_est;
};

Status LocalizeQuery(const Query& q, const ExecOptions& opts,
                     const PlanCatalog& db, Planned* out);
Status FoldFilters(const Query& q, const PlanCatalog& db, Planned* out);
Status ResolveAggregation(const Query& q, const PlanCatalog& db,
                          Planned* out);
Status ChooseTree(const Query& q, const PlanCatalog& db, Planned* out);
Status BridgeSimulated(const Query& q, const ExecOptions& opts, Planned* out);
Status BridgeReal(const Query& q, const ExecOptions& opts,
                  const PlanCatalog& db, Planned* out);

/// Stages 1-4: everything both bridges share.
Status PlanLogical(const Query& q, const ExecOptions& opts,
                   const PlanCatalog& db, Planned* out);

/// Session::Explain's text: the join tree, the simulator's plan and the
/// pipeline plan (or why the real backends cannot run the query). Reads
/// both bridges.
std::string ExplainText(const Query& q, const ExecOptions& opts,
                        const Planned& p);

/// Per-chain estimated cardinalities, with the measured actuals where
/// given; `reused` marks chains a real backend elided (their output came
/// from the build cache, so they have no actual).
std::vector<obs::ChainCard> ChainCards(
    const Planned& p, const std::vector<uint64_t>* actual = nullptr,
    const std::vector<bool>* reused = nullptr);

/// Trace-plan graph of the real bridge, matching the real backends'
/// compiled op space; `actual` (may be empty) annotates chain outputs. On
/// the cluster, aggregated plans append the distributed-aggregation
/// sentinel op (id = compiled op count) its agg-phase spans reference.
std::vector<obs::TraceOp> RealTraceOps(const Planned& p,
                                       const std::vector<uint64_t>& actual,
                                       bool cluster);
/// Trace-plan graph of the simulator's physical plan (operators map 1:1).
std::vector<obs::TraceOp> SimTraceOps(const plan::PhysicalPlan& pplan);

}  // namespace hierdb::api

#endif  // HIERDB_API_PLANNER_H_
