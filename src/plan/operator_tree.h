// Operator trees and parallel execution plans.
//
// The operator tree is the "macro-expansion" of the join tree [Hassan94]:
// each hash join becomes a build and a probe operator, each base relation a
// scan. Edges are blocking (build output = hash table) or pipelinable.
// A parallel execution plan = operator tree + operator scheduling (a
// partial order over operators) + operator homes. Scheduling encodes the
// hash constraints (build_i < probe_i) plus the paper's two heuristics:
//   H1: a pipeline chain starts only when every hash table it probes is
//       ready (build_i < driving scan of probe_i's chain);
//   H2: pipeline chains execute one-at-a-time (previous chain's terminal
//       operator < next chain's driving scan).

#ifndef HIERDB_PLAN_OPERATOR_TREE_H_
#define HIERDB_PLAN_OPERATOR_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/join_graph.h"

namespace hierdb::plan {

using OpId = uint32_t;
constexpr OpId kNoOp = UINT32_MAX;

/// Operator kinds. kAggPartial/kAggMerge are the two-phase aggregation
/// appended after the root join: the partial pipelines (any thread folds
/// result tuples into local partial groups), the merge is blocking like a
/// build (it consumes the repartitioned partials and emits nothing
/// downstream — its completed groups are the query result).
enum class OpKind { kScan, kBuild, kProbe, kAggPartial, kAggMerge };

/// One atomic operator of the operator tree.
struct Operator {
  OpId id = 0;
  OpKind kind = OpKind::kScan;
  std::string label;

  RelId rel = 0;             ///< scanned relation (scan only)
  OpId input = kNoOp;        ///< dataflow producer (none for scan)
  OpId build_op = kNoOp;     ///< probe only: the build that made its table
  OpId probe_op = kNoOp;     ///< build only: the probe using its table
  OpId consumer = kNoOp;     ///< dataflow consumer (kNoOp at tree root)

  double input_card = 0.0;   ///< tuples flowing in (0 for scan triggers)
  double output_card = 0.0;  ///< tuples flowing out (0 for build)
  RelSet rels = 0;           ///< base relations under this operator's output

  uint32_t chain = 0;        ///< pipeline chain index

  /// Scan only: fraction of scanned tuples passing the scan-level filter
  /// predicates (1.0 = no filter). The scan reads its full input and
  /// emits input * filter_sel.
  double filter_sel = 1.0;

  bool IsScan() const { return kind == OpKind::kScan; }
  bool IsBuild() const { return kind == OpKind::kBuild; }
  bool IsProbe() const { return kind == OpKind::kProbe; }
  bool IsAgg() const {
    return kind == OpKind::kAggPartial || kind == OpKind::kAggMerge;
  }
  /// Blocking terminal: emits no pipelined output.
  bool IsBlocking() const {
    return kind == OpKind::kBuild || kind == OpKind::kAggMerge;
  }
};

/// A maximal pipeline chain: a driving scan followed by pipelined probes,
/// optionally terminated by a build (when the chain's result is a hash
/// table for a later join).
struct PipelineChain {
  uint32_t id = 0;
  std::vector<OpId> ops;  ///< in dataflow order, ops[0] is the driving scan
};

/// A scheduling constraint: `after` may not start before `before` ends.
struct SchedConstraint {
  OpId before = 0;
  OpId after = 0;
  enum class Origin { kHash, kHeuristic1, kHeuristic2 } origin;
};

/// Parallel execution plan: the input to the execution model (Section 2.2).
/// Operator homes follow the paper's evaluation assumptions: every relation
/// is fully partitioned across all SM-nodes and every operator is executed
/// on all SM-nodes, so homes are implicit (all nodes).
struct PhysicalPlan {
  std::vector<Operator> ops;
  std::vector<PipelineChain> chains;
  std::vector<uint32_t> chain_order;  ///< execution order (H2)
  std::vector<SchedConstraint> constraints;

  const Operator& op(OpId id) const { return ops[id]; }

  uint32_t num_scans() const;
  uint32_t num_joins() const;

  /// Validates structural invariants (dataflow acyclicity, constraint
  /// sanity, chain coverage).
  Status Validate() const;

  std::string ToString() const;
};

struct ExpandOptions {
  /// Heuristic H1: a chain starts only when its hash tables are ready.
  bool apply_h1 = true;
  /// Build-side choice: false (default) picks the smaller input (classic
  /// hash-join heuristic); true builds on the join tree's RIGHT child so
  /// shaped trees (opt/tree_shapes.h) keep their pipeline structure —
  /// right-deep trees become one maximal chain, left-deep trees fully
  /// blocking ladders.
  bool build_on_right_child = false;
  /// Heuristic H2: pipeline chains execute one at a time. Disabling it
  /// yields the paper's Section 3.2 extension — concurrent chains expose
  /// more simultaneously-executable operators, improving load-balancing
  /// opportunities at the price of memory consumption.
  bool serialize_chains = true;

  /// Scan-level filter selectivity per relation id (empty or short =
  /// unfiltered). Applied to the scan's output cardinality; the scan
  /// still reads its full input.
  std::vector<double> scan_filter_sel;

  /// Appends a two-phase aggregation (AggPartial -> AggMerge) after the
  /// root join, with `agg_groups_est` estimated result groups pricing the
  /// partial phase's output and the merge phase's input.
  bool aggregate = false;
  double agg_groups_est = 1.0;
};

/// Expands a join tree into a parallel execution plan. The build side of
/// each join is the smaller input (classic hash-join choice); scheduling
/// applies hash constraints plus heuristics H1 and (optionally) H2.
PhysicalPlan MacroExpand(const JoinTree& tree, const catalog::Catalog& cat,
                         const ExpandOptions& options = {});

}  // namespace hierdb::plan

#endif  // HIERDB_PLAN_OPERATOR_TREE_H_
