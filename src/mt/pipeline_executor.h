// Multithreaded pipeline executor — the paper's execution model on one
// SM-node, on real threads and real data.
//
// Executes a PipelinePlan (bushy multi-join, decomposed into pipeline
// chains) with a selectable local load-balancing strategy:
//
//   kDP  dynamic processing (the paper's model): work decomposed into
//        self-contained activations; one queue per (operator x thread);
//        primary-queue affinity; any thread consumes any consumable queue;
//        a producer hitting a full queue escapes by processing another
//        activation (procedure-call suspension, Section 3.1);
//
//   kFP  fixed processing [DeWitt90, Boral90]: threads statically
//        allocated to operators in proportion to estimated operator cost
//        at each scheduling stage; a thread whose operator has no work
//        idles — the discretization and cost-error weaknesses the paper
//        measures in Figures 6-8;
//
//   kSP  synchronous pipelining [Shekita93]: no inter-operator queues;
//        each thread claims morsels and carries every chunk through the
//        whole chain (buildscan into build, scan through every probe) by
//        procedure calls; H1 always applies (shared-memory only).
//
// All three run one intra-node engine (mt/node_engine.h), the same engine
// the cluster executor composes once per node: the op space, the
// blockers (hash constraint, H1, H2, source chains), the worker loop, the
// operator bodies, FP's thread apportionment and SP's inline hand-off
// all live there. This
// executor is the one-node boundary: an op that drains on the node is
// terminated at once, a finished cacheable build is published to the
// build cache before its probes unblock, idle threads of other queries
// may run activations through guest slots (cross-query stealing), and
// aggregation partials merge in a second phase on the same context.
//
// Trigger activations are morsel claims on a shared cursor (granularity
// `morsel_rows`). The degree of fragmentation `buckets` applies to the
// build hash tables: builds scatter into per-bucket insert batches, each
// bucket behind its own lock, and `buckets` much higher than the thread
// count spreads a skewed key across many build locks (Section 3.1). Data
// activations are chunks of at most `batch_rows` rows.

#ifndef HIERDB_MT_PIPELINE_EXECUTOR_H_
#define HIERDB_MT_PIPELINE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mt/node_engine.h"
#include "mt/plan.h"
#include "mt/row.h"

namespace hierdb::mt {

struct PipelineOptions : EngineOptions {
  PipelineOptions() : EngineOptions(4, 64, 16384, 1024, 256) {}
};

struct PipelineStats : EngineStats {
  /// Activations per rented worker (cross-query guest helpers excluded).
  std::vector<uint64_t> busy_per_thread;

  /// Load imbalance: max over threads of busy / mean busy (1.0 = perfect).
  double Imbalance() const { return MaxOverMean(busy_per_thread); }
};

/// Executes `plan` over `tables`. The executor is reusable; Execute is not
/// re-entrant.
class PipelineExecutor {
 public:
  explicit PipelineExecutor(const PipelineOptions& options);

  /// Executes the plan. When `materialized` is non-null the final chain's
  /// output rows are additionally collected (per-slot partials, merged at
  /// chain end — the same machinery that materializes non-final chains)
  /// and moved into `*materialized`. Plans carrying an AggSpec return the
  /// aggregate rows instead: every worker folds the final-chain rows it
  /// produces into a private partial hash table, and a second phase on the
  /// same ExecContext merges disjoint group-hash partitions in parallel
  /// (so pooled stealing and cancellation cover aggregation unchanged).
  Result<ResultDigest> Execute(const PipelinePlan& plan,
                               const std::vector<const Table*>& tables,
                               PipelineStats* stats = nullptr,
                               Batch* materialized = nullptr);

 private:
  PipelineOptions options_;
};

}  // namespace hierdb::mt

#endif  // HIERDB_MT_PIPELINE_EXECUTOR_H_
