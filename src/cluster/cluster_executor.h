// Hierarchical cluster executor — the paper's two-level execution model on
// real threads and real data.
//
// The cluster is a set of SM-nodes (thread groups) coupled only by the
// message-passing Fabric; each node owns partitions of every relation and
// a slice of the global bucket space (bucket home = bucket mod nodes).
// Every node runs the same intra-node engine the single-node executor
// runs (mt/node_engine.h: activation queues, blockers, FP apportionment,
// the worker loop and the operator bodies), once per node; this file is
// only the inter-node layer, as in Sections 3 and 4:
//
//   dataflow       an engine's batch bound for another node (a scan or
//                  non-final probe splits its output by the next join
//                  key's home node; a buildscan sends each bucket's
//                  inserts to the bucket's home) travels as one
//                  kTupleBatch message (the inter-node pipelined
//                  redistribution); the receiving node's scheduler queues
//                  it on its engine;
//
//   global level   a starving node broadcasts kStarving; every provider
//                  answers with its best candidate queue (kOffer, benefit
//                  = queued probe activations) or kNoWork; the requester
//                  acquires from the most loaded provider (kAcquire) and
//                  receives the taken activations' rows split by bucket,
//                  plus the hash-table fragments of those buckets (kWork).
//                  Only probe activations are stealable (Section 3.2
//                  rule iv). Acquired fragments are cached so repeated
//                  starving reuses already-copied tables (Section 4
//                  optimization);
//
//   end detection  the coordinator protocol of Section 4: each node
//                  reports EndOfQueuesAtNode per operator once its engine
//                  drained it; after all reports the coordinator runs a
//                  drain-confirm round (covering in-flight steals), then
//                  broadcasts kOpTerminated, which terminates the op in
//                  every engine and unblocks dependent operators.
//
//   chains         a bushy plan decomposes into pipeline chains whose
//                  build (or input) sides may be earlier chains' outputs.
//                  A non-final chain's output stays distributed — each
//                  node keeps the rows its own probes produced — and the
//                  consuming chain's trigger re-scatters them through the
//                  normal routing, so the repartition ships as kTupleBatch
//                  traffic (accounted per chain) and no intermediate ever
//                  funnels through a single machine. EngineOptions'
//                  apply_h1/apply_h2 mean the same on both backends.
//
//   aggregation    each engine folds its final rows into per-worker
//                  partials; partials repartition by group hash to their
//                  home node, which merges and finalizes its groups.
//
// build reuse      with EngineOptions::build_cache set, each join's key
//                  (a base table, or a chain's recursive identity; see
//                  mt/build_cache.h) is looked up without ever waiting on
//                  another query's build. A hit join's nodes probe the
//                  shared B-bucket entry (each its home buckets, and a
//                  provider ships stolen fragments from it), and its
//                  buildscan and build start terminated with no
//                  end-detection round. A non-final chain without a
//                  capture point whose consuming builds all hit is
//                  elided: every op of it starts terminated and its
//                  intermediate stays empty. A miss's home buckets are
//                  published as one entry after a successful run that no
//                  injected fault touched; every other run abandons.
//
// Strategy semantics for the Figure 10 / Section 5.3 comparison:
//   kDP   global load sharing fires only when the *whole node* starves;
//   kFP   an idle thread (its operator has no local work) immediately
//         triggers a steal request for that operator — the per-processor
//         stealing the paper attributes to FP, with its repeated and
//         mutual starving situations.

#ifndef HIERDB_CLUSTER_CLUSTER_EXECUTOR_H_
#define HIERDB_CLUSTER_CLUSTER_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "fault/fault.h"
#include "mt/node_engine.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "net/fabric.h"
#include "obs/trace.h"

namespace hierdb::cluster {

/// A relation horizontally partitioned across SM-nodes.
struct PartitionedTable {
  uint32_t width = 0;
  std::vector<mt::Batch> parts;  ///< one per node

  uint64_t total_rows() const {
    uint64_t n = 0;
    for (const auto& p : parts) n += p.rows();
    return n;
  }
};

/// Hash-partitions `table` on `col` (the declustering the paper assumes).
PartitionedTable PartitionByHash(const mt::Table& table, uint32_t nodes,
                                 uint32_t col);
/// Round-robin partitioning (balanced regardless of value distribution).
PartitionedTable PartitionRoundRobin(const mt::Table& table, uint32_t nodes);
/// Places a Zipf(theta)-sized share of rows at each node — tuple placement
/// skew for the global load-balancing experiments.
PartitionedTable PartitionWithPlacementSkew(const mt::Table& table,
                                            uint32_t nodes, double theta,
                                            uint64_t seed);

/// A multi-chain plan query: the cluster mirror of mt::PipelinePlan.
/// `plan` is a DAG of pipeline chains whose table sources
/// (mt::Source::OfTable) index `tables` and whose chain sources
/// (mt::Source::OfChain) reference earlier chains' distributed outputs.
/// The final chain's output is the query result.
struct PlanQuery {
  std::vector<const PartitionedTable*> tables;  ///< base relations
  mt::PipelinePlan plan;

  /// Structural validation: plan shape (via mt::PipelinePlan), every chain
  /// has at least one join, every table non-null with one part per node.
  Status Validate(uint32_t nodes) const;
};

/// Single-threaded reference (gathers all partitions, runs the joins).
Result<mt::ResultDigest> ReferenceExecute(const PlanQuery& query);

/// The engine fields (mt::EngineOptions) read per node here: `threads`
/// is threads per node, `buckets` the global fragmentation (bucket home =
/// b mod nodes). A session-provided `ctx` supplies one cooperative team of
/// nodes x threads bodies: node workers and node schedulers are roles any
/// body claims in turn, so one body alone completes the query and a
/// saturated pool cannot deadlock it. The context also lends idle beats
/// to other in-flight queries (Park) and carries the cancellation token;
/// the cluster publishes no steal hook of its own, since its activations
/// are node-homed. Trace slots are node x (T+1) + role (0 = the node's
/// scheduler steps, t + 1 = worker t). Each row crossing a capture point
/// is offered once cluster-wide:
/// stolen activations offer on the thief, duplicates are suppressed
/// before delivery.
struct ClusterOptions : mt::EngineOptions {
  ClusterOptions() : EngineOptions(2, 128, 8192, 512, 512) {}

  uint32_t nodes = 4;
  bool global_lb = true;         ///< enable inter-node load sharing
  bool cache_stolen_fragments = true;  ///< Section 4 stolen-queue list
  /// Max queued activations taken per acquisition (a mixed batch counts
  /// once; its rows travel as per-bucket pieces).
  uint32_t steal_batch = 16;
  /// A provider offers an op only with at least this many activations
  /// queued (the offer's benefit is that count).
  uint32_t min_steal = 2;

  /// Optional fault injector (not owned; must outlive Execute). Forwarded
  /// to the fabric for message faults; node stall/crash faults silence
  /// the node's scheduler steps. Node faults are only injected when
  /// liveness detection can catch them (detect_faults on and nodes > 1)
  /// — otherwise they would be guaranteed hangs.
  fault::FaultInjector* injector = nullptr;

  /// Liveness detection. When on, every node's scheduler step broadcasts
  /// kHeartbeat every heartbeat_us and tracks when it last heard from
  /// each peer; silence past liveness_timeout_ms fails the query with
  /// Status::Unavailable naming the suspect node. A global progress
  /// watchdog also fires Unavailable when no message is handled and no
  /// morsel executes for liveness_timeout_ms while the query is
  /// unfinished (the dropped-kTupleBatch case, where every node is alive
  /// but the query can no longer terminate).
  bool detect_faults = false;
  uint32_t heartbeat_us = 500;
  uint32_t liveness_timeout_ms = 250;
};

struct ClusterStats : mt::EngineStats {
  net::FabricStats fabric;
  uint64_t steal_requests = 0;      ///< kStarving broadcasts sent
  uint64_t steals = 0;              ///< kWork bundles received
  /// kWork bundles received for an op after acking its drain: breaks of
  /// the steal protocol's invariant, so always 0.
  uint64_t late_steals = 0;
  /// Queued activations the providers gave up, counted once each however
  /// many per-bucket pieces their rows travelled in.
  uint64_t stolen_activations = 0;
  uint64_t shipped_fragment_rows = 0;
  uint64_t fragment_cache_hits = 0;  ///< fragments skipped thanks to cache
  uint64_t lb_bytes = 0;            ///< kStarving/kOffer/kAcquire/kWork/kNoWork
  uint64_t dataflow_bytes = 0;      ///< kTupleBatch redistribution
  uint64_t protocol_bytes = 0;      ///< end-detection messages
  std::vector<uint64_t> idle_waits_per_node;
  std::vector<uint64_t> busy_per_node;   ///< activations executed per node

  /// Per-chain distributed intermediates, indexed by chain. The final
  /// chain's entry stays zero (its rows become the result digest); a
  /// single-chain plan therefore reports all-zero intermediates.
  struct ChainIntermediate {
    uint64_t intermediate_rows = 0;   ///< rows materialized across nodes
    uint64_t intermediate_bytes = 0;  ///< their in-memory bytes
    uint64_t repartition_rows = 0;    ///< intermediate rows shipped cross-node
    uint64_t repartition_bytes = 0;   ///< their kTupleBatch wire bytes
  };
  std::vector<ChainIntermediate> per_chain;
  uint64_t intermediate_rows = 0;   ///< totals over all non-final chains
  uint64_t intermediate_bytes = 0;

  /// Distributed aggregation: the partial rows shipped to their
  /// partition's home node (kTupleBatch traffic, also included in
  /// dataflow_bytes). agg_partials counts every node's local entries.
  uint64_t agg_repartition_rows = 0;
  uint64_t agg_repartition_bytes = 0;

  /// Faults that fired during the run (zero unless a plan was armed) and
  /// duplicate deliveries the receivers suppressed.
  fault::FaultCounters faults;
  uint64_t dup_messages_dropped = 0;

  /// Max over nodes of busy / mean busy (1.0 = perfectly balanced).
  double NodeImbalance() const;
};

class ClusterExecutor {
 public:
  explicit ClusterExecutor(const ClusterOptions& options);
  ~ClusterExecutor();

  ClusterExecutor(const ClusterExecutor&) = delete;
  ClusterExecutor& operator=(const ClusterExecutor&) = delete;

  /// Executes the query. When `materialized` is non-null the final chain's
  /// output rows — normally digested and dropped node-locally — are kept as
  /// each node's tuple batches and gathered into `*materialized` after the
  /// run (stolen activations contribute on their executing node).
  ///
  /// Plans carrying an AggSpec run distributed aggregation after the chain
  /// DAG terminates: each node folds its share of the final rows into a
  /// local partial table, partials repartition by group-key hash to their
  /// home node via the same tuple-batch shipping as the join dataflow, and
  /// each node merges and finalizes its disjoint partitions. The digest
  /// (and any materialized rows) are then the aggregate rows.
  Result<mt::ResultDigest> Execute(const PlanQuery& query,
                                   ClusterStats* stats = nullptr,
                                   mt::Batch* materialized = nullptr);

 private:
  struct Impl;
  ClusterOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hierdb::cluster

#endif  // HIERDB_CLUSTER_CLUSTER_EXECUTOR_H_
