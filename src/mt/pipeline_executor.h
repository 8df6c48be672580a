// General multithreaded pipeline executor — the paper's execution model on
// real threads and real data.
//
// Executes a PipelinePlan (bushy multi-join, decomposed into pipeline
// chains) on one SM-node with a selectable local load-balancing strategy:
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
//        each thread claims scan morsels and carries every tuple through
//        the whole probe chain by procedure calls (shared-memory only).
//
// Operator scheduling follows Section 2.2: hash constraints
// (build before probe), heuristic H1 (a chain's scan waits for its hash
// tables), heuristic H2 (chains execute one at a time); H1/H2 can be
// disabled to reproduce the concurrent-chains discussion of Section 3.2.
//
// Trigger activations are morsel claims on a shared cursor (granularity
// `morsel_rows`). The degree of fragmentation `buckets` applies to the
// build hash tables: builds scatter into per-bucket insert batches, each
// bucket behind its own lock, and `buckets` much higher than the thread
// count spreads a skewed key across many build locks (Section 3.1). Data
// activations are chunks of at most `batch_rows` rows, whatever buckets
// their rows fall in, routed to the producer's own queue (other threads
// steal from it). A probe looks each row up in its bucket's table through
// one batched kernel that returns the batch's match list (ProbeMatches,
// mt/row_table.h); it then joins that list in chunks of at most
// `batch_rows` rows, which it forwards, aggregates, digests or
// materializes in bulk.

#ifndef HIERDB_MT_PIPELINE_EXECUTOR_H_
#define HIERDB_MT_PIPELINE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/strategy.h"
#include "mt/build_cache.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace hierdb::mt {

/// The strategy enum is shared by all backends (common/strategy.h); these
/// aliases keep the historical mt::LocalStrategy spelling working.
using LocalStrategy = hierdb::Strategy;

inline const char* LocalStrategyName(LocalStrategy s) {
  return StrategyName(s);
}

/// The options both real-thread executors take: the intra-node engine's
/// knobs and the per-query plumbing a session wires in. PipelineOptions
/// and cluster::ClusterOptions derive from it, each with its own defaults
/// for the five sizing knobs.
struct EngineOptions {
  uint32_t threads;         ///< workers (per node on the cluster)
  uint32_t buckets;         ///< build-table fragmentation per join
  uint32_t morsel_rows;     ///< trigger-activation granularity
  uint32_t batch_rows;      ///< max rows per data activation
  uint32_t queue_capacity;  ///< flow control (activations per queue)
  LocalStrategy strategy = LocalStrategy::kDP;
  /// FP only: multiplicative distortion applied to per-operator cost
  /// estimates, indexed by compiled op id (see the executors'
  /// CompiledOpCount); empty = exact estimates.
  std::vector<double> fp_cost_distortion;

  /// Where worker threads come from: a session-provided context rents
  /// pooled workers, parks idle ones into cross-query stealing, and
  /// carries the cooperative-cancellation token (common/exec_context.h).
  /// Null (white-box callers) spawns a ThreadSpawnContext per Execute.
  ExecContext* ctx = nullptr;

  /// Per-operator execution tracing: when set, every worker keeps
  /// per-(slot, op) span aggregates (two clock reads per activation) and
  /// the executor emits them — plus cache, steal and (cluster) fabric
  /// instants — into the sink at run end, cancelled and failed runs
  /// included. Null reduces the feature to one pointer check.
  obs::TraceSink* trace = nullptr;

  /// Session flight recorder (obs/recorder.h): steal, build-cache and
  /// (cluster) fabric/heartbeat instants are mirrored into the always-on
  /// black box. Null = one pointer check per site.
  obs::FlightRecorder* recorder = nullptr;
  /// Query sequence tag for recorder events (0 = untagged).
  uint64_t recorder_query = 0;

  /// Plan-point row captures (QueryBuilder::CapturePoint): every row
  /// crossing a bound (chain, point) is offered to its sink exactly once,
  /// whichever worker (or node) carries it. Empty = no capture work.
  std::vector<CaptureSink> captures;

  /// Shared build-side reuse (mt/build_cache.h): when set, every build
  /// BuildCacheKeyFor can key — a base table with a nonzero entry in
  /// `table_cache_ids` (aligned with the executor's table set), or a
  /// chain whose subtree tables all have one — is looked up in, and on a
  /// miss published to, the cache (see ResolveBuilds). Null disables
  /// reuse.
  BuildCache* build_cache = nullptr;
  std::vector<uint64_t> table_cache_ids;
  uint64_t cache_seed_skew = 0;

 protected:
  EngineOptions(uint32_t threads, uint32_t buckets, uint32_t morsel_rows,
                uint32_t batch_rows, uint32_t queue_capacity)
      : threads(threads),
        buckets(buckets),
        morsel_rows(morsel_rows),
        batch_rows(batch_rows),
        queue_capacity(queue_capacity) {}
};

struct PipelineOptions : EngineOptions {
  PipelineOptions() : EngineOptions(4, 64, 16384, 1024, 256) {}

  bool apply_h1 = true;         ///< chain scan waits for its hash tables
  bool apply_h2 = true;         ///< chains execute one at a time
};

/// One run's build-cache resolution, indexed by global join id (joins
/// numbered chain by chain, as both executors number them) and by chain.
struct ResolvedBuilds {
  /// Non-null: the join's bucket tables, shared from the cache (a hit).
  std::vector<std::shared_ptr<const BucketTables>> tables;
  /// Set: this run is the builder of keys[join] and must Publish it or
  /// Abandon it.
  std::vector<char> publish;
  std::vector<BuildKey> keys;
  /// Per chain: elided — a non-final chain without a capture point whose
  /// consuming builds all hit. Its output is never produced.
  std::vector<bool> chain_reused;
  uint64_t hits = 0;    ///< builds served by the cache
  uint64_t misses = 0;  ///< cacheable builds this run executes

  /// Abandons every key this run still holds as builder.
  void AbandonPending(BuildCache* cache);
};

/// Resolves the builds of `plan` against options.build_cache (nothing
/// when it is null): from the final chain backwards, each cacheable build
/// of a chain that runs is acquired, and a chain is elided when it is not
/// final, carries no capture point, and every build consuming it hit (an
/// elided chain's own builds are never looked up). `build_op(join)` maps a
/// join to the executor's build op id for the kCacheHit / kCacheMiss trace
/// events and recorder instants. With `may_wait` an acquisition may wait
/// on another query's in-flight build until this run holds a builder
/// entry of its own (never after: hold-and-wait); without it, it never
/// waits.
ResolvedBuilds ResolveBuilds(const EngineOptions& options,
                             const PipelinePlan& plan, bool may_wait,
                             const std::function<uint32_t(uint32_t)>& build_op);

struct PipelineStats {
  uint64_t morsels = 0;           ///< trigger activations executed
  uint64_t data_activations = 0;  ///< batch activations executed
  uint64_t batches_emitted = 0;
  uint64_t escapes = 0;           ///< full-queue procedure-call escapes
  /// Consumptions from non-primary queues: work that migrated between
  /// threads. (Under FP a probe batch queues on one of the probe's own
  /// threads, not on its producer's, so it counts only when another of the
  /// probe's threads takes it.)
  uint64_t nonprimary = 0;
  uint64_t idle_waits = 0;        ///< waits with no runnable work
  uint64_t fp_safety_escapes = 0; ///< FP deadlock valve firings (should be 0)
  uint64_t build_cache_hits = 0;  ///< builds satisfied from the shared cache
  uint64_t build_cache_misses = 0;///< cacheable builds executed locally
  /// Per chain: elided because every build consuming it hit the cache
  /// (rows_per_chain then reads 0 without having been measured).
  std::vector<bool> chain_reused;
  uint64_t rows_filtered = 0;     ///< rows dropped by scan-level predicates
  uint64_t agg_groups = 0;        ///< result groups (plans with agg)
  uint64_t agg_partials = 0;      ///< partial-table entries merged in phase 2
  /// Activations per rented worker (cross-query guest helpers excluded).
  std::vector<uint64_t> busy_per_thread;
  /// Rows produced by each chain's terminal operator (the chain's actual
  /// output cardinality; for aggregated plans the final entry counts the
  /// pre-aggregation join rows). Always measured, tracing on or off.
  std::vector<uint64_t> rows_per_chain;

  /// Load imbalance: max over threads of busy / mean busy (1.0 = perfect).
  double Imbalance() const;
};

/// Executes `plan` over `tables`. The executor is reusable; Execute is not
/// re-entrant.
class PipelineExecutor {
 public:
  explicit PipelineExecutor(const PipelineOptions& options);
  ~PipelineExecutor();

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Executes the plan. When `materialized` is non-null the final chain's
  /// output rows are additionally collected (per-thread partials, merged at
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

  /// Number of compiled operators for the given plan (to size
  /// fp_cost_distortion before Execute).
  static uint32_t CompiledOpCount(const PipelinePlan& plan);

 private:
  struct Activation;
  struct OpState;
  struct Shared;
  class BoundedQueue;

  PipelineOptions options_;
  std::unique_ptr<Shared> shared_;  // per-run state

  // --- execution machinery (defined in .cc) ---
  void WorkerLoop(uint32_t self);
  bool RunOne(uint32_t self);
  /// Cross-query steal hook: runs at most one activation on a guest slot.
  bool RunOneForeign();
  /// Resolves a trigger op's source (or marks a prebuilt build finished)
  /// and returns its morsel count. Pre: lock on state_mu held.
  size_t ResolveSourceLocked(OpState& op);
  bool ClaimMorsel(uint32_t self, uint32_t op_id);
  void ExecuteData(uint32_t self, Activation&& act);
  void ExecuteMorsel(uint32_t self, uint32_t op_id, size_t begin, size_t end);
  /// Queues `rows` for `dst_op` on column QueueColumn(dst_op, bucket):
  /// `bucket` is the bucket for a build insert and the producer's slot for
  /// a probe batch (its rows may span buckets).
  void Emit(uint32_t self, uint32_t dst_op, uint32_t bucket, Batch&& rows);
  /// `bucket % threads`, except that under FP a probe batch goes to one of
  /// the probe's threads, `lo + bucket % (hi - lo)` of its range.
  uint32_t QueueColumn(uint32_t dst_op, uint32_t bucket) const;
  void FlushOutbox(uint32_t self);
  bool RunAllowedWhileStuck(uint32_t self, bool unrestricted);
  void FinishActivation(uint32_t op_id);
  void OnOpEnded(uint32_t op_id);
  void RecomputeFpAssignment();
  bool ThreadMayRun(uint32_t self, uint32_t op_id) const;
  /// Phase-2 aggregation: claims group-hash partitions and merges every
  /// slot's partials for them (runs on SpawnWorkers bodies).
  void AggMergeWorker(bool want_rows);
  /// Folds one activation into the per-(slot, op) trace cell. Pre:
  /// tracing is on (shared_->trace != nullptr).
  void TraceActivation(uint32_t self, uint32_t op_id, uint64_t t0,
                       uint64_t rows_in, uint64_t rows_out);
  /// Emits the accumulated span cells into the sink (every exit path of
  /// Execute, cancelled/failed runs included).
  void EmitTraceCells();
  /// Abandons build-cache offers a torn-down run will never publish.
  void AbandonPendingOffers();

  Result<ResultDigest> ExecuteSP(const PipelinePlan& plan,
                                 const std::vector<const Table*>& tables,
                                 PipelineStats* stats, Batch* materialized);
};

}  // namespace hierdb::mt

#endif  // HIERDB_MT_PIPELINE_EXECUTOR_H_
