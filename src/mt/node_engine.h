// The intra-node engine: the paper's shared-memory execution model for
// one SM-node, on real threads and real data, under each of its three
// local strategies (DP, FP, SP). Both real backends run it:
// mt::PipelineExecutor drives one engine, cluster::ClusterExecutor drives
// one per node (DP and FP) and adds only the inter-node layer (fabric
// routing, end detection, global load balancing, repartition accounting
// and the distributed aggregation merge).
//
// Op space. A plan's chains compile chain by chain; chain c with k joins
// owns 3k+1 ops from its base:
//   base + j           buildscan of join j  (trigger: morsels over the
//                                             build source)
//   base + k + j       build of join j      (data: bucket inserts)
//   base + 2k          scan                 (trigger: morsels over the
//                                             chain input)
//   base + 2k + 1 + j  probe of join j      (data: probe batches)
// Build is a data op of its own because its inserts may come from any
// node. Joins are numbered globally chain by chain (the build-table index).
//
// Blockers. An op becomes consumable once all its blockers terminated:
//   - a buildscan and its build wait for the build source chain (when the
//     source is a chain) and, under H2, for the previous chain;
//   - a scan waits for its input chain, under H1 for its chain's builds,
//     and under H2 for the previous chain;
//   - probe j waits for build j (the hash constraint).
// The engine reports when an op drained on this node (Link::OnDrained:
// a trigger ran all its morsels; a data op's producer terminated and
// nothing of it is queued or running); the executor decides when the op
// terminates (Terminate), and termination unblocks dependents.
//
// Workers. One activation queue per (data op x thread); a worker runs its
// primary queues, then claims trigger morsels, then steals within the
// node. A producer whose destination queue is full stages the activation
// in its outbox and helps while stuck (procedure-call suspension, Section
// 3.1). Under FP, threads are apportioned to the consumable ops by
// estimated cost (largest remainder), recomputed whenever an op
// terminates or unblocks. Under SP (synchronous pipelining, Shekita93)
// nothing is queued: a local hand-off runs its consumer at once in the
// emitting slot, so a morsel is carried buildscan -> build, or scan ->
// probe -> ... -> terminal, by procedure calls. An inline call is legal
// only into a consumable op; SP therefore implies H1 (a scan runs only
// once every probe of its chain is consumable), and the recursion is
// never deeper than the chain's join count. A trace span's busy time is
// exclusive: an inline callee's time is not counted again in its
// caller's.
//
// Operator bodies. A morsel filters, projects, and splits its rows by
// destination node (scan: the first join key's home node; buildscan: the
// bucket, homed at bucket mod nodes). A probe batch becomes one match list
// (ProbeBatch, mt/row_table.h). When a join's build completes on this
// node (its build op terminates, or the build cache hands it over at
// construction), the engine checks, before the probe can become
// consumable, whether the key is unique and dense over this node's home
// buckets; if so, a mixed probe batch looks its keys up in that
// direct-address index (no hash, no chain walk). A cache hit carries the
// index of its publishing layout; a hit from another node count gets its
// own for this run. A stolen piece (one bucket, a fragment) and a build
// that failed the check keep the chained tables. EngineStats counts the
// probe batches each lookup served. A non-final probe joins the match
// list in chunks of at most batch_rows rows and routes each chunk to the
// next join key's home node.
// A terminal probe hands the match list itself to its consumer: the final
// digest (ResultDigest::AddJoined) and the GROUP BY partial
// (AggTable::AccumulateJoined) read probe and build rows in place, and
// rows are joined only where they are stored — a capture point bound at
// the probe's output, or a materialized chain output. With one node every
// split has a single destination and no hashing.

#ifndef HIERDB_MT_NODE_ENGINE_H_
#define HIERDB_MT_NODE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/strategy.h"
#include "mt/agg.h"
#include "mt/build_cache.h"
#include "mt/column_batch.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "mt/row_table.h"
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
  /// H1: a chain's scan waits for its hash tables (always on under SP).
  bool apply_h1 = true;
  /// H2: chains execute one at a time, in plan order; off lets a chain
  /// start as soon as its own source chains terminated.
  bool apply_h2 = true;
  /// FP only: multiplicative distortion applied to per-operator cost
  /// estimates, indexed by compiled op id (CompiledOpCount); empty =
  /// exact estimates.
  std::vector<double> fp_cost_distortion;

  /// Where worker threads come from: a session-provided context rents
  /// pooled workers, parks idle ones into cross-query stealing, and
  /// carries the cooperative-cancellation token (common/exec_context.h).
  /// Null (white-box callers) spawns a ThreadSpawnContext per Execute.
  ExecContext* ctx = nullptr;

  /// Session flight recorder (obs/recorder.h), the one sink of every
  /// event the executor writes: steal, build-cache and (cluster)
  /// fabric/heartbeat instants, each tagged with `recorder_query`. When
  /// the recorder traces that query (FlightRecorder::BeginTrace), every
  /// worker also keeps per-(slot, op) span aggregates (two clock reads
  /// per activation), written at run end, cancelled and failed runs
  /// included; the cluster adds its aggregation-phase spans and
  /// fragment-cache hits. Null = one pointer check per site.
  obs::FlightRecorder* recorder = nullptr;
  /// The query's admission seq, the tag of its events (0 = untagged).
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

/// Number of compiled ops of `plan` (3k+1 per chain of k joins), the
/// length fp_cost_distortion must have.
uint32_t CompiledOpCount(const PipelinePlan& plan);

/// First op id of each chain in the compiled op space.
std::vector<uint32_t> ChainOpBases(const PipelinePlan& plan);

/// One run's build-cache resolution, indexed by global join id and by
/// chain.
struct ResolvedBuilds {
  /// Non-null: the join's build, shared from the cache (a hit).
  std::vector<std::shared_ptr<const JoinBuild>> tables;
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
/// elided chain's own builds are never looked up). kCacheHit / kCacheMiss
/// trace events and recorder instants name the join's build op. With
/// `may_wait` an acquisition may wait on another query's in-flight build
/// until this run holds a builder entry of its own (never after:
/// hold-and-wait); without it, it never waits.
ResolvedBuilds ResolveBuilds(const EngineOptions& options,
                             const PipelinePlan& plan, bool may_wait);

/// The counters every real backend reports, summed over nodes and slots.
struct EngineStats {
  uint64_t morsels = 0;           ///< trigger activations executed
  uint64_t data_activations = 0;  ///< batch activations executed
  uint64_t batches_emitted = 0;   ///< data activations queued locally
  uint64_t escapes = 0;           ///< full-queue procedure-call escapes
  /// Consumptions from non-primary queues: work that migrated between
  /// threads of a node. (Under FP a probe batch queues on one of the
  /// probe's own threads, not on its producer's, so it counts only when
  /// another of the probe's threads takes it.)
  uint64_t nonprimary = 0;
  uint64_t idle_waits = 0;        ///< worker passes with no runnable work
  uint64_t fp_safety_escapes = 0; ///< FP help-while-stuck firings
  uint64_t rows_filtered = 0;     ///< rows dropped by scan-level predicates
  /// Rows produced by each chain's terminal operator (the chain's actual
  /// output cardinality; for aggregated plans the final entry counts the
  /// pre-aggregation join rows). Always measured, tracing on or off.
  std::vector<uint64_t> rows_per_chain;
  uint64_t agg_groups = 0;        ///< result groups (plans with agg)
  uint64_t agg_partials = 0;      ///< partial-table entries merged
  uint64_t build_cache_hits = 0;  ///< builds satisfied from the shared cache
  uint64_t build_cache_misses = 0;///< cacheable builds executed by this run
  /// Probe batches looked up through a direct-address index (the build
  /// proved its key unique and dense) and through the chained bucket
  /// tables (it did not, or the batch was a stolen piece).
  uint64_t direct_probes = 0;
  uint64_t chained_probes = 0;
  /// Per chain: elided because every build consuming it hit the cache
  /// (rows_per_chain then reads 0 without having been measured).
  std::vector<bool> chain_reused;
};

/// Max over `busy` of busy / mean busy (1.0 = perfectly balanced).
double MaxOverMean(const std::vector<uint64_t>& busy);

/// Phase 2 of the two-phase aggregation: `workers` bodies on `ctx` claim
/// group-hash partitions (P = min(buckets, max(16, 4 x workers))) and
/// merge every partial table's share of each into one final table. Adds
/// the finalized rows' digest to `digest` and the group count to
/// `groups`, and (when `rows` is non-null) stores the rows in `*rows`.
/// Cancelled when the context's stop token fires.
Status MergeAggPartitions(ExecContext* ctx, uint32_t workers,
                          uint32_t buckets, const AggSpec* spec,
                          const std::vector<const AggTable*>& partials,
                          ResultDigest* digest, uint64_t* groups,
                          Batch* rows);

class NodeEngine {
 public:
  /// A probe activation's bucket when its rows may span buckets (each row
  /// finds its own bucket's table).
  static constexpr uint32_t kMixed = UINT32_MAX;

  enum class Kind : uint8_t { kBuildScan, kBuild, kScan, kProbe };

  struct Activation {
    uint32_t op = 0;
    /// Build: the bucket the rows insert into. Probe: kMixed, or the one
    /// bucket of a piece acquired by global load balancing.
    uint32_t bucket = 0;
    uint32_t column = 0;  ///< the thread whose queue holds it
    Batch rows;
  };

  /// The executor side of the engine: what a node does at its boundary.
  class Link {
   public:
    virtual ~Link() = default;
    /// `op` drained on this node. May fire more than once per op, from
    /// any worker thread.
    virtual void OnDrained(uint32_t op) = 0;
    /// `op` is terminating: called under the engine's state lock, before
    /// any dependent unblocks.
    virtual void OnTerminating(uint32_t /*op*/) {}
    /// Delivers rows bound for `op` to node `dest` (never this node).
    virtual void Ship(uint32_t /*dest*/, uint32_t /*op*/, uint32_t /*bucket*/,
                      Batch&& /*rows*/) {}
    /// The build table of a bucket homed elsewhere (a stolen fragment),
    /// or null.
    virtual const RowTable* Fragment(uint32_t /*join*/, uint32_t /*bucket*/) {
      return nullptr;
    }
    /// A worker saw the stop token: tear the whole run down.
    virtual void Stop() = 0;
    /// After every worker pass that was not stuck; `ran` = an activation
    /// executed.
    virtual void AfterPass(uint32_t /*slot*/, bool /*ran*/) {}
    /// `slot`'s staged pushes are stuck and it may run nothing: advance
    /// what could unblock them. True keeps the slot retrying; false makes
    /// its pass give up, leaving the pushes staged for the next pass.
    virtual bool WhileStuck(uint32_t /*slot*/) {
      std::this_thread::yield();
      return true;
    }
  };

  struct Config {
    uint32_t node = 0;
    uint32_t nodes = 1;
    /// Extra per-worker slots for cross-query helpers (RunForeign).
    uint32_t guests = 0;
    /// Keep the final chain's output rows (ChainOutput) unless the plan
    /// aggregates them.
    bool keep_final = false;
  };

  /// Checks the options against the plan (fp_cost_distortion length).
  static Status CheckOptions(const EngineOptions& options,
                             const PipelinePlan& plan);

  /// Compiles `plan` for this node. `table_rows[i]` is this node's share
  /// of base table i and `table_widths[i]` its full width; `builds` (owned
  /// by the executor, outliving the engine) says which joins probe shared
  /// tables and which chains are elided. Every pointer must outlive the
  /// engine.
  NodeEngine(const EngineOptions& options, const PipelinePlan& plan,
             std::vector<const Batch*> table_rows,
             const std::vector<uint32_t>& table_widths,
             const ResolvedBuilds* builds, Config config, Link* link);
  ~NodeEngine();

  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  /// How long an idle worker naps when nothing wakes it.
  static constexpr uint32_t kIdleNapUs = 200;

  /// Unblocks the initially runnable ops. Call once, before workers run.
  void Start();
  /// One pass of worker slot `slot` (< threads): flushes its staged
  /// pushes, runs at most one activation and reports the pass to the
  /// link. Returns whether an activation ran. The slot's state is the
  /// caller's alone for the call: one thread per slot at a time.
  bool Pass(uint32_t slot);
  /// Worker body for slot `slot`: passes, parking and napping when idle,
  /// until the node is done or cancelled.
  void WorkerLoop(uint32_t slot);
  /// Idles the caller until Wake, a termination, a cancel or kIdleNapUs.
  void Nap();
  /// Cross-query steal hook: runs at most one activation on a guest slot.
  bool RunForeign();

  /// Terminates `op` on this node (idempotent): merges a chain terminal's
  /// output, unblocks dependents and wakes the workers.
  void Terminate(uint32_t op);
  /// Stops the node: workers return at their next check.
  void Cancel();
  void Fail() { failed_.store(true); }
  void Wake() { work_cv_.notify_all(); }

  bool Done() const { return done_.load(std::memory_order_acquire); }
  bool Cancelled() const { return cancelled_.load(); }
  bool Failed() const { return failed_.load(); }

  // ---- op space ----
  uint32_t nops() const { return static_cast<uint32_t>(ops_.size()); }
  uint32_t njoins() const { return njoins_; }
  Kind kind(uint32_t op) const;
  bool IsTrigger(uint32_t op) const {
    return kind(op) == Kind::kBuildScan || kind(op) == Kind::kScan;
  }
  uint32_t JoinOf(uint32_t op) const;
  const JoinStep& Join(uint32_t join) const { return *join_steps_[join]; }
  const std::vector<uint32_t>& probe_ops() const { return probe_ops_; }

  // ---- state the inter-node layer reads ----
  bool Terminated(uint32_t op) const;
  bool Consumable(uint32_t op) const;
  /// The one drain rule: a consumable trigger ran all its morsels; a
  /// consumable data op's producer terminated and none of its
  /// activations is queued, staged or running on this node.
  bool Drained(uint32_t op) const;
  /// FP: slot `slot` may run `op` (always true under DP).
  bool MayRun(uint32_t slot, uint32_t op) const;
  /// Activations of `op` queued on this node.
  size_t QueuedCount(uint32_t op) const;

  // ---- inter-node hand-offs (single receiving thread) ----
  /// Queues rows that arrived for `op`; a full queue stages them in the
  /// inbox until FlushInbox.
  void Receive(uint32_t op, uint32_t bucket, Batch&& rows);
  /// Retries staged arrivals; true if any moved.
  bool FlushInbox();
  bool InboxEmpty() const { return inbox_.empty(); }
  /// Pops the newest queued activation of `op` from column `column`
  /// without releasing its pending count (see AddPending).
  bool TakeQueued(uint32_t op, uint32_t column, Activation* out);
  void AddPending(uint32_t op, int64_t delta);
  /// The build table of bucket `bucket` of `join` homed on this node.
  const RowTable* HomeTable(uint32_t join, uint32_t bucket) const {
    return JoinTables(join) + bucket;
  }
  /// Moves this node's locally built tables of `join` out (B entries,
  /// home buckets filled).
  BucketTables TakeTables(uint32_t join);
  /// Moves this node's index over those home buckets out (unbuilt when
  /// the key was not unique and dense).
  DenseIndex TakeIndex(uint32_t join);

  // ---- results ----
  /// This node's output of chain `c` (complete once its terminal op
  /// terminated; empty unless materialized).
  const Batch& ChainOutput(uint32_t c) const { return chain_outputs_[c]; }
  Batch TakeChainOutput(uint32_t c) { return std::move(chain_outputs_[c]); }
  ResultDigest Digest() const;
  /// Per-slot aggregate partial tables (plans with an AggSpec).
  std::vector<const AggTable*> AggPartials() const;
  /// Adds this node's counters into `stats` (rows_per_chain must be sized
  /// to the chain count).
  void AddStats(EngineStats* stats) const;
  /// Activations each of the first `n` slots executed.
  std::vector<uint64_t> BusyPerSlot(uint32_t n) const;
  uint64_t Busy() const;
  /// Writes the span cells into the recorder (after every worker left).
  void EmitTraceCells();

 private:
  struct Op;
  struct Scratch;
  class Queue;

  const RowTable* JoinTables(uint32_t join) const;
  /// The direct-address index a mixed probe batch of `join` uses on this
  /// node: the shared entry's for this node when its layout matches,
  /// else this engine's own (either may be unbuilt).
  const DenseIndex& JoinIndex(uint32_t join) const;
  void ResolveSourceLocked(Op& op);
  /// Makes every op whose blockers all terminated consumable.
  void UnblockLocked();
  void RecomputeFpLocked();
  uint32_t QueueColumn(uint32_t op, uint32_t hint) const;
  void MaybeDrained(uint32_t op);
  bool RunOne(uint32_t slot);
  bool ClaimMorsel(uint32_t slot, uint32_t op);
  void ExecuteMorsel(uint32_t slot, uint32_t op, size_t begin, size_t end);
  void ExecuteData(uint32_t slot, Activation&& act);
  void FinishActivation(uint32_t op);
  /// Hands rows to `op` on node `dest`. Locally, under SP, `op` runs at
  /// once in this slot (it is consumable, see the header); otherwise the
  /// rows queue on the column of the bucket (a mixed batch: of the
  /// producing slot), staged in the slot's outbox when full. Remotely
  /// they go through the link.
  void Emit(uint32_t slot, uint32_t dest, uint32_t op, uint32_t bucket,
            Batch&& rows);
  /// Drains the slot's staged pushes; false if it gave up (cancelled, or
  /// the link stopped waiting).
  bool FlushOutbox(uint32_t slot);
  bool RunAllowedWhileStuck(uint32_t slot, bool unrestricted);
  /// Whether a capture sink is bound at plan point (chain, point).
  bool Captured(uint32_t chain, uint32_t point) const;
  /// Offers chunk rows crossing plan point (chain, point) to captures.
  void Offer(uint32_t chain, uint32_t point, const Batch& rows) const;
  /// Folds chain `chain`'s output rows — a terminal probe's match list or
  /// a join-less scan's rows — into the slot's digest or aggregate
  /// partial without copying them, or joins them onto the slot's share of
  /// a materialized chain output.
  void ConsumeTerminal(uint32_t slot, uint32_t chain, const JoinedRows& rows,
                       Scratch& sc);
  Scratch& AcquireScratch(uint32_t slot);
  void ReleaseScratch(uint32_t slot) { --scratch_depth_[slot]; }
  /// An activation's trace start: its clock and the slot's traced time.
  struct SpanStart {
    uint64_t t0 = 0;
    uint64_t traced0 = 0;
  };
  SpanStart BeginSpan(uint32_t slot) const {
    return {trace_->NowNs(), traced_ns_[slot]};
  }
  /// Adds the activation to its (slot, op) span cell with its exclusive
  /// busy time: the time of activations run inline inside it is theirs.
  void TraceActivation(uint32_t slot, uint32_t op, const SpanStart& start,
                       uint64_t rows_in, uint64_t rows_out);
  uint32_t HomeOf(uint32_t bucket) const { return bucket % cfg_.nodes; }

  const EngineOptions& opt_;
  const PipelinePlan& plan_;
  const std::vector<const Batch*> table_rows_;
  const ResolvedBuilds* builds_;
  const Config cfg_;
  Link* link_;
  ExecContext* ctx_;
  const bool sp_;  // local hand-offs run inline (SP)
  const AggSpec* agg_;
  uint32_t slots_;
  uint32_t njoins_ = 0;

  std::vector<std::unique_ptr<Op>> ops_;
  std::vector<uint32_t> chain_terminal_;
  std::vector<uint32_t> probe_ops_;
  std::vector<const JoinStep*> join_steps_;
  std::vector<std::vector<uint32_t>> width_at_;  // [chain][0..joins]
  std::vector<bool> materialized_;

  std::vector<std::unique_ptr<Queue>> queues_;  // [op * threads + t]
  std::deque<Activation> inbox_;
  uint32_t rx_hint_ = 0;

  // Per join: B bucket tables (home buckets initialized and filled), the
  // home buckets' insert locks ([bucket / nodes]) and the index over them
  // (or over a hit's home buckets when the hit carries none for this
  // layout), built before the join's probe becomes consumable.
  std::vector<BucketTables> tables_;
  std::vector<std::unique_ptr<std::mutex[]>> bucket_mu_;
  std::vector<DenseIndex> dense_;

  // Per-slot state.
  std::vector<std::deque<Activation>> outbox_;
  std::vector<std::vector<std::unique_ptr<Scratch>>> scratch_pool_;
  std::vector<size_t> scratch_depth_;
  std::vector<ResultDigest> digests_;
  std::vector<AggTable> agg_partials_;
  std::vector<std::vector<Batch>> chain_partials_;  // [chain][slot]
  std::vector<Batch> chain_outputs_;
  std::vector<uint64_t> busy_;
  std::vector<uint64_t> chain_rows_;  // [chain * slots + slot]
  std::mutex guest_mu_;
  std::vector<uint32_t> guest_free_;

  obs::FlightRecorder* trace_ = nullptr;  // the recorder, when traced
  std::vector<obs::OpSpanAgg> trace_cells_;  // [slot * nops + op]
  std::vector<uint64_t> traced_ns_;          // per slot: busy ns traced

  std::mutex state_mu_;  // guards termination and unblocking
  std::condition_variable work_cv_;
  uint32_t ops_remaining_ = 0;  // under state_mu_
  std::atomic<bool> done_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> failed_{false};
  // FP: per-op thread range [lo, hi) packed as (lo << 32) | hi.
  std::vector<std::atomic<uint64_t>> fp_range_;

  std::atomic<uint64_t> stat_morsels_{0};
  std::atomic<uint64_t> stat_data_{0};
  std::atomic<uint64_t> stat_emitted_{0};
  std::atomic<uint64_t> stat_escapes_{0};
  std::atomic<uint64_t> stat_nonprimary_{0};
  std::atomic<uint64_t> stat_idle_{0};
  std::atomic<uint64_t> stat_fp_safety_{0};
  std::atomic<uint64_t> stat_filtered_{0};
  std::atomic<uint64_t> stat_direct_{0};
  std::atomic<uint64_t> stat_chained_{0};
};

}  // namespace hierdb::mt

#endif  // HIERDB_MT_NODE_ENGINE_H_
