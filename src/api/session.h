// hierdb::api::Session — the unified front door over the three executor
// backends.
//
// The paper evaluates one execution model (DP vs FP vs SP on a
// hierarchical machine) through three lenses this repo implements as three
// stacks: the deterministic simulator (exec::Engine), the real-thread
// SM-node executor (mt::PipelineExecutor) and the multi-node cluster
// executor (cluster::ClusterExecutor). The Session collapses their three
// front doors into one:
//
//   api::Session db;
//   auto fact = db.AddTable(mt::MakeTable("fact", 100000, 4, 2000, 1));
//   auto dim  = db.AddTable(mt::MakeTable("dim", 2000, 2, 100, 2));
//   api::Query q = db.NewQuery().Scan(fact).Probe(dim, 1, 0).Build();
//   api::ExecOptions opts;
//   opts.backend = api::Backend::kThreads;
//   opts.strategy = Strategy::kDP;
//   auto report = db.Execute(q, opts);
//
// Queries execute asynchronously: Submit plans the query on the calling
// thread, passes it through the session's admission controller
// (SessionOptions: concurrency limit, queue depth, FIFO or
// shortest-cost-first order using the optimizer's plan cost) and returns a
// future-like QueryHandle. Independent queries on the kThreads and
// kCluster backends genuinely overlap up to max_concurrent_queries; the
// deterministic simulator serializes internally but flows through the same
// API. Execute is a one-line wrapper over Submit+Take; RunStream submits a
// whole batch and reports throughput (queries/sec, makespan, p50/p95):
//
//   api::Session db(api::SessionOptions{.max_concurrent_queries = 4});
//   api::QueryHandle h = db.Submit(q, opts);
//   ... overlap with other submissions ...
//   auto result = h.Take();              // waits; QueryResult
//
// ExecOptions::materialize additionally carries the result rows back in
// QueryResult::rows (threads: parallel partial collection; cluster:
// tuple-batch gather of each node's final rows).
//
// Concurrent real-backend queries rent their workers from one
// session-wide pool sized to the machine (SessionOptions::pool_threads):
// total executor threads stay bounded no matter how many queries
// overlap, and idle workers steal activations across query boundaries,
// extending the paper's load-balancing hierarchy to the whole stream.
// Queries over the same tables also share build-side hash tables
// through the session's build cache (ExecOptions::reuse_builds);
// QueryHandle::Cancel stops even a running query cooperatively.
//
// A Query is backend-neutral: either a predicate (join) graph with
// selectivities — optionally with an explicit join tree or a shape
// constraint — or an explicit pipeline chain over registered tables. The
// Session optimizes it once into a bushy join tree and bridges that single
// logical plan into each backend's representation:
//
//   kSimulated   plan::MacroExpand + exec::Engine on the simulated
//                hierarchical machine (the paper's evaluation vehicle);
//   kThreads     mt::PipelinePlan + mt::PipelineExecutor on one SM-node of
//                real threads and real tuples;
//   kCluster     cluster::PlanQuery + cluster::ClusterExecutor across
//                message-coupled SM-nodes: the whole chain DAG runs on the
//                cluster, with every chain's output kept distributed and
//                repartitioned to its consumer by tuple-batch shipping.
//
// ExecutionReport normalizes the three metrics structs (response time,
// idle measures, activations, tuples, pipeline/steal bytes, per-operator
// end times where available) and keeps the raw backend metrics for
// white-box consumers.

#ifndef HIERDB_API_SESSION_H_
#define HIERDB_API_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "api/planner.h"
#include "api/worker_pool.h"
#include "catalog/catalog.h"
#include "cluster/cluster_executor.h"
#include "common/status.h"
#include "fault/fault.h"
#include "common/strategy.h"
#include "common/units.h"
#include "exec/engine.h"
#include "mt/agg.h"
#include "mt/build_cache.h"
#include "mt/column_batch.h"
#include "mt/pipeline_executor.h"
#include "mt/row.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "opt/tree_shapes.h"
#include "plan/join_graph.h"
#include "plan/operator_tree.h"
#include "sim/config.h"

namespace hierdb::api {

/// Filter comparison and aggregate-function enums, shared with the
/// executor layer (mt/agg.h).
using CmpOp = mt::CmpOp;
using AggFn = mt::AggFn;

/// Which executor stack runs the query.
enum class Backend { kSimulated, kThreads, kCluster };

const char* BackendName(Backend b);

/// One options struct for every backend. Knobs that a backend does not
/// implement are ignored there (see per-field comments); 0 means "backend
/// default" for the granularity knobs.
struct ExecOptions {
  Backend backend = Backend::kSimulated;
  Strategy strategy = Strategy::kDP;

  /// Machine shape: SM-nodes x processors-per-node. kThreads is a single
  /// SM-node and requires nodes == 1; kSP requires nodes == 1 everywhere
  /// (synchronous pipelining is shared-memory only).
  uint32_t nodes = 1;
  uint32_t threads_per_node = 4;

  /// Seed for every per-run randomness (bucket shuffles, data synthesis,
  /// FP cost distortion, placement skew).
  uint64_t seed = 1;

  /// Attribute-value skew (Zipf theta, Section 5.2.2) — one meaning on
  /// every backend: kSimulated models it as redistribution skew over the
  /// bucket space; the real backends draw synthesized foreign-key columns
  /// Zipf(theta)-distributed (graph-form queries over catalog-only
  /// relations). Registered tables carry their own distribution — build
  /// them with mt::MakeSkewedTable to inject skew there.
  double skew_theta = 0.0;

  /// kCluster only: tuple-placement skew — driving scan inputs are placed
  /// across nodes in Zipf(theta)-sized shares instead of round-robin
  /// (Section 5.3's load-imbalance experiments).
  double placement_theta = 0.0;

  /// FP only: cost-model error rate r; per-operator cost estimates are
  /// distorted by factors in [1-r, 1+r] before allocation (Figure 7).
  /// Honored by every backend.
  double fp_error_rate = 0.0;

  /// Shared fragmentation / granularity knobs; 0 = backend default.
  uint32_t buckets = 0;          ///< degree of fragmentation per operator
  uint32_t morsel_rows = 0;      ///< trigger-activation granularity (real)
  uint32_t batch_rows = 0;       ///< data-activation granularity (real)
  uint32_t queue_capacity = 0;   ///< flow control (activations per queue)

  /// Real backends: materialize the final result rows into
  /// QueryResult::rows (kThreads: per-thread partial collection merged at
  /// chain end; kCluster: tuple-batch gather of each node's final rows).
  /// The simulated backend has no rows and rejects this flag.
  bool materialize = false;

  bool global_lb = true;   ///< inter-node load sharing (kSimulated/kCluster)
  bool apply_h1 = true;    ///< H1: chain scan waits for its hash tables
  /// H2: chains execute one at a time. On kCluster this selects staged
  /// chain scheduling (the default): chains run back-to-back in plan
  /// order; false lets independent chains whose inputs are all complete
  /// execute concurrently on the same node/thread topology.
  bool apply_h2 = true;

  /// kCluster steal knobs; 0 = backend default.
  uint32_t steal_batch = 0;  ///< max queued activations per acquisition
  uint32_t min_steal = 0;    ///< queued activations a provider needs to offer

  /// kCluster only: cache hash-table fragments shipped by steals (the
  /// Section 4 stolen-queue list) so repeated starving reuses them.
  /// Ignored by kSimulated and kThreads.
  bool cache_stolen_fragments = true;
  /// kSimulated only: primary-queue preference ablation — false lets any
  /// processor consume any consumable queue with no locality preference.
  /// Ignored by the real backends (and when sim_config is set, which is
  /// used verbatim).
  bool primary_queue_affinity = true;
  /// kSimulated only: model the SM-node memory-contention slowdown above
  /// 32 processors. Ignored by the real backends (and when sim_config is
  /// set).
  bool model_memory_hierarchy = true;

  /// Real backends only: catalog-only relations (no registered table) are
  /// synthesized at `bind_scale` of their catalog cardinality.
  double bind_scale = 0.01;
  uint64_t bind_min_rows = 16;

  /// Real backends (kThreads and kCluster alike): share build-side hash
  /// tables across queries through the session's build cache. A build of
  /// a base table keys on (table contents, build column, buckets,
  /// seed/skew, filters, projection); a build of a chain's output keys on
  /// a recursive identity of that chain (mt/build_cache.h). A query
  /// hitting the cache skips that build's scatter and inserts entirely,
  /// and a chain whose consuming builds all hit (and that has no capture
  /// point) is not run at all (ExecutionReport::chains_reused). A miss
  /// publishes the finished tables for overlapping/later queries: kThreads
  /// as each build ends, kCluster after a successful, fault-free run.
  /// kCluster also keeps each registered table's placement across
  /// queries. Invalidated by Session::AddTable. False: nothing is shared
  /// across queries.
  bool reuse_builds = true;

  /// Real backends: also run the single-threaded reference execution and
  /// record the comparison in the report.
  bool validate = false;

  /// Per-operator execution tracing: ExecutionReport::trace gets the
  /// attempt's share of the session's event stream (obs/recorder.h) —
  /// spans per operator, worker and node plus the schedule, retry, pool,
  /// steal, cache, fabric and fault instants tagged with this query —
  /// exportable as Chrome trace-event JSON or an annotated plan
  /// (obs/export.h). kSimulated synthesizes spans from the simulator's
  /// per-operator virtual times. Off (the default) the only cost on the
  /// execution path is one null-pointer check per activation.
  bool trace = false;

  /// Per-query deadline, measured from Submit (admission). 0 = none. The
  /// deadline arms on the scheduler's timer wheel: expiring while queued
  /// completes the handle immediately with Status::DeadlineExceeded;
  /// expiring mid-execution raises the query's cooperative stop token on
  /// whichever backend is running it, and the handle completes with
  /// DeadlineExceeded carrying the partial progress counters in its
  /// message. A deadline that races completion delivers the finished
  /// result (best effort, like Cancel).
  double deadline_ms = 0.0;

  /// Tenant this query bills against (SessionOptions::tenants); "" is the
  /// default tenant. Unknown names fail the Submit with InvalidArgument.
  std::string tenant;

  /// Seeded fault injection for this query (chaos testing). When the plan
  /// is armed, the backends deliberately misbehave per its probabilities
  /// and schedule: the cluster fabric drops/duplicates/delays messages,
  /// cluster node schedulers stall or crash, and pooled worker threads die
  /// (their slot is re-queued, so work is never lost — only delayed).
  /// Every decision derives from the plan's seed, so a failing run
  /// replays exactly. Unset inherits SessionOptions::chaos; both unset =
  /// no injection and zero overhead on the execution path.
  std::optional<fault::FaultPlan> fault_plan;

  /// Re-dispatches after an attempt fails with Status::Unavailable (fault
  /// detection's verdict): the scheduler releases the lane, waits out a
  /// capped exponential backoff with deterministic jitter
  /// (retry_backoff_ms doubling up to retry_backoff_max_ms) and re-queues
  /// the query. Each attempt draws a fresh fault subsequence from the
  /// same plan. A deadline, if set, stays absolute across attempts.
  uint32_t max_retries = 0;
  double retry_backoff_ms = 10.0;
  double retry_backoff_max_ms = 1000.0;

  /// Graceful degradation: when set, one extra final attempt runs on this
  /// backend (single node) after max_retries attempts on the primary
  /// backend all returned Unavailable. The report marks fallback_used.
  std::optional<Backend> fallback_backend;

  /// kCluster fault-detection cadence (active only while a fault plan is
  /// armed): nodes broadcast liveness heartbeats every heartbeat_us, and
  /// a peer silent for liveness_timeout_ms fails the run with
  /// Status::Unavailable naming the suspected node. Node 0 additionally
  /// watches global progress to catch message loss that stalls the run
  /// without silencing anyone.
  uint32_t heartbeat_us = 500;
  uint32_t liveness_timeout_ms = 250;

  /// kSimulated: full machine override; when set, nodes/threads_per_node
  /// above are ignored and this config is used verbatim.
  std::optional<sim::SystemConfig> sim_config;
  /// kSimulated: simulation-event safety valve.
  uint64_t max_events = 2'000'000'000ULL;
  /// kSimulated: utilization-timeline bucket width (0 = off).
  SimTime timeline_bucket = 0;
};

/// Backend-normalized execution metrics. Fields a backend cannot measure
/// stay at their zero value; the raw per-backend metrics are kept in the
/// optional members for white-box consumers.
struct ExecutionReport {
  Backend backend = Backend::kSimulated;
  Strategy strategy = Strategy::kDP;

  /// Virtual response time (kSimulated) or wall-clock time (real backends).
  double response_ms = 0.0;
  /// Real backends: measured wall-clock seconds (== response_ms / 1000).
  double wall_seconds = 0.0;

  /// kSimulated: fraction of processor-time spent idle.
  double idle_fraction = 0.0;
  /// Real backends: waits with no runnable work (summed over threads/nodes).
  uint64_t idle_waits = 0;

  uint64_t activations = 0;  ///< activations processed (all backends)
  uint64_t tuples = 0;       ///< kSimulated: tuples processed

  /// Real backends: order-independent digest of the final result.
  bool has_result = false;
  uint64_t result_rows = 0;
  uint64_t result_checksum = 0;

  /// Inter-node traffic. kThreads is a single node: both stay 0.
  uint64_t pipeline_bytes = 0;  ///< pipelined redistribution (dataflow)
  uint64_t lb_bytes = 0;        ///< global load-balancing traffic

  /// kCluster, multi-chain plans: total rows/bytes of the distributed
  /// intermediates (non-final chain outputs, summed over nodes); zero for
  /// single-chain plans. Per-chain detail in cluster->per_chain.
  uint64_t intermediate_rows = 0;
  uint64_t intermediate_bytes = 0;

  uint64_t steals = 0;              ///< successful global acquisitions
  /// Activations run away from their home queue: global steals on
  /// kCluster (queued activations taken) and kSimulated; on kThreads,
  /// consumptions from another thread's queue
  /// (mt::PipelineStats::nonprimary).
  uint64_t stolen_activations = 0;

  /// Load imbalance: max over threads (kThreads) or nodes (kCluster) of
  /// busy / mean busy; 1.0 = perfectly balanced, 0 = not measured.
  double imbalance = 0.0;

  /// kSimulated: per-operator labels and global end times.
  std::vector<std::string> op_labels;
  std::vector<double> op_end_ms;

  /// Set when ExecOptions::validate was on (real backends).
  bool validated = false;
  bool reference_match = false;
  uint64_t reference_rows = 0;

  /// Set when ExecOptions::materialize was on: size of the materialized
  /// result (the rows themselves travel in QueryResult::rows).
  bool materialized = false;
  uint64_t materialized_rows = 0;
  uint64_t materialized_bytes = 0;

  /// Real backends with ExecOptions::reuse_builds: builds satisfied from
  /// the session build cache vs cacheable builds executed (and published).
  /// Builds inside an elided chain are neither.
  uint64_t build_cache_hits = 0;
  uint64_t build_cache_misses = 0;
  /// Real backends: chains not run because every build consuming their
  /// output hit the cache (their chain_cards carry no actual).
  uint32_t chains_reused = 0;
  /// Real backends: probe batches served by a direct-address index (the
  /// build proved its key unique and dense) and by the chained bucket
  /// tables (mt::EngineStats::direct_probes / chained_probes).
  uint64_t direct_probes = 0;
  uint64_t chained_probes = 0;

  /// Real backends: rows dropped by scan-level Where predicates.
  uint64_t rows_filtered = 0;

  /// Real backends, catalog-only relations: rows dropped at bind time by
  /// pushing Where predicates into the synthesized tables (the executor
  /// then scans pre-filtered data; optimizer estimates still describe the
  /// unfiltered catalog cardinalities).
  uint64_t rows_prefiltered = 0;

  /// Set for queries with GroupBy/Agg: result groups, partial-table
  /// entries merged by the global phase, and (kCluster) the wire bytes of
  /// partials repartitioned to their home node. The result digest and any
  /// materialized rows are the aggregate rows.
  bool aggregated = false;
  uint64_t agg_groups = 0;
  uint64_t agg_partials = 0;
  uint64_t agg_repartition_bytes = 0;

  /// Estimated vs actual output cardinality per pipeline chain. Estimates
  /// come from the optimizer's System R defaults over the bound table
  /// sizes; actuals are measured by the real backends (has_actual false on
  /// kSimulated). Always present, tracing on or off.
  std::vector<obs::ChainCard> chain_cards;

  /// Set when ExecOptions::trace was on: the unified per-operator trace
  /// (operator tree + spans + instants), exportable via
  /// obs::ChromeTraceJson / obs::PlanDot / obs::PlanJson.
  std::shared_ptr<const obs::QueryTrace> trace;

  /// Robustness: which attempt produced this report (0 = first try),
  /// whether it ran on the degraded fallback backend, and how many
  /// injected faults fired during the winning attempt (detail per site in
  /// cluster->faults and PoolStats::worker_deaths).
  uint32_t attempt = 0;
  bool fallback_used = false;
  uint64_t faults_injected = 0;

  /// Plan-point capture (QueryBuilder::CapturePoint): the bounded,
  /// order-independent row samples taken at each named plan point, in
  /// declaration order. With ExecOptions::validate also set, each sample
  /// was compared against the reference executor's sample at the same
  /// point and captures_match reports whether every point agreed.
  std::vector<obs::CaptureResult> captures;
  bool captures_match = false;

  /// Path of the forensic bundle written for this query's anomaly
  /// (SessionOptions::forensics_dir); empty when none was written.
  std::string forensic_bundle;

  /// Raw backend metrics.
  std::optional<exec::RunMetrics> sim;
  std::optional<mt::PipelineStats> threads;
  std::optional<cluster::ClusterStats> cluster;

  std::string ToString() const;
};

/// What a finished query hands back: the normalized report, the optional
/// materialized row set, and the scheduler's timing breakdown.
struct QueryResult {
  ExecutionReport report;

  /// Set when ExecOptions::materialize was on: the final result rows
  /// (order unspecified — executions are parallel; the digest in `report`
  /// is the order-independent identity).
  bool materialized = false;
  mt::Batch rows;

  double queue_ms = 0.0;  ///< admission wait (submit -> dispatch)
  double exec_ms = 0.0;   ///< execution (dispatch -> completion)
  /// Order this query was dispatched in by its session's scheduler
  /// (1-based); exposes the admission policy's decisions to tests/benches.
  uint64_t dispatch_seq = 0;
};

/// Order in which the admission controller dispatches queued queries.
enum class AdmissionPolicy {
  kFifo,  ///< submission order
  /// Cheapest optimizer plan cost first (ties: FIFO), with an aging
  /// escape hatch: entries queued longer than SessionOptions::scf_aging_ms
  /// outrank cost ordering (FIFO among themselves), so sustained cheap
  /// traffic delays an expensive queued query by at most the aging bound
  /// instead of starving it.
  kShortestCostFirst,
  /// Earliest absolute deadline first (ExecOptions::deadline_ms measured
  /// from Submit); deadline-less queries dispatch FIFO after every
  /// deadline-carrying one.
  kEarliestDeadlineFirst,
  /// Cost-aware EDF: orders by latest feasible start (deadline minus the
  /// query's estimated run time, calibrated online from completed
  /// queries' observed ms-per-plan-cost), so a cheap query with a tight
  /// deadline and an expensive one with a looser deadline both start in
  /// time when possible. Deadline-less queries follow, cheapest first.
  kCostAwareEdf,
};

/// One tenant of a multi-tenant session: a weight (its share of
/// max_concurrent_queries, floored, minimum 1) and an optional private
/// queue-depth bound. The default tenant "" always exists with weight 1;
/// queries name their tenant in ExecOptions::tenant.
struct TenantOptions {
  std::string name;
  uint32_t weight = 1;
  /// Waiting-query bound for this tenant; 0 = SessionOptions::max_queued.
  /// Backpressure is per tenant: a full tenant's Submit completes with
  /// ResourceExhausted naming the tenant while others keep admitting.
  uint32_t max_queued = 0;
};

/// Per-session scheduling limits (fixed at Session construction).
struct SessionOptions {
  /// Queries executing at once; queries beyond this wait in the admission
  /// queue. 1 (the default) serializes — the pre-async behavior. 0 is
  /// treated as 1 (a zero-worker scheduler could never complete a query).
  uint32_t max_concurrent_queries = 1;
  /// Queries waiting for dispatch before Submit rejects with
  /// ResourceExhausted (handles complete immediately with that status).
  /// 0 is treated as 1 (every dispatch passes through the queue).
  uint32_t max_queued = 256;
  AdmissionPolicy admission = AdmissionPolicy::kFifo;
  /// Size of the session-wide worker pool real-backend queries rent from;
  /// 0 = hardware_concurrency. However many queries overlap, total
  /// executor threads stay at this fixed machine-sized count on every
  /// backend (a kCluster query's node workers and schedulers are roles
  /// its pooled bodies take, not threads of their own), with idle
  /// workers stealing activations across query boundaries.
  uint32_t pool_threads = 0;
  /// kShortestCostFirst aging bound: a query queued longer than this
  /// outranks cost ordering and dispatches FIFO among its aged peers, so
  /// sustained cheap traffic delays an expensive queued query by at most
  /// this bound instead of starving it. 0 disables aging (pure,
  /// starvable shortest-cost-first).
  double scf_aging_ms = 10000.0;
  /// Byte budget for the session's build-side cache
  /// (ExecOptions::reuse_builds; base-table and chain-output builds of
  /// both real backends): publishing a build evicts least-recently-hit
  /// entries until resident hash-table bytes fit, so long-lived sessions
  /// cycling many (buckets, seed) configurations stay bounded. 0 (the
  /// default) = unbounded (AddTable still clears).
  uint64_t build_cache_bytes = 0;
  /// Continuous metrics export: when non-empty, the session appends one
  /// SessionMetrics::ToJson() line to this file every
  /// `metrics_export_every` completed queries and once more on
  /// destruction (JSONL — one snapshot object per line).
  std::string metrics_export_path;
  uint32_t metrics_export_every = 16;
  /// Additional tenants beyond the default "" tenant. Each tenant's hard
  /// in-flight share is max(1, floor(max_concurrent_queries * weight /
  /// total weight)) — weights are relative among all tenants including
  /// the default (weight 1). Empty = single-tenant session (every query
  /// bills against "").
  ///
  /// The floor of 1 can oversubscribe max_concurrent_queries when tenants
  /// outnumber it; the scheduler then clamps the largest shares (never
  /// below 1) until they sum within the global limit, and marks the
  /// affected tenants TenantStats::clamped. Size max_concurrent_queries
  /// >= tenant count for the configured weights to be honored exactly.
  std::vector<TenantOptions> tenants;
  /// Session-wide chaos default: queries whose ExecOptions::fault_plan is
  /// unset inherit this plan (a per-query plan overrides). Unset = no
  /// injection anywhere unless a query opts in.
  std::optional<fault::FaultPlan> chaos;

  /// The session's always-on flight recorder (obs/recorder.h): a bounded
  /// black box of recent admission/pool/fabric/executor events, kept hot
  /// whether or not any query traces. False disarms its rings (the
  /// recording sites degrade to one branch); traced queries still get
  /// their traces.
  bool flight_recorder = true;
  /// Ring pool size (distinct recording threads) and events retained per
  /// ring; 0 keeps the recorder defaults (48 rings x 1024 events).
  uint32_t recorder_rings = 0;
  uint32_t recorder_ring_events = 0;

  /// Directory for forensic bundles. When non-empty, an anomaly — a
  /// missed deadline, an Unavailable outcome, any retry or fallback, a
  /// validation digest mismatch, or an explicit Session::DumpForensics —
  /// writes bundle-<query>-<n>/ here: the recorder's ring contents as
  /// Chrome-trace JSON (flight.json), the implicated query's plan
  /// (plan.json), a full SessionMetrics snapshot (metrics.json), any
  /// capture-point samples (captures.json) and a manifest. Empty (the
  /// default) disables bundle writing; the recorder still records.
  std::string forensics_dir;
  /// Automatic-bundle cap per session (oldest-first, then anomalies stop
  /// producing bundles); explicit DumpForensics calls are not counted.
  uint32_t forensics_max_bundles = 8;
  /// Rows retained per capture point (QueryBuilder::CapturePoint).
  uint32_t capture_rows = 64;
};

/// Per-tenant scheduler snapshot (SchedulerStats::tenants).
struct TenantStats {
  std::string name;           ///< "" = default tenant
  uint32_t max_inflight = 0;  ///< resolved weighted concurrency share
  uint32_t max_queued = 0;    ///< resolved queue-depth bound
  uint32_t in_flight = 0;     ///< snapshot: executing now
  uint32_t queued = 0;        ///< snapshot: waiting now
  uint64_t submitted = 0;     ///< lifetime admissions
  uint64_t rejected = 0;      ///< lifetime backpressure rejections
  uint64_t deadline_missed = 0;
  /// The weighted share was reduced so per-tenant shares sum within
  /// max_concurrent_queries (more tenants than lanes).
  bool clamped = false;
};

/// Counters the session's scheduler maintains across its lifetime, plus a
/// snapshot of the current queue state.
struct SchedulerStats {
  uint64_t submitted = 0;  ///< admitted into the queue
  uint64_t completed = 0;  ///< finished OK
  uint64_t failed = 0;     ///< finished with an error status
  /// Cancelled before dispatch or stopped while running; a cancel that
  /// races completion (result delivered) is not counted here.
  uint64_t cancelled = 0;
  uint64_t rejected = 0;   ///< refused admission (queue full)
  /// Queries that hit their ExecOptions::deadline_ms: expired while
  /// waiting (never dispatched) vs stopped mid-execution. Both complete
  /// with Status::DeadlineExceeded and are counted here, not in `failed`.
  uint64_t deadline_missed = 0;
  uint64_t deadline_missed_queued = 0;
  /// Re-dispatches after an Unavailable attempt (ExecOptions::max_retries
  /// / fallback_backend): one count per extra attempt granted.
  uint64_t retries = 0;
  uint32_t max_in_flight = 0;  ///< high-water mark of concurrent queries
  uint32_t in_flight = 0;      ///< snapshot: currently executing
  uint32_t queued = 0;         ///< snapshot: waiting for dispatch
  /// Scheduler threads: the event loop (0 until the first Submit, then
  /// exactly 1 however deep the queue gets) and the execution lanes
  /// (bounded by max_concurrent_queries, created on demand).
  uint32_t loop_threads = 0;
  uint32_t lane_threads = 0;
  /// Event-loop counters: loop wakeups that found work, and deadline
  /// timers fired.
  uint64_t loop_wakeups = 0;
  uint64_t timers_fired = 0;
  /// Event-loop health gauges (sched::EventLoop::Stats): posted-queue
  /// high-water mark, cumulative/worst timer-wheel slip (a timer firing
  /// `slip` ns after its programmed expiry), and the dispatch-section
  /// latency percentiles (time from loop wakeup to handlers done).
  uint64_t loop_max_queue_depth = 0;
  uint64_t timer_slip_total_ns = 0;
  uint64_t timer_slip_max_ns = 0;
  double loop_lag_p50_ms = 0.0;
  double loop_lag_p99_ms = 0.0;
  /// Per-tenant breakdown; index 0 is always the default "" tenant.
  std::vector<TenantStats> tenants;
};

/// One consistent-enough snapshot of everything the session measures
/// continuously: scheduler lifetime counters, worker-pool and build-cache
/// state, and histogram-backed latency quantiles over every completed
/// query (execution and admission-queue delay separately). Readable at
/// any time without stopping in-flight queries.
struct SessionMetrics {
  SchedulerStats scheduler;
  PoolStats pool;
  mt::BuildCache::Stats build_cache;
  /// Flight-recorder counters (zero-valued when the recorder is off).
  obs::FlightRecorder::Stats recorder;

  uint64_t queries = 0;        ///< latency samples (completed queries)
  double exec_mean_ms = 0.0;
  double exec_p50_ms = 0.0;
  double exec_p95_ms = 0.0;
  double exec_p99_ms = 0.0;
  double queue_mean_ms = 0.0;
  double queue_p50_ms = 0.0;
  double queue_p95_ms = 0.0;
  double queue_p99_ms = 0.0;

  /// One JSON object (single line, no trailing newline) — the JSONL record
  /// the periodic export appends.
  std::string ToJson() const;
  std::string ToString() const;
};

namespace internal {
struct QueryState;
}  // namespace internal

class Scheduler;

/// Future-like handle to a submitted query. Handles are cheap to copy
/// (shared state) and may outlive their Session: destroying the session
/// drains the scheduler, so every handle completes first.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the query completes (or was cancelled/rejected).
  void Wait() const;
  /// Blocks up to `timeout`; returns whether the query completed. An
  /// empty handle is trivially "done". Useful for bounded waits in chaos
  /// tests and for polling without burning a thread on Wait().
  bool WaitFor(std::chrono::milliseconds timeout) const;
  /// True once the result is available (non-blocking).
  bool Done() const;
  /// Cancels the query. Before dispatch the handle completes immediately
  /// with a Cancelled status; a *running* query is stopped cooperatively
  /// (its executor workers check a stop token once per activation batch)
  /// and the handle completes with Cancelled shortly after. Returns false
  /// when the query already finished or a cancel already won. A cancel
  /// racing completion may still deliver the finished result (counted as
  /// completed, not cancelled, in SchedulerStats).
  bool Cancel();
  /// Waits and moves the result out. A second Take (or Take on an empty
  /// handle) returns FailedPrecondition.
  Result<QueryResult> Take();

 private:
  friend class Scheduler;
  explicit QueryHandle(std::shared_ptr<internal::QueryState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::QueryState> state_;
};

/// Throughput report for a stream of queries run through Submit/Take.
struct StreamReport {
  uint32_t submitted = 0;
  uint32_t succeeded = 0;
  uint32_t failed = 0;  ///< rejected, cancelled or errored

  double makespan_ms = 0.0;  ///< first Submit -> last completion
  double serial_ms = 0.0;    ///< sum of per-query execution latencies
  double qps = 0.0;          ///< succeeded / makespan
  double mean_ms = 0.0;      ///< mean per-query execution latency
  double p50_ms = 0.0;       ///< median execution latency
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  /// Mean relative cardinality-estimation error over every (query, chain)
  /// with a measured actual: |actual - estimated| / max(estimated, 1).
  /// 0 when no chain reported an actual (e.g. a simulated stream).
  double mean_card_error = 0.0;

  /// Build-side reuse over the whole stream (real backends +
  /// reuse_builds): totals of the per-query ExecutionReport counters.
  uint64_t build_cache_hits = 0;
  uint64_t build_cache_misses = 0;

  /// Filter/aggregation totals over the stream (per-query counters
  /// summed; zero when the stream carries no Where/GroupBy queries).
  uint64_t rows_filtered = 0;
  uint64_t agg_groups = 0;
  uint64_t agg_partials = 0;
  uint64_t agg_repartition_bytes = 0;

  /// Robustness totals (chaos streams): queries that needed more than one
  /// attempt, queries that degraded to their fallback backend, and
  /// queries that still failed Unavailable after exhausting attempts.
  uint64_t retried = 0;
  uint64_t fallbacks = 0;
  uint64_t unavailable = 0;
  uint64_t faults_injected = 0;  ///< faults fired across winning attempts

  std::vector<Result<QueryResult>> results;  ///< in submission order

  std::string ToString() const;
};

class Session;

/// A backend-neutral query: either a predicate graph over the session's
/// relations (optionally with an explicit join tree or shape constraint),
/// or an explicit pipeline chain over registered tables. Build one with
/// Session::NewQuery().
class Query {
 public:
  /// What the builder recorded, as the planner (api/planner.h) reads it.
  struct Edge {
    RelId a = 0;
    RelId b = 0;
    double selectivity = 0.0;  ///< <= 0: default FK selectivity
    uint32_t col_a = 0;
    uint32_t col_b = 0;
    bool has_cols = false;  ///< explicit join columns (real-data execution)
  };
  struct Step {
    RelId build = 0;
    uint32_t probe_col = 0;  ///< column in the pipelined row
    uint32_t build_col = 0;  ///< column in the build relation
    double selectivity = 0.0;
  };
  /// Scan-level filters and the optional GROUP BY/aggregation, shared by
  /// both query forms. Columns are relation-qualified (rel, col) so the
  /// query stays valid whatever join tree the optimizer chooses.
  struct FilterSpec {
    RelId rel = 0;
    uint32_t col = 0;
    CmpOp cmp = CmpOp::kEq;
    int64_t value = 0;
  };
  struct GroupColSpec {
    RelId rel = 0;
    uint32_t col = 0;
  };
  struct AggSpecItem {
    AggFn fn = AggFn::kCount;
    RelId rel = 0;
    uint32_t col = 0;
    bool has_col = false;  ///< false: COUNT(*) — no column referenced
  };
  /// Post-aggregation (HAVING) predicate: over an aggregate (`on_agg`,
  /// matched against agg_items) or a grouping column (matched against
  /// group_by). Resolved to an output-row column at plan time.
  struct HavingSpec {
    bool on_agg = false;
    AggFn fn = AggFn::kCount;
    RelId rel = 0;
    uint32_t col = 0;
    bool has_col = false;  ///< false with on_agg: COUNT(*)
    CmpOp cmp = CmpOp::kEq;
    int64_t value = 0;
  };
  /// Plan-point captures (QueryBuilder::CapturePoint): `point` is the
  /// position in the chain where the builder call appeared — 0 right
  /// after Scan() (the scan's filtered, projected output), j after the
  /// j-th Probe() (that join's output). Chain form only.
  struct CaptureSpec {
    std::string name;
    uint32_t point = 0;
  };
  struct Spec {
    std::vector<Edge> edges;
    std::optional<plan::JoinTree> tree;  ///< explicit tree override
    opt::ShapeOptions shape;             ///< used when no explicit tree
    bool shape_set = false;              ///< Shape() was called explicitly

    bool chain = false;
    bool has_input = false;  ///< Scan() was called
    RelId input = 0;
    std::vector<Step> steps;

    std::vector<FilterSpec> filters;
    std::vector<GroupColSpec> group_by;
    std::vector<AggSpecItem> agg_items;
    std::vector<HavingSpec> having;
    std::vector<CaptureSpec> captures;
  };
  const Spec& spec() const { return spec_; }

  bool is_chain() const { return spec_.chain; }
  uint32_t num_joins() const {
    return static_cast<uint32_t>(spec_.chain ? spec_.steps.size()
                                             : spec_.edges.size());
  }
  bool has_agg() const {
    return !spec_.group_by.empty() || !spec_.agg_items.empty();
  }

 private:
  friend class QueryBuilder;
  Spec spec_;
};

/// Fluent builder. Graph form:
///   db.NewQuery().Join(a, b).Join(b, c, sel).Shape(kRightDeep).Build()
/// Chain form (explicit pipeline over registered tables):
///   db.NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build()
class QueryBuilder {
 public:
  /// Adds a join predicate a-b. selectivity <= 0 picks the FK default
  /// max(|A|,|B|) / (|A|*|B|) (each result about the larger input).
  QueryBuilder& Join(RelId a, RelId b, double selectivity = 0.0) {
    q_.spec_.edges.push_back({a, b, selectivity, 0, 0, false});
    return *this;
  }

  /// Join predicate with explicit join columns; when every edge carries
  /// columns and every relation has registered data, the real backends run
  /// on the registered tables instead of synthesized ones.
  QueryBuilder& JoinOn(RelId a, uint32_t col_a, RelId b, uint32_t col_b,
                       double selectivity = 0.0) {
    q_.spec_.edges.push_back({a, b, selectivity, col_a, col_b, true});
    return *this;
  }

  /// Overrides the optimizer with an explicit join tree.
  QueryBuilder& Tree(plan::JoinTree tree) {
    q_.spec_.tree = std::move(tree);
    return *this;
  }

  /// Constrains the optimizer's tree shape (default: bushy).
  QueryBuilder& Shape(opt::TreeShape shape, uint32_t segment_length = 3) {
    q_.spec_.shape.shape = shape;
    q_.spec_.shape.segment_length = segment_length;
    q_.spec_.shape_set = true;
    return *this;
  }

  /// Chain form: the driving scan.
  QueryBuilder& Scan(RelId input) {
    q_.spec_.chain = true;
    q_.spec_.has_input = true;
    q_.spec_.input = input;
    return *this;
  }

  /// Chain form: one hash-join step. `probe_col` indexes the pipelined
  /// row (input columns, then each build's columns appended in step
  /// order); `build_col` indexes the build relation.
  QueryBuilder& Probe(RelId build, uint32_t probe_col,
                      uint32_t build_col = 0, double selectivity = 0.0) {
    q_.spec_.chain = true;
    q_.spec_.steps.push_back({build, probe_col, build_col, selectivity});
    return *this;
  }

  /// Scan-level filter: keep only `rel` rows whose column `col` compares
  /// `cmp` against `value`. Applied where the relation's rows enter the
  /// pipeline (the driving scan or a build's scatter) on every backend;
  /// multiple Where calls on one relation conjoin. Works with both query
  /// forms; `rel` must be joined by the query.
  QueryBuilder& Where(RelId rel, uint32_t col, CmpOp cmp, int64_t value) {
    q_.spec_.filters.push_back({rel, col, cmp, value});
    return *this;
  }

  /// GROUP BY column `col` of relation `rel` (multiple calls build a
  /// compound key). The result rows become [group values..., aggregates
  /// ...]; with no GroupBy the aggregates reduce to a single global group.
  QueryBuilder& GroupBy(RelId rel, uint32_t col) {
    q_.spec_.group_by.push_back({rel, col});
    return *this;
  }

  /// Aggregate `fn` over column `col` of relation `rel`. COUNT ignores
  /// the column (use Count() for the argument-free spelling). GroupBy
  /// with no aggregates yields the distinct group combinations.
  QueryBuilder& Agg(AggFn fn, RelId rel, uint32_t col = 0) {
    q_.spec_.agg_items.push_back({fn, rel, col, fn != AggFn::kCount});
    return *this;
  }

  /// COUNT(*) — rows per group.
  QueryBuilder& Count() {
    q_.spec_.agg_items.push_back({AggFn::kCount, 0, 0, /*has_col=*/false});
    return *this;
  }

  /// HAVING over an aggregate: keep only groups whose `fn(rel.col)` value
  /// compares `cmp` against `value`. The aggregate must also appear in an
  /// Agg() call (HAVING filters the output rows; it never adds columns).
  /// Multiple Having calls conjoin. Applied identically on every backend
  /// as the groups are finalized — digests and materialized rows agree.
  QueryBuilder& Having(AggFn fn, RelId rel, uint32_t col, CmpOp cmp,
                       int64_t value) {
    q_.spec_.having.push_back(
        {/*on_agg=*/true, fn, rel, col, fn != AggFn::kCount, cmp, value});
    return *this;
  }
  /// HAVING over a grouping column (must appear in a GroupBy() call).
  QueryBuilder& Having(RelId rel, uint32_t col, CmpOp cmp, int64_t value) {
    q_.spec_.having.push_back(
        {/*on_agg=*/false, AggFn::kCount, rel, col, false, cmp, value});
    return *this;
  }
  /// HAVING COUNT(*) `cmp` `value` (requires a Count() aggregate).
  QueryBuilder& HavingCount(CmpOp cmp, int64_t value) {
    q_.spec_.having.push_back(
        {/*on_agg=*/true, AggFn::kCount, 0, 0, false, cmp, value});
    return *this;
  }

  /// Plan-point capture: samples the rows flowing past the *current*
  /// position in the chain — right after Scan() the scan's output
  /// (post-filter, post-projection), after the j-th Probe() that join's
  /// output. The sample is bounded (SessionOptions::capture_rows) and
  /// order-independent (bottom-k by content hash), so the same point
  /// captured on the threads backend, the cluster backend and the
  /// single-threaded reference retains identical rows — the executors'
  /// answer at that operator is comparable offline. Chain form only;
  /// real backends only. Results land in ExecutionReport::captures and in
  /// forensic bundles.
  QueryBuilder& CapturePoint(std::string name) {
    q_.spec_.captures.push_back(
        {std::move(name), static_cast<uint32_t>(q_.spec_.steps.size())});
    return *this;
  }

  Query Build() const { return q_; }

 private:
  Query q_;
};

/// The session: owns the catalog (and any registered real data), plans
/// queries once, and executes them on the backend selected in ExecOptions
/// through a per-session scheduler with admission control. Real-backend
/// queries rent workers from a session-wide pool sized to the machine
/// (SessionOptions::pool_threads) and share build-side hash tables
/// through the session build cache; see SessionOptions::pool_threads and
/// ExecOptions::reuse_builds.
///
/// Thread safety: Submit/Execute/RunStream/Explain may be called from any
/// thread. Registering relations or tables while previously submitted
/// queries are still executing is supported (table storage is
/// pointer-stable and executions reference plan-time snapshots), but
/// registration must not race a concurrent Submit/Execute/Explain *call*
/// on another thread: planning reads the catalog unlocked, under the
/// planner's snapshot contract (api/planner.h).
class Session {
 public:
  Session();
  explicit Session(const SessionOptions& options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Declares a catalog-only relation (cardinality + tuple width). Real
  /// backends synthesize data for it on demand (ExecOptions::bind_scale).
  RelId AddRelation(std::string name, uint64_t cardinality,
                    uint32_t tuple_bytes = 100);

  /// Registers real data; the catalog entry (name, cardinality, width) is
  /// derived from the table. Real backends run on these rows verbatim.
  RelId AddTable(mt::Table table);

  const catalog::Catalog& catalog() const { return db_.catalog; }
  /// Registered data for `id`, or nullptr for catalog-only relations.
  const mt::Table* table(RelId id) const;
  /// Per-column statistics (min/max + approximate distinct counts) of a
  /// registered table, computed at AddTable; nullptr for catalog-only
  /// relations. Indexed by column.
  const std::vector<mt::ColumnStats>* table_stats(RelId id) const;

  QueryBuilder NewQuery() const { return QueryBuilder(); }

  /// Plans `q` on the calling thread and submits it for execution on the
  /// selected backend. Validation and planning errors come back through
  /// the returned handle (already completed); admitted queries dispatch
  /// when the admission controller grants them a slot.
  QueryHandle Submit(const Query& q, const ExecOptions& opts);

  /// Synchronous convenience: Submit + Take, report only. Queues behind
  /// other in-flight queries like any submission.
  Result<ExecutionReport> Execute(const Query& q, const ExecOptions& opts);

  /// Submits every query, waits for all, and summarizes throughput.
  StreamReport RunStream(const std::vector<Query>& queries,
                         const ExecOptions& opts);

  /// Lifetime counters + queue snapshot of this session's scheduler.
  SchedulerStats scheduler_stats() const;

  /// Worker-pool counters (pool size, tasks run, cross-query steals).
  PoolStats pool_stats() const;

  /// Build-side reuse cache counters (hits/misses/entries/bytes).
  mt::BuildCache::Stats build_cache_stats() const;

  /// Renders the chosen join tree, its chain decomposition and the
  /// per-backend plan bridges for `q` under `opts`.
  Result<std::string> Explain(const Query& q, const ExecOptions& opts) const;

  /// Graphviz DOT of `q`'s operator tree under `opts` (the plan the
  /// selected backend would run), annotated with estimated cardinalities.
  /// Tracing a real execution and feeding ExecutionReport::trace to
  /// obs::PlanDot yields the same graph with actuals and span timings.
  Result<std::string> ExplainDot(const Query& q, const ExecOptions& opts) const;

  /// Continuous session metrics: scheduler/pool/cache counters plus
  /// latency quantiles over every query completed so far. Cheap and safe
  /// to call at any time (histogram reads don't stop writers).
  SessionMetrics MetricsSnapshot() const;

  /// The session's flight recorder; null when SessionOptions disarmed it.
  obs::FlightRecorder* recorder() const {
    return recorder_->armed() ? recorder_.get() : nullptr;
  }

  /// Explicitly dumps a forensic bundle (ring snapshot + metrics) right
  /// now, outside any anomaly — the "something looks off, grab the black
  /// box" entry point. Requires SessionOptions::forensics_dir; does not
  /// count against forensics_max_bundles. Returns the bundle directory.
  Result<std::string> DumpForensics(const std::string& reason = "manual");

 private:
  friend class Scheduler;

  /// Per-attempt context threaded into the backend runners: the query's
  /// injector (null = no chaos) and its admission seq.
  struct FaultCtx {
    fault::FaultInjector* injector = nullptr;
    /// Scheduler admission seq — the query tag recorder events carry.
    uint64_t query_seq = 0;
  };

  /// The backend runners, called from scheduler lanes (`stop` is the
  /// query's cooperative cancel/deadline token).
  Result<QueryResult> RunSimulated(const Planned& p, const ExecOptions& opts,
                                   const std::atomic<bool>& stop) const;
  /// kCluster placement: partitions each base relation by its first use
  /// in plan order, through the placement memo when `p` carries
  /// registered tables with identities (ExecOptions::reuse_builds).
  std::vector<std::shared_ptr<const cluster::PartitionedTable>> PlaceTables(
      const Planned& p, const ExecOptions& opts) const;
  /// The one run path of the real backends (kThreads, kCluster): pool
  /// rent, executor options, tracing, report, validation and
  /// materialization, with only placement and the executor call per
  /// backend.
  Result<QueryResult> RunReal(const Planned& p, const ExecOptions& opts,
                              const std::atomic<bool>& stop,
                              const FaultCtx& fc) const;

  /// The session's one event sink: the black box
  /// (SessionOptions::flight_recorder arms its rings) and the collector of
  /// traced queries' events. Never null. Declared FIRST: every other
  /// subsystem (scheduler, pool, per-query executors) holds a raw pointer
  /// into it and must be destroyed before it.
  std::unique_ptr<obs::FlightRecorder> recorder_;

  /// The catalog and registered data the planner reads.
  PlanCatalog db_;
  /// The deterministic simulator runs one query at a time (so concurrent
  /// submissions stay reproducible); real backends overlap freely.
  mutable std::mutex sim_mu_;
  /// Session-wide worker pool (created lazily on first rental so
  /// simulated-only sessions never pay for pool threads) and the shared
  /// build-side cache.
  /// Declared before the scheduler: in-flight queries use both, so the
  /// scheduler must drain first on destruction.
  WorkerPool& EnsurePool() const;
  uint32_t pool_threads_ = 0;  ///< normalized SessionOptions::pool_threads
  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<WorkerPool> pool_;
  mutable mt::BuildCache build_cache_;
  /// kCluster placement memo: each registered table version's
  /// partitioning, keyed by (content hash, nodes, rule, hash column or
  /// theta bits, seed), shared by every query that places it the same way.
  /// AddTable clears it, as it clears the build cache; queries hold the
  /// shared_ptrs, so a clear never frees a partition under a running scan.
  using PlacementKey =
      std::tuple<uint64_t, uint32_t, uint32_t, uint64_t, uint64_t>;
  mutable std::mutex placement_mu_;
  mutable std::map<PlacementKey,
                   std::shared_ptr<const cluster::PartitionedTable>>
      placements_;
  /// Continuous latency metrics, recorded at query completion (any
  /// outcome that executed) and read by MetricsSnapshot.
  SessionOptions session_options_;
  mutable obs::LatencyHistogram exec_hist_;
  mutable obs::LatencyHistogram queue_hist_;
  mutable std::atomic<uint64_t> completions_{0};
  mutable std::mutex metrics_export_mu_;
  /// Records one completed query and drives the periodic JSONL export.
  void RecordCompletion(double queue_ms, double exec_ms) const;
  void ExportMetricsLine() const;
  /// Assembles one forensic bundle under SessionOptions::forensics_dir:
  /// flight.json (ring snapshot as Chrome-trace JSON), metrics.json,
  /// manifest.json, plus plan.json / captures.json when a planned query
  /// and capture samples are at hand. `counted` bundles respect
  /// forensics_max_bundles (automatic anomaly dumps); uncounted ones
  /// (explicit DumpForensics) always write. Returns the bundle directory
  /// ("" when skipped or the directory could not be created).
  std::string WriteForensicBundle(
      const std::string& reason, uint64_t query_seq, const Planned* planned,
      const ExecOptions* opts,
      const std::vector<obs::CaptureResult>* captures, bool counted) const;
  /// Forensic-bundle bookkeeping (bundle numbering + the automatic cap).
  mutable std::mutex forensics_mu_;
  mutable uint32_t forensic_bundles_ = 0;  ///< total written (dir suffix)
  mutable uint32_t forensic_counted_ = 0;  ///< automatic ones, vs the cap
  /// Declared last: destroyed first, draining in-flight queries before the
  /// catalog/tables/pool/cache they reference go away.
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace hierdb::api

#endif  // HIERDB_API_SESSION_H_
