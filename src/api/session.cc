#include "api/session.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "api/scheduler.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mt/plan.h"
#include "mt/prune.h"
#include "obs/export.h"

namespace hierdb::api {

namespace {

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The real bridge's plan graph as a QueryTrace without events: estimated
/// cardinalities, plus the measured chain outputs when `actual` is given
/// (`reused` marks chains the run elided).
obs::QueryTrace PlanTrace(const Planned& p, const ExecOptions& opts,
                          const std::vector<uint64_t>& actual = {},
                          const std::vector<bool>* reused = nullptr) {
  obs::QueryTrace qt;
  qt.backend = BackendName(opts.backend);
  qt.strategy = StrategyName(opts.strategy);
  qt.nodes = opts.nodes;
  qt.workers_per_node = opts.threads_per_node;
  qt.ops = RealTraceOps(p, actual, opts.backend == Backend::kCluster);
  qt.chains = ChainCards(p, &actual, reused);
  return qt;
}

/// Backend-shape checks shared by Submit, Explain and ExplainDot.
Status ValidateOptions(const ExecOptions& opts) {
  if (opts.strategy == Strategy::kSP && opts.nodes > 1) {
    return Status::InvalidArgument(
        "SP (synchronous pipelining) is shared-memory only: nodes must be 1");
  }
  if (opts.backend == Backend::kCluster &&
      opts.strategy == Strategy::kSP) {
    return Status::InvalidArgument(
        "the cluster backend supports DP and FP only");
  }
  if (opts.backend == Backend::kThreads && opts.nodes != 1) {
    return Status::InvalidArgument(
        "the threads backend is one SM-node (nodes must be 1); use "
        "Backend::kCluster for multi-node runs");
  }
  if (opts.nodes == 0 || opts.threads_per_node == 0) {
    return Status::InvalidArgument("machine shape must be at least 1x1");
  }
  if (opts.materialize && opts.backend == Backend::kSimulated) {
    return Status::InvalidArgument(
        "the simulated backend has no rows to materialize (use "
        "Backend::kThreads or Backend::kCluster)");
  }
  return Status::OK();
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kSimulated: return "simulated";
    case Backend::kThreads: return "threads";
    case Backend::kCluster: return "cluster";
  }
  return "?";
}

std::string ExecutionReport::ToString() const {
  std::ostringstream os;
  os << "ExecutionReport{" << BackendName(backend) << "/"
     << StrategyName(strategy) << " rt=" << response_ms << "ms";
  if (backend == Backend::kSimulated) {
    os << " idle=" << idle_fraction * 100.0 << "%";
  } else {
    os << " idle_waits=" << idle_waits;
  }
  os << " acts=" << activations;
  if (tuples > 0) os << " tuples=" << tuples;
  if (has_result) os << " rows=" << result_rows;
  os << " pipe_bytes=" << pipeline_bytes << " lb_bytes=" << lb_bytes
     << " steals=" << steals;
  // Multi-chain cluster plans always show their distributed-intermediate
  // totals (even when zero) so reports stay self-describing.
  if (intermediate_rows > 0 ||
      (cluster.has_value() && cluster->per_chain.size() > 1)) {
    os << " inter_rows=" << intermediate_rows
       << " inter_bytes=" << intermediate_bytes;
  }
  if (materialized) {
    os << " mat_rows=" << materialized_rows
       << " mat_bytes=" << materialized_bytes;
  }
  if (build_cache_hits > 0 || build_cache_misses > 0) {
    os << " build_cache=" << build_cache_hits << "/"
       << (build_cache_hits + build_cache_misses);
  }
  if (chains_reused > 0) os << " chains_reused=" << chains_reused;
  if (rows_filtered > 0) os << " filtered=" << rows_filtered;
  if (rows_prefiltered > 0) os << " prefiltered=" << rows_prefiltered;
  if (aggregated) {
    os << " groups=" << agg_groups << " agg_partials=" << agg_partials;
    if (agg_repartition_bytes > 0) {
      os << " agg_repart_bytes=" << agg_repartition_bytes;
    }
  }
  if (imbalance > 0) os << " imbalance=" << imbalance;
  if (validated) os << (reference_match ? " ref=match" : " ref=MISMATCH");
  if (attempt > 0) os << " attempt=" << attempt;
  if (fallback_used) os << " fallback=degraded";
  if (faults_injected > 0) os << " faults=" << faults_injected;
  os << "}";
  return os.str();
}

std::string StreamReport::ToString() const {
  std::ostringstream os;
  os << "StreamReport{" << submitted << " submitted, " << succeeded
     << " ok, " << failed << " failed; makespan=" << makespan_ms
     << "ms serial=" << serial_ms << "ms qps=" << qps
     << " mean=" << mean_ms << "ms p50=" << p50_ms << "ms p95=" << p95_ms
     << "ms p99=" << p99_ms << "ms";
  if (mean_card_error > 0) os << " card_err=" << mean_card_error;
  if (build_cache_hits > 0 || build_cache_misses > 0) {
    os << " build_cache=" << build_cache_hits << "/"
       << (build_cache_hits + build_cache_misses);
  }
  if (rows_filtered > 0) os << " filtered=" << rows_filtered;
  if (agg_groups > 0 || agg_partials > 0) {
    os << " groups=" << agg_groups << " agg_partials=" << agg_partials;
  }
  if (retried > 0 || fallbacks > 0 || unavailable > 0 ||
      faults_injected > 0) {
    os << " retried=" << retried << " fallbacks=" << fallbacks
       << " unavailable=" << unavailable << " faults=" << faults_injected;
  }
  os << "}";
  return os.str();
}

std::string SessionMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"queries\":" << queries << ",\"exec_ms\":{\"mean\":" << exec_mean_ms
     << ",\"p50\":" << exec_p50_ms << ",\"p95\":" << exec_p95_ms
     << ",\"p99\":" << exec_p99_ms << "},\"queue_ms\":{\"mean\":"
     << queue_mean_ms << ",\"p50\":" << queue_p50_ms
     << ",\"p95\":" << queue_p95_ms << ",\"p99\":" << queue_p99_ms
     << "},\"scheduler\":{\"submitted\":" << scheduler.submitted
     << ",\"completed\":" << scheduler.completed
     << ",\"failed\":" << scheduler.failed
     << ",\"cancelled\":" << scheduler.cancelled
     << ",\"rejected\":" << scheduler.rejected
     << ",\"deadline_missed\":" << scheduler.deadline_missed
     << ",\"deadline_missed_queued\":" << scheduler.deadline_missed_queued
     << ",\"retries\":" << scheduler.retries
     << ",\"max_in_flight\":" << scheduler.max_in_flight
     << ",\"in_flight\":" << scheduler.in_flight
     << ",\"queued\":" << scheduler.queued
     << ",\"loop_threads\":" << scheduler.loop_threads
     << ",\"lane_threads\":" << scheduler.lane_threads
     << ",\"loop_wakeups\":" << scheduler.loop_wakeups
     << ",\"timers_fired\":" << scheduler.timers_fired
     << ",\"loop_max_queue_depth\":" << scheduler.loop_max_queue_depth
     << ",\"timer_slip_total_ns\":" << scheduler.timer_slip_total_ns
     << ",\"timer_slip_max_ns\":" << scheduler.timer_slip_max_ns
     << ",\"loop_lag_p50_ms\":" << scheduler.loop_lag_p50_ms
     << ",\"loop_lag_p99_ms\":" << scheduler.loop_lag_p99_ms
     << ",\"tenants\":[";
  for (size_t i = 0; i < scheduler.tenants.size(); ++i) {
    const TenantStats& t = scheduler.tenants[i];
    os << (i ? "," : "") << "{\"name\":\"" << t.name
       << "\",\"max_inflight\":" << t.max_inflight
       << ",\"max_queued\":" << t.max_queued
       << ",\"in_flight\":" << t.in_flight << ",\"queued\":" << t.queued
       << ",\"submitted\":" << t.submitted << ",\"rejected\":" << t.rejected
       << ",\"deadline_missed\":" << t.deadline_missed
       << ",\"clamped\":" << (t.clamped ? "true" : "false") << "}";
  }
  os << "]},\"pool\":{\"threads\":" << pool.pool_threads
     << ",\"tasks\":" << pool.pool_tasks
     << ",\"caller_tasks\":" << pool.caller_tasks
     << ",\"foreign_steals\":" << pool.foreign_steals
     << ",\"worker_deaths\":" << pool.worker_deaths
     << "},\"build_cache\":{\"hits\":" << build_cache.hits
     << ",\"misses\":" << build_cache.misses
     << ",\"evictions\":" << build_cache.evictions
     << ",\"entries\":" << build_cache.entries
     << ",\"bytes\":" << build_cache.bytes
     << "},\"recorder\":{\"recorded\":" << recorder.recorded
     << ",\"dropped\":" << recorder.dropped
     << ",\"rings_claimed\":" << recorder.rings_claimed
     << ",\"rings\":" << recorder.rings
     << ",\"events_per_ring\":" << recorder.events_per_ring << "}}";
  return os.str();
}

std::string SessionMetrics::ToString() const {
  std::ostringstream os;
  os << "SessionMetrics{" << queries << " queries; exec mean="
     << exec_mean_ms << "ms p50=" << exec_p50_ms << "ms p95=" << exec_p95_ms
     << "ms p99=" << exec_p99_ms << "ms; queue mean=" << queue_mean_ms
     << "ms p99=" << queue_p99_ms << "ms; sched " << scheduler.completed
     << " ok/" << scheduler.failed << " failed/" << scheduler.cancelled
     << " cancelled, max_in_flight=" << scheduler.max_in_flight
     << "; pool tasks=" << pool.pool_tasks
     << " steals=" << pool.foreign_steals
     << "; build_cache=" << build_cache.hits << "/"
     << (build_cache.hits + build_cache.misses) << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Session

Session::Session() : Session(SessionOptions{}) {}

namespace {

/// Recorder geometry from the session knobs (0 keeps the defaults).
obs::FlightRecorder::Options RecorderOptions(const SessionOptions& options) {
  obs::FlightRecorder::Options ro;
  ro.armed = options.flight_recorder;
  if (options.recorder_rings != 0) ro.rings = options.recorder_rings;
  if (options.recorder_ring_events != 0) {
    ro.events_per_ring = options.recorder_ring_events;
  }
  return ro;
}

}  // namespace

Session::Session(const SessionOptions& options)
    : recorder_(
          std::make_unique<obs::FlightRecorder>(RecorderOptions(options))),
      pool_threads_(options.pool_threads != 0
                        ? options.pool_threads
                        : std::max(1u, std::thread::hardware_concurrency())),
      session_options_(options),
      scheduler_(std::make_unique<Scheduler>(options, recorder_.get())) {
  build_cache_.SetByteBudget(options.build_cache_bytes);
}

Session::~Session() {
  // Drain in-flight queries first so the final snapshot counts every
  // completion, then flush one last metrics line.
  scheduler_.reset();
  if (!session_options_.metrics_export_path.empty()) ExportMetricsLine();
}

RelId Session::AddRelation(std::string name, uint64_t cardinality,
                           uint32_t tuple_bytes) {
  return db_.AddRelation(std::move(name), cardinality, tuple_bytes);
}

RelId Session::AddTable(mt::Table table) {
  RelId id = db_.AddTable(std::move(table));
  // Conservative invalidation: registration changes what "the same
  // table" means, so drop every cached build (in-flight executions keep
  // their shared_ptrs; content-hash keys would remain correct, clearing
  // just bounds memory and keeps the contract simple).
  build_cache_.Clear();
  std::lock_guard<std::mutex> lock(placement_mu_);
  placements_.clear();
  return id;
}

const mt::Table* Session::table(RelId id) const { return db_.table(id); }

const std::vector<mt::ColumnStats>* Session::table_stats(RelId id) const {
  return db_.stats(id);
}

QueryHandle Session::Submit(const Query& q, const ExecOptions& opts) {
  Status bad = ValidateOptions(opts);
  if (!bad.ok()) return Scheduler::Completed(bad);
  // Plan through the bridges an attempt may run: the simulator's plan
  // only when the primary or fallback backend is simulated, the real one
  // only for a real primary backend.
  auto planned = std::make_shared<Planned>();
  Status st = PlanLogical(q, opts, db_, planned.get());
  if (st.ok() && (opts.backend == Backend::kSimulated ||
                  opts.fallback_backend == Backend::kSimulated)) {
    st = BridgeSimulated(q, opts, planned.get());
  }
  if (st.ok() && opts.backend != Backend::kSimulated) {
    st = BridgeReal(q, opts, db_, planned.get());
  }
  if (!st.ok()) return Scheduler::Completed(st);
  // Planned owns its synthesized tables and is immutable from here on;
  // the closure runs on a scheduler worker, possibly concurrently with
  // other queries, and touches no session containers — only plan-time
  // snapshots (so registration stays safe while queries are in flight).
  double cost = planned->plan_cost;
  auto submit_t = std::chrono::steady_clock::now();

  // Chaos: one injector per query, shared across attempts — its per-site
  // event counters keep advancing, so a retry draws a fresh deterministic
  // fault subsequence from the same seeded plan instead of replaying the
  // failure verbatim.
  const std::optional<fault::FaultPlan>& fplan =
      opts.fault_plan.has_value() ? opts.fault_plan : session_options_.chaos;
  std::shared_ptr<fault::FaultInjector> injector;
  if (fplan.has_value() && fplan->armed()) {
    injector = std::make_shared<fault::FaultInjector>(*fplan);
  }
  RetrySpec rspec;
  rspec.max_retries = opts.max_retries;
  rspec.fallback = opts.fallback_backend.has_value() &&
                   *opts.fallback_backend != opts.backend;
  rspec.backoff_base_ms = opts.retry_backoff_ms;
  rspec.backoff_max_ms = opts.retry_backoff_max_ms;
  return scheduler_->Submit(
      cost, opts.deadline_ms, opts.tenant, rspec,
      [this, planned, opts, submit_t, injector, rspec](
          const std::atomic<bool>& stop, uint32_t attempt, uint64_t seq) {
        // The closure runs at dispatch: the gap since submission is the
        // admission-queue wait, the rest is execution — both feed the
        // session's continuous latency histograms whatever the outcome.
        double queue_ms = WallSince(submit_t) * 1000.0;
        auto t0 = std::chrono::steady_clock::now();
        FaultCtx fc;
        fc.injector = injector.get();
        fc.query_seq = seq;
        ExecOptions eff = opts;
        const bool fallback =
            rspec.fallback && attempt + 1 == rspec.max_attempts();
        if (fallback) {
          // Graceful degradation: the extra final attempt runs on the
          // fallback backend, single node.
          eff.backend = *opts.fallback_backend;
          eff.nodes = 1;
        }
        const uint64_t faults_before =
            injector != nullptr ? injector->counters().total() : 0;
        // A traced real-data attempt's trace is its share of the event
        // stream: everything tagged `seq` from here to EndTrace, the
        // attempt's opening and chaos instants included. (The simulator
        // builds its virtual-time trace from its metrics.)
        const bool traced = opts.trace && eff.backend != Backend::kSimulated;
        if (traced) recorder_->BeginTrace(seq);
        if (attempt > 0) {
          recorder_->Instant(obs::EventKind::kRetry, seq, attempt);
        }
        recorder_->Instant(obs::EventKind::kSchedule, seq,
                           static_cast<uint64_t>(queue_ms * 1e6));
        auto r = eff.backend == Backend::kSimulated
                     ? RunSimulated(*planned, eff, stop)
                     : RunReal(*planned, eff, stop, fc);
        const uint64_t faults_fired =
            injector != nullptr ? injector->counters().total() - faults_before
                                : 0;
        if (fallback) {
          recorder_->Instant(obs::EventKind::kFallback, seq, 1);
        }
        if (faults_fired > 0) {
          recorder_->Instant(obs::EventKind::kFault, seq, faults_fired);
        }
        std::vector<obs::TraceEvent> events;
        if (traced) events = recorder_->EndTrace(seq);
        RecordCompletion(queue_ms, WallSince(t0) * 1000.0);
        if (r.ok()) {
          ExecutionReport& rep = r.value().report;
          rep.attempt = attempt;
          rep.fallback_used = fallback;
          rep.faults_injected = faults_fired;
          if (traced && rep.trace != nullptr) {
            auto qt = std::make_shared<obs::QueryTrace>(*rep.trace);
            qt->events = std::move(events);
            rep.trace = std::move(qt);
          }
        }
        // Anomaly-triggered forensics: a missed deadline, an Unavailable
        // outcome (about to be retried or final), a retry that ran, a
        // degraded fallback run, or a validation mismatch (digest or
        // capture rows) snapshots the black box while the evidence is
        // still in the rings.
        std::string anomaly;
        if (!r.ok()) {
          if (r.status().code() == StatusCode::kDeadlineExceeded) {
            anomaly = "deadline_exceeded";
          } else if (r.status().code() == StatusCode::kUnavailable) {
            anomaly = "unavailable";
          } else if (r.status().code() == StatusCode::kCancelled &&
                     opts.deadline_ms > 0 &&
                     WallSince(submit_t) * 1000.0 >= opts.deadline_ms) {
            // A mid-run deadline miss reaches the closure as the raw
            // cooperative Cancelled (the lane rewrites it to
            // DeadlineExceeded only after the run returns); a user cancel
            // before the deadline stays a non-anomaly.
            anomaly = "deadline_exceeded";
          }
        } else {
          const ExecutionReport& rep = r.value().report;
          if (rep.validated && !rep.reference_match) {
            anomaly = "digest_mismatch";
          } else if (rep.validated && !rep.captures.empty() &&
                     !rep.captures_match) {
            anomaly = "capture_mismatch";
          } else if (attempt > 0) {
            anomaly = "retry";
          } else if (fallback) {
            anomaly = "fallback";
          }
        }
        if (!anomaly.empty() && !session_options_.forensics_dir.empty()) {
          const std::vector<obs::CaptureResult>* caps =
              r.ok() && !r.value().report.captures.empty()
                  ? &r.value().report.captures
                  : nullptr;
          std::string dir = WriteForensicBundle(anomaly, seq, planned.get(),
                                                &eff, caps, /*counted=*/true);
          if (r.ok()) r.value().report.forensic_bundle = std::move(dir);
        }
        return r;
      });
}

Result<ExecutionReport> Session::Execute(const Query& q,
                                         const ExecOptions& opts) {
  auto got = Submit(q, opts).Take();
  if (!got.ok()) return got.status();
  return std::move(got).value().report;
}

StreamReport Session::RunStream(const std::vector<Query>& queries,
                                const ExecOptions& opts) {
  StreamReport sr;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<QueryHandle> handles;
  handles.reserve(queries.size());
  for (const Query& q : queries) handles.push_back(Submit(q, opts));

  std::vector<double> latencies;
  double card_err_sum = 0.0;
  uint64_t card_err_n = 0;
  for (QueryHandle& h : handles) {
    ++sr.submitted;
    Result<QueryResult> r = h.Take();
    if (r.ok()) {
      ++sr.succeeded;
      latencies.push_back(r.value().exec_ms);
      sr.serial_ms += r.value().exec_ms;
      sr.build_cache_hits += r.value().report.build_cache_hits;
      sr.build_cache_misses += r.value().report.build_cache_misses;
      sr.rows_filtered += r.value().report.rows_filtered;
      sr.agg_groups += r.value().report.agg_groups;
      sr.agg_partials += r.value().report.agg_partials;
      sr.agg_repartition_bytes += r.value().report.agg_repartition_bytes;
      if (r.value().report.attempt > 0) ++sr.retried;
      if (r.value().report.fallback_used) ++sr.fallbacks;
      sr.faults_injected += r.value().report.faults_injected;
      for (const obs::ChainCard& cc : r.value().report.chain_cards) {
        if (!cc.has_actual) continue;
        card_err_sum += std::abs(static_cast<double>(cc.actual_rows) -
                                 cc.est_rows) /
                        std::max(cc.est_rows, 1.0);
        ++card_err_n;
      }
    } else {
      ++sr.failed;
      if (r.status().code() == StatusCode::kUnavailable) ++sr.unavailable;
    }
    sr.results.push_back(std::move(r));
  }
  sr.makespan_ms = WallSince(t0) * 1000.0;
  if (!latencies.empty()) {
    sr.mean_ms = Mean(latencies);
    sr.p50_ms = Percentile(latencies, 50.0);
    sr.p95_ms = Percentile(latencies, 95.0);
    sr.p99_ms = Percentile(latencies, 99.0);
  }
  if (card_err_n > 0) {
    sr.mean_card_error = card_err_sum / static_cast<double>(card_err_n);
  }
  if (sr.makespan_ms > 0) sr.qps = sr.succeeded / (sr.makespan_ms / 1000.0);
  return sr;
}

SchedulerStats Session::scheduler_stats() const { return scheduler_->stats(); }

WorkerPool& Session::EnsurePool() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(pool_threads_, recorder_.get());
  }
  return *pool_;
}

PoolStats Session::pool_stats() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_ != nullptr ? pool_->stats() : PoolStats{};
}

mt::BuildCache::Stats Session::build_cache_stats() const {
  return build_cache_.stats();
}

Result<QueryResult> Session::RunSimulated(
    const Planned& p, const ExecOptions& opts,
    const std::atomic<bool>& stop) const {
  sim::SystemConfig cfg;
  if (opts.sim_config.has_value()) {
    cfg = *opts.sim_config;
  } else {
    cfg.num_nodes = opts.nodes;
    cfg.procs_per_node = opts.threads_per_node;
    cfg.enable_global_lb = opts.global_lb;
    cfg.primary_queue_affinity = opts.primary_queue_affinity;
    cfg.model_memory_hierarchy = opts.model_memory_hierarchy;
    if (opts.buckets) cfg.buckets_per_operator = opts.buckets;
    if (opts.batch_rows) cfg.activation_batch_tuples = opts.batch_rows;
    if (opts.queue_capacity) cfg.queue_capacity = opts.queue_capacity;
  }
  if (opts.strategy == Strategy::kSP && cfg.num_nodes > 1) {
    return Status::InvalidArgument(
        "SP (synchronous pipelining) is shared-memory only: nodes must be 1");
  }

  // One simulated query at a time: the discrete-event run is deterministic
  // per query, and serializing keeps concurrent submissions reproducible.
  std::lock_guard<std::mutex> sim_lock(sim_mu_);
  // A cancel that landed while this query waited behind other simulated
  // runs wins here; the engine also checks the token per event batch.
  if (stop.load(std::memory_order_acquire)) {
    return Status::Cancelled("query cancelled during execution");
  }
  exec::Engine engine(cfg, opts.strategy);
  exec::RunOptions ro;
  ro.skew_theta = opts.skew_theta;
  ro.fp_error_rate = opts.fp_error_rate;
  ro.seed = opts.seed;
  ro.max_events = opts.max_events;
  ro.timeline_bucket = opts.timeline_bucket;
  ro.stop = &stop;
  exec::RunResult rr = engine.Run(p.pplan, p.cat, ro);
  if (!rr.status.ok()) {
    // A cooperative stop carries what was completed before the token
    // fired, so a deadline miss (the scheduler rewrites Cancelled to
    // DeadlineExceeded) still reports partial progress.
    if (rr.status.code() == StatusCode::kCancelled) {
      return Status::Cancelled(
          rr.status.message() + " [partial: acts=" +
          std::to_string(rr.metrics.activations_processed) +
          " tuples=" + std::to_string(rr.metrics.tuples_processed) + "]");
    }
    return rr.status;
  }

  const exec::RunMetrics& m = rr.metrics;
  ExecutionReport rep;
  rep.backend = Backend::kSimulated;
  rep.strategy = opts.strategy;
  rep.response_ms = m.ResponseMs();
  rep.idle_fraction = m.IdleFraction();
  rep.activations = m.activations_processed;
  rep.tuples = m.tuples_processed;
  rep.pipeline_bytes = m.net.bytes_pipeline;
  rep.lb_bytes = m.net.bytes_loadbalance;
  rep.steals = m.global_steals;
  rep.stolen_activations = m.stolen_activations;
  for (const auto& op : p.pplan.ops) {
    rep.op_labels.push_back(op.label);
    rep.op_end_ms.push_back(ToMillis(m.op_end_time[op.id]));
  }
  rep.sim = m;
  // Estimate-only chain cards: the simulator has no rows to count.
  for (uint32_t c = 0; c < p.pplan.chains.size(); ++c) {
    const plan::PipelineChain& ch = p.pplan.chains[c];
    obs::ChainCard cc;
    cc.chain = c;
    if (!ch.ops.empty()) {
      const plan::Operator& last = p.pplan.ops[ch.ops.back()];
      cc.est_rows = last.kind == plan::OpKind::kBuild ? last.input_card
                                                      : last.output_card;
    }
    rep.chain_cards.push_back(cc);
  }
  if (opts.trace) {
    // Virtual-time spans reconstructed from the engine's per-operator end
    // times and busy totals — no simulator instrumentation needed, and
    // SimTime is already nanoseconds, so the trace schema lines up.
    auto qt = std::make_shared<obs::QueryTrace>();
    qt->backend = "sim";
    qt->strategy = StrategyName(opts.strategy);
    qt->response_ms = rep.response_ms;
    qt->nodes = cfg.num_nodes;
    qt->workers_per_node = cfg.procs_per_node;
    qt->virtual_time = true;
    qt->ops = SimTraceOps(p.pplan);
    qt->chains = rep.chain_cards;
    for (const auto& op : p.pplan.ops) {
      if (op.id >= m.op_end_time.size()) continue;
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      ev.op = static_cast<int32_t>(op.id);
      ev.end_ns = static_cast<uint64_t>(
          std::max<SimTime>(0, m.op_end_time[op.id]));
      uint64_t busy = op.id < m.op_busy_ns.size()
                          ? static_cast<uint64_t>(
                                std::max(0.0, m.op_busy_ns[op.id]))
                          : 0;
      ev.start_ns = ev.end_ns > busy ? ev.end_ns - busy : 0;
      ev.detail = busy;
      ev.activations = 1;
      if (op.id < m.op_tuples_in.size()) ev.rows_in = m.op_tuples_in[op.id];
      qt->events.push_back(ev);
    }
    // A trace is sorted by start time. Note a virtual span's
    // busy time sums over every processor that worked the operator, so it
    // may exceed the span's wall extent — consumers see virtual_time.
    std::sort(qt->events.begin(), qt->events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                return a.start_ns < b.start_ns;
              });
    rep.trace = std::move(qt);
  }
  QueryResult qr;
  qr.report = std::move(rep);
  return qr;
}

/// Driving scan inputs are placed round-robin (or with Zipf placement skew
/// when requested); build relations hash-decluster on their build column
/// (the paper's assumption). Placement only affects locality — the bucket
/// routing re-scatters rows regardless — so any first-use rule is correct.
/// Partitions keep full-width rows; the executor's scans emit the pruned
/// plan's projected ones. Synthesized tables are private to their query
/// and never memoized.
std::vector<std::shared_ptr<const cluster::PartitionedTable>>
Session::PlaceTables(const Planned& p, const ExecOptions& opts) const {
  const std::vector<const mt::Table*>& tables = p.tables;
  std::vector<std::shared_ptr<const cluster::PartitionedTable>> parts(
      tables.size());
  // rule: 0 round-robin, 1 placement skew (theta, seed), 2 hash (column).
  auto place = [&](uint32_t idx, uint32_t rule, uint64_t param) {
    if (parts[idx] != nullptr) return;
    auto make = [&] {
      const mt::Table& t = *tables[idx];
      return std::make_shared<const cluster::PartitionedTable>(
          rule == 2   ? cluster::PartitionByHash(
                            t, opts.nodes, static_cast<uint32_t>(param))
          : rule == 1 ? cluster::PartitionWithPlacementSkew(
                            t, opts.nodes, opts.placement_theta, opts.seed)
                      : cluster::PartitionRoundRobin(t, opts.nodes));
    };
    const uint64_t id = p.owned.empty() && idx < p.cache_ids.size()
                            ? p.cache_ids[idx]
                            : 0;
    if (id == 0) {
      parts[idx] = make();
      return;
    }
    const PlacementKey key{id, opts.nodes, rule, param,
                           rule == 1 ? opts.seed : 0};
    {
      std::lock_guard<std::mutex> lock(placement_mu_);
      auto it = placements_.find(key);
      if (it != placements_.end()) {
        parts[idx] = it->second;
        return;
      }
    }
    auto made = make();  // outside the lock; a racing placer's copy wins
    std::lock_guard<std::mutex> lock(placement_mu_);
    parts[idx] = placements_.emplace(key, std::move(made)).first->second;
  };
  auto place_input = [&](uint32_t idx) {
    if (opts.placement_theta > 0) {
      place(idx, 1, std::bit_cast<uint64_t>(opts.placement_theta));
    } else {
      place(idx, 0, 0);
    }
  };
  for (const mt::Chain& chain : p.mtplan.chains) {
    if (chain.input.kind == mt::Source::Kind::kTable) {
      place_input(chain.input.index);
    }
    for (const mt::JoinStep& j : chain.joins) {
      if (j.build.kind == mt::Source::Kind::kTable) {
        place(j.build.index, 2, j.build_col);
      }
    }
  }
  for (uint32_t i = 0; i < parts.size(); ++i) place_input(i);  // leftovers
  return parts;
}

Result<QueryResult> Session::RunReal(const Planned& p,
                                     const ExecOptions& opts,
                                     const std::atomic<bool>& stop,
                                     const FaultCtx& fc) const {
  if (!p.has_real) return Status::InvalidArgument(p.real_gap);
  const bool on_cluster = opts.backend == Backend::kCluster;

  // Column pruning: aggregated plans drop base-table columns nothing
  // downstream reads (mt/prune.h), so kCluster's repartition wire ships
  // only the kept columns. The pruned copy is local to this execution —
  // planner estimates and traces keep reporting the original plan.
  // kCluster runs the whole (possibly bushy) chain DAG on the nodes over
  // partitioned tables; kThreads runs query.plan over the whole tables
  // and leaves query.tables empty.
  cluster::PlanQuery query;
  query.plan = p.mtplan;
  const mt::PipelinePlan& plan = query.plan;
  std::vector<uint32_t> widths;
  widths.reserve(p.tables.size());
  for (const mt::Table* t : p.tables) widths.push_back(t->width());
  mt::PruneColumns(&query.plan, widths);
  std::vector<std::shared_ptr<const cluster::PartitionedTable>> parts;
  if (on_cluster) {
    parts = PlaceTables(p, opts);
    for (const auto& pt : parts) query.tables.push_back(pt.get());
    HIERDB_RETURN_NOT_OK(query.Validate(opts.nodes));
  }

  std::unique_ptr<ExecContext> ctx =
      EnsurePool().Rent(&stop, fc.injector, fc.query_seq);
  mt::PipelineOptions po;
  cluster::ClusterOptions co;
  mt::EngineOptions& eo = on_cluster ? static_cast<mt::EngineOptions&>(co)
                                     : static_cast<mt::EngineOptions&>(po);
  eo.threads = opts.threads_per_node;
  eo.strategy = opts.strategy;
  eo.ctx = ctx.get();
  if (opts.buckets) eo.buckets = opts.buckets;
  if (opts.morsel_rows) eo.morsel_rows = opts.morsel_rows;
  if (opts.batch_rows) eo.batch_rows = opts.batch_rows;
  if (opts.queue_capacity) eo.queue_capacity = opts.queue_capacity;
  eo.apply_h1 = opts.apply_h1;
  eo.apply_h2 = opts.apply_h2;
  eo.recorder = recorder_.get();
  eo.recorder_query = fc.query_seq;
  // One bounded sample sink per capture point, for the executor and the
  // reference alike.
  auto make_sinks = [&](std::vector<std::unique_ptr<obs::RowCapture>>* own) {
    std::vector<mt::CaptureSink> caps;
    for (const auto& cs : p.captures) {
      own->push_back(
          std::make_unique<obs::RowCapture>(session_options_.capture_rows));
      caps.push_back({cs.chain, cs.point, own->back().get()});
    }
    return caps;
  };
  std::vector<std::unique_ptr<obs::RowCapture>> cap_sinks;
  eo.captures = make_sinks(&cap_sinks);
  if (opts.strategy == Strategy::kFP && opts.fp_error_rate > 0) {
    const uint32_t ops = mt::CompiledOpCount(plan);
    Rng rng(opts.seed ^ 0x9E3779B97F4A7C15ULL);
    eo.fp_cost_distortion.resize(ops);
    for (double& d : eo.fp_cost_distortion) {
      d = 1.0 + opts.fp_error_rate * (2.0 * rng.NextDouble() - 1.0);
    }
  }
  if (on_cluster) {
    co.nodes = opts.nodes;
    co.global_lb = opts.global_lb;
    co.cache_stolen_fragments = opts.cache_stolen_fragments;
    if (opts.steal_batch) co.steal_batch = opts.steal_batch;
    if (opts.min_steal) co.min_steal = opts.min_steal;
    if (fc.injector != nullptr) {
      // Chaos: arm fabric/node-loop injection and the detection tier
      // (heartbeats, liveness timeouts, the node-0 progress watchdog)
      // that turns injected failures into typed Unavailable statuses.
      co.injector = fc.injector;
      co.detect_faults = true;
      co.heartbeat_us = opts.heartbeat_us;
      co.liveness_timeout_ms = opts.liveness_timeout_ms;
    }
  }
  if (opts.reuse_builds) {
    eo.build_cache = &build_cache_;
    eo.table_cache_ids = p.cache_ids;
    eo.cache_seed_skew = p.cache_seed_skew;
  }

  // The executor outlives the report, so its teardown stays out of
  // wall_seconds; the rental is returned as soon as the run ends.
  std::optional<mt::PipelineExecutor> threads_exec;
  std::optional<cluster::ClusterExecutor> cluster_exec;
  mt::PipelineStats tstats;
  cluster::ClusterStats cstats;
  QueryResult qr;
  mt::Batch* materialized = opts.materialize ? &qr.rows : nullptr;
  auto t0 = std::chrono::steady_clock::now();
  auto got = on_cluster ? cluster_exec.emplace(co).Execute(query, &cstats,
                                                            materialized)
                        : threads_exec.emplace(po).Execute(
                              plan, p.tables, &tstats, materialized);
  double wall = WallSince(t0);
  ctx.reset();
  const mt::EngineStats& es = on_cluster
                                 ? static_cast<const mt::EngineStats&>(cstats)
                                 : static_cast<const mt::EngineStats&>(tstats);
  const uint64_t activations = es.morsels + es.data_activations;
  const uint64_t rows_filtered = es.rows_filtered;
  if (!got.ok()) {
    if (got.status().code() == StatusCode::kCancelled) {
      return Status::Cancelled(
          got.status().message() + " [partial: acts=" +
          std::to_string(activations) +
          " filtered=" + std::to_string(rows_filtered) + "]");
    }
    return got.status();
  }

  ExecutionReport rep;
  rep.backend = opts.backend;
  rep.strategy = opts.strategy;
  rep.wall_seconds = wall;
  rep.response_ms = wall * 1000.0;
  rep.activations = activations;
  rep.has_result = true;
  rep.result_rows = got.value().count;
  rep.result_checksum = got.value().checksum;
  rep.rows_filtered = rows_filtered;
  rep.aggregated = p.has_agg;
  rep.rows_prefiltered = p.prefiltered_rows;
  rep.idle_waits = es.idle_waits;
  rep.build_cache_hits = es.build_cache_hits;
  rep.build_cache_misses = es.build_cache_misses;
  rep.direct_probes = es.direct_probes;
  rep.chained_probes = es.chained_probes;
  rep.agg_groups = es.agg_groups;
  rep.agg_partials = es.agg_partials;
  if (on_cluster) {
    rep.pipeline_bytes = cstats.dataflow_bytes;
    rep.lb_bytes = cstats.lb_bytes;
    rep.steals = cstats.steals;
    rep.stolen_activations = cstats.stolen_activations;
    rep.intermediate_rows = cstats.intermediate_rows;
    rep.intermediate_bytes = cstats.intermediate_bytes;
    rep.imbalance = cstats.NodeImbalance();
    rep.agg_repartition_bytes = cstats.agg_repartition_bytes;
    rep.cluster = cstats;
  } else {
    rep.stolen_activations = tstats.nonprimary;
    rep.imbalance = tstats.Imbalance();
    rep.threads = tstats;
  }
  const std::vector<uint64_t>& rows_per_chain = es.rows_per_chain;
  const std::vector<bool>& chain_reused = es.chain_reused;
  rep.chains_reused = static_cast<uint32_t>(
      std::count(chain_reused.begin(), chain_reused.end(), true));
  rep.chain_cards = ChainCards(p, &rows_per_chain, &chain_reused);
  for (size_t i = 0; i < cap_sinks.size(); ++i) {
    rep.captures.push_back(cap_sinks[i]->Take(
        p.captures[i].name, p.captures[i].chain, p.captures[i].point));
  }
  if (opts.trace) {
    auto qt = std::make_shared<obs::QueryTrace>(
        PlanTrace(p, opts, rows_per_chain, &chain_reused));
    qt->response_ms = rep.response_ms;
    rep.trace = std::move(qt);  // Submit adds the attempt's events
  }
  if (opts.validate) {
    // One reference for both backends: the pruned plan over the whole
    // tables (cluster placement only splits rows across nodes).
    std::vector<std::unique_ptr<obs::RowCapture>> ref_sinks;
    auto ref = mt::ReferenceExecute(plan, p.tables, make_sinks(&ref_sinks));
    HIERDB_RETURN_NOT_OK(ref.status());
    rep.validated = true;
    rep.reference_rows = ref.value().count;
    rep.reference_match = ref.value() == got.value();
    rep.captures_match = true;
    for (size_t i = 0; i < ref_sinks.size(); ++i) {
      obs::CaptureResult rc = ref_sinks[i]->Take(
          p.captures[i].name, p.captures[i].chain, p.captures[i].point);
      if (!rep.captures[i].SameRows(rc)) rep.captures_match = false;
    }
  }
  if (opts.materialize) {
    qr.materialized = true;
    rep.materialized = true;
    rep.materialized_rows = qr.rows.rows();
    rep.materialized_bytes = qr.rows.bytes();
  }
  qr.report = std::move(rep);
  return qr;
}

Result<std::string> Session::Explain(const Query& q,
                                     const ExecOptions& opts) const {
  HIERDB_RETURN_NOT_OK(ValidateOptions(opts));
  Planned p;
  HIERDB_RETURN_NOT_OK(PlanLogical(q, opts, db_, &p));
  HIERDB_RETURN_NOT_OK(BridgeSimulated(q, opts, &p));
  HIERDB_RETURN_NOT_OK(BridgeReal(q, opts, db_, &p));
  return ExplainText(q, opts, p);
}

Result<std::string> Session::ExplainDot(const Query& q,
                                        const ExecOptions& opts) const {
  HIERDB_RETURN_NOT_OK(ValidateOptions(opts));
  Planned p;
  HIERDB_RETURN_NOT_OK(PlanLogical(q, opts, db_, &p));
  const bool sim = opts.backend == Backend::kSimulated;
  HIERDB_RETURN_NOT_OK(sim ? BridgeSimulated(q, opts, &p)
                           : BridgeReal(q, opts, db_, &p));
  if (!sim && !p.has_real) return Status::InvalidArgument(p.real_gap);
  // The same plan graph a traced execution carries, so the DOT shape
  // matches what PlanDot renders from ExecutionReport::trace — minus the
  // actuals and span annotations.
  obs::QueryTrace qt = PlanTrace(p, opts);
  if (sim) qt.ops = SimTraceOps(p.pplan);
  return obs::PlanDot(qt);
}

SessionMetrics Session::MetricsSnapshot() const {
  SessionMetrics m;
  if (scheduler_ != nullptr) m.scheduler = scheduler_->stats();
  m.pool = pool_stats();
  m.build_cache = build_cache_.stats();
  m.recorder = recorder_->stats();
  m.queries = exec_hist_.Count();
  m.exec_mean_ms = exec_hist_.MeanMs();
  m.exec_p50_ms = exec_hist_.PercentileMs(0.50);
  m.exec_p95_ms = exec_hist_.PercentileMs(0.95);
  m.exec_p99_ms = exec_hist_.PercentileMs(0.99);
  m.queue_mean_ms = queue_hist_.MeanMs();
  m.queue_p50_ms = queue_hist_.PercentileMs(0.50);
  m.queue_p95_ms = queue_hist_.PercentileMs(0.95);
  m.queue_p99_ms = queue_hist_.PercentileMs(0.99);
  return m;
}

void Session::RecordCompletion(double queue_ms, double exec_ms) const {
  queue_hist_.Record(queue_ms);
  exec_hist_.Record(exec_ms);
  uint64_t n = completions_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!session_options_.metrics_export_path.empty()) {
    uint32_t every = std::max(1u, session_options_.metrics_export_every);
    if (n % every == 0) ExportMetricsLine();
  }
}

void Session::ExportMetricsLine() const {
  // Serialized so concurrent completions never interleave partial lines;
  // append mode keeps the file a growing JSONL log across snapshots.
  std::lock_guard<std::mutex> lock(metrics_export_mu_);
  std::ofstream out(session_options_.metrics_export_path, std::ios::app);
  if (!out) return;
  out << MetricsSnapshot().ToJson() << "\n";
}

Result<std::string> Session::DumpForensics(const std::string& reason) {
  if (session_options_.forensics_dir.empty()) {
    return Status::FailedPrecondition(
        "SessionOptions::forensics_dir is not set");
  }
  std::string dir = WriteForensicBundle(reason, /*query_seq=*/0,
                                        /*planned=*/nullptr, /*opts=*/nullptr,
                                        /*captures=*/nullptr,
                                        /*counted=*/false);
  if (dir.empty()) {
    return Status::Internal("could not create the forensic bundle under '" +
                            session_options_.forensics_dir + "'");
  }
  return dir;
}

std::string Session::WriteForensicBundle(
    const std::string& reason, uint64_t query_seq, const Planned* planned,
    const ExecOptions* opts,
    const std::vector<obs::CaptureResult>* captures, bool counted) const {
  if (session_options_.forensics_dir.empty()) return "";
  uint32_t n = 0;
  {
    std::lock_guard<std::mutex> lock(forensics_mu_);
    if (counted &&
        forensic_counted_ >= session_options_.forensics_max_bundles) {
      return "";
    }
    if (counted) ++forensic_counted_;
    n = forensic_bundles_++;
  }
  const std::string dir = session_options_.forensics_dir + "/bundle-" +
                          std::to_string(query_seq) + "-" + std::to_string(n);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  std::vector<const char*> files;
  auto write = [&](const char* name, const std::string& body) {
    std::ofstream out(dir + "/" + name, std::ios::trunc);
    if (out) {
      out << body;
      files.push_back(name);
    }
  };

  // flight.json — the black box through the standard Chrome-trace
  // exporter, so chrome://tracing and ValidateChromeTraceJson treat the
  // ring snapshot like any per-query trace.
  obs::QueryTrace flight;
  flight.backend = "recorder";
  flight.events = recorder_->Snapshot();
  write("flight.json", obs::ChromeTraceJson(flight));

  // plan.json — the implicated query's plan graph (anomaly dumps; an
  // explicit DumpForensics has no query at hand).
  if (planned != nullptr && opts != nullptr && planned->has_real) {
    write("plan.json", obs::PlanJson(PlanTrace(*planned, *opts)));
  }

  write("metrics.json", MetricsSnapshot().ToJson());

  // captures.json — the bounded plan-point row samples, reference-
  // comparable offline (the selection rule is backend-independent).
  if (captures != nullptr && !captures->empty()) {
    std::ostringstream os;
    os << "{\"captures\":[";
    for (size_t i = 0; i < captures->size(); ++i) {
      const obs::CaptureResult& c = (*captures)[i];
      os << (i ? "," : "") << "{\"name\":\"" << c.name
         << "\",\"chain\":" << c.chain << ",\"point\":" << c.point
         << ",\"width\":" << c.width << ",\"offered\":" << c.offered
         << ",\"rows\":[";
      for (size_t r = 0; r < c.rows.size(); ++r) {
        os << (r ? "," : "") << "[";
        for (size_t j = 0; j < c.rows[r].size(); ++j) {
          os << (j ? "," : "") << c.rows[r][j];
        }
        os << "]";
      }
      os << "]}";
    }
    os << "]}";
    write("captures.json", os.str());
  }

  std::ostringstream os;
  os << "{\"reason\":\"" << reason << "\",\"query\":" << query_seq
     << ",\"events\":" << flight.events.size() << ",\"files\":[";
  for (size_t i = 0; i < files.size(); ++i) {
    os << (i ? "," : "") << "\"" << files[i] << "\"";
  }
  os << "]}";
  std::ofstream manifest(dir + "/manifest.json", std::ios::trunc);
  if (manifest) manifest << os.str();
  return dir;
}

}  // namespace hierdb::api
