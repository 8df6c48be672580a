#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "api/scheduler.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mt/plan.h"
#include "mt/prune.h"
#include "mt/query_bind.h"
#include "obs/export.h"

namespace hierdb::api {

namespace {

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t MixU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h == 0 ? 1 : h;
}

uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------
// Cardinality estimation and trace-plan builders (shared by the report's
// chain_cards, the traced QueryTrace plan graphs, and ExplainDot).

/// Default FK selectivity over input cardinalities (base or estimated):
/// each join result about the larger input.
double DefaultSelectivity(double a, double b) {
  if (a <= 0 || b <= 0) return 1.0;
  return std::max(a, b) / (a * b);
}

/// Per-relation filter pass fraction from the plan-time estimates
/// (Planned::filter_pass — stats-driven where column statistics exist,
/// System R defaults otherwise); relations outside the vector (or with
/// predicates already pushed into their bind) pass everything.
double PassOf(const std::vector<double>& filter_pass, uint32_t idx) {
  return idx < filter_pass.size() ? filter_pass[idx] : 1.0;
}

/// Estimated rows entering the pipeline from `s`: filtered table size for
/// base relations, the producing chain's estimate for chain sources.
double SourceEst(const std::vector<double>& filter_pass,
                 const std::vector<const mt::Table*>& tables,
                 const std::vector<double>& chain_est, const mt::Source& s) {
  if (s.kind == mt::Source::Kind::kTable) {
    return static_cast<double>(tables[s.index]->rows()) *
           PassOf(filter_pass, s.index);
  }
  return s.index < chain_est.size() ? chain_est[s.index] : 0.0;
}

/// Cardinality-estimate walk over the bound pipeline plan: the estimated
/// output cardinality of every chain, in chain order.
std::vector<double> EstimateChainRows(
    const mt::PipelinePlan& plan, const std::vector<double>& filter_pass,
    const std::vector<const mt::Table*>& tables) {
  std::vector<double> est;
  for (const mt::Chain& chain : plan.chains) {
    double e = SourceEst(filter_pass, tables, est, chain.input);
    for (const mt::JoinStep& j : chain.joins) {
      double b = SourceEst(filter_pass, tables, est, j.build);
      e = e * b * DefaultSelectivity(e, b);
    }
    est.push_back(e);
  }
  return est;
}

/// `reused` (optional) marks chains a real backend elided: their output
/// came from the build cache, so they have no measured actual.
std::vector<obs::ChainCard> MakeChainCards(
    const std::vector<double>& est, const std::vector<uint64_t>* actual,
    const std::vector<bool>* reused = nullptr) {
  std::vector<obs::ChainCard> cards;
  for (uint32_t c = 0; c < est.size(); ++c) {
    obs::ChainCard card;
    card.chain = c;
    card.est_rows = est[c];
    const bool elided =
        reused != nullptr && c < reused->size() && (*reused)[c];
    if (actual != nullptr && c < actual->size() && !elided) {
      card.actual_rows = (*actual)[c];
      card.has_actual = true;
    }
    cards.push_back(card);
  }
  return cards;
}

std::string SourceName(const catalog::Catalog& cat, const mt::Source& s) {
  if (s.kind == mt::Source::Kind::kTable) return cat.relation(s.index).name;
  return "chain" + std::to_string(s.index);
}

/// Trace-plan graph matching the real backends' compiled op space (one
/// layout for both, mt/node_engine.h); on the cluster, aggregated plans
/// append the distributed-aggregation sentinel op (id = compiled op
/// count) its agg-phase spans reference. When `actual` is non-empty each
/// chain's terminal op is annotated with its measured output rows.
std::vector<obs::TraceOp> RealTraceOps(
    const mt::PipelinePlan& plan, const std::vector<double>& filter_pass,
    const std::vector<const mt::Table*>& tables, const catalog::Catalog& cat,
    const std::vector<double>& chain_est, const std::vector<uint64_t>& actual,
    bool cluster) {
  std::vector<obs::TraceOp> ops;
  std::vector<uint32_t> terminal;  ///< per chain: its last dataflow op
  uint32_t base = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const mt::Chain& chain = plan.chains[c];
    const uint32_t k = static_cast<uint32_t>(chain.joins.size());
    // The compiled op space (mt/node_engine.h): buildscans, builds, scan,
    // probes.
    for (uint32_t layer = 0; layer < 2; ++layer) {
      for (uint32_t j = 0; j < k; ++j) {
        const mt::Source& src = chain.joins[j].build;
        obs::TraceOp op;
        op.id = base + layer * k + j;
        op.kind = layer == 0 ? "buildscan" : "build";
        op.label = op.kind + " " + SourceName(cat, src);
        op.chain = static_cast<int32_t>(c);
        op.est_rows = SourceEst(filter_pass, tables, chain_est, src);
        if (layer > 0) {
          op.inputs.push_back(base + j);
        } else if (src.kind == mt::Source::Kind::kChain) {
          op.inputs.push_back(terminal[src.index]);
        }
        ops.push_back(std::move(op));
      }
    }
    const uint32_t builds = base + k;
    obs::TraceOp scan;
    scan.id = base + 2 * k;
    scan.kind = "scan";
    scan.label = "scan " + SourceName(cat, chain.input);
    scan.chain = static_cast<int32_t>(c);
    scan.est_rows = SourceEst(filter_pass, tables, chain_est, chain.input);
    if (chain.input.kind == mt::Source::Kind::kChain) {
      scan.inputs.push_back(terminal[chain.input.index]);
    }
    double e = scan.est_rows;
    uint32_t prev = scan.id;
    ops.push_back(std::move(scan));
    for (uint32_t j = 0; j < k; ++j) {
      obs::TraceOp op;
      op.id = prev + 1;
      op.kind = "probe";
      op.label = "probe " + SourceName(cat, chain.joins[j].build);
      op.chain = static_cast<int32_t>(c);
      double b = SourceEst(filter_pass, tables, chain_est, chain.joins[j].build);
      e = e * b * DefaultSelectivity(e, b);
      op.est_rows = e;
      op.inputs = {prev, builds + j};
      prev = op.id;
      ops.push_back(std::move(op));
    }
    terminal.push_back(prev);
    if (c < actual.size()) ops[prev].actual_rows = actual[c];
    base = prev + 1;
  }
  if (cluster && plan.agg.has_value()) {
    obs::TraceOp op;
    op.id = base;  // the executor's agg-phase sentinel (== compiled ops)
    op.kind = "agg";
    op.label = "aggregate";
    op.est_rows = plan.agg->group_cols.empty()
                      ? 1.0
                      : std::max(1.0, std::sqrt(chain_est.empty()
                                                    ? 0.0
                                                    : chain_est.back()));
    if (!terminal.empty()) op.inputs.push_back(terminal.back());
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Trace-plan graph of the simulator's physical plan (operators map 1:1).
std::vector<obs::TraceOp> SimTraceOps(const plan::PhysicalPlan& pplan) {
  std::vector<obs::TraceOp> ops;
  for (const plan::Operator& op : pplan.ops) {
    obs::TraceOp o;
    o.id = op.id;
    o.label = op.label;
    switch (op.kind) {
      case plan::OpKind::kScan: o.kind = "scan"; break;
      case plan::OpKind::kBuild: o.kind = "build"; break;
      case plan::OpKind::kProbe: o.kind = "probe"; break;
      case plan::OpKind::kAggPartial:
      case plan::OpKind::kAggMerge: o.kind = "agg"; break;
    }
    o.chain = static_cast<int32_t>(op.chain);
    o.est_rows =
        op.kind == plan::OpKind::kBuild ? op.input_card : op.output_card;
    if (op.input != plan::kNoOp) o.inputs.push_back(op.input);
    if (op.build_op != plan::kNoOp) o.inputs.push_back(op.build_op);
    ops.push_back(std::move(o));
  }
  return ops;
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
// QueryBuilder

QueryBuilder& QueryBuilder::Join(RelId a, RelId b, double selectivity) {
  q_.edges_.push_back({a, b, selectivity, 0, 0, false});
  return *this;
}

QueryBuilder& QueryBuilder::JoinOn(RelId a, uint32_t col_a, RelId b,
                                   uint32_t col_b, double selectivity) {
  q_.edges_.push_back({a, b, selectivity, col_a, col_b, true});
  return *this;
}

QueryBuilder& QueryBuilder::Tree(plan::JoinTree tree) {
  q_.tree_ = std::move(tree);
  return *this;
}

QueryBuilder& QueryBuilder::Shape(opt::TreeShape shape,
                                  uint32_t segment_length) {
  q_.shape_.shape = shape;
  q_.shape_.segment_length = segment_length;
  q_.shape_set_ = true;
  return *this;
}

QueryBuilder& QueryBuilder::Scan(RelId input) {
  q_.chain_ = true;
  q_.has_input_ = true;
  q_.input_ = input;
  return *this;
}

QueryBuilder& QueryBuilder::Probe(RelId build, uint32_t probe_col,
                                  uint32_t build_col, double selectivity) {
  q_.chain_ = true;
  q_.steps_.push_back({build, probe_col, build_col, selectivity});
  return *this;
}

QueryBuilder& QueryBuilder::CapturePoint(std::string name) {
  q_.captures_.push_back(
      {std::move(name), static_cast<uint32_t>(q_.steps_.size())});
  return *this;
}

QueryBuilder& QueryBuilder::Where(RelId rel, uint32_t col, CmpOp cmp,
                                  int64_t value) {
  q_.filters_.push_back({rel, col, cmp, value});
  return *this;
}

QueryBuilder& QueryBuilder::GroupBy(RelId rel, uint32_t col) {
  q_.group_by_.push_back({rel, col});
  return *this;
}

QueryBuilder& QueryBuilder::Agg(AggFn fn, RelId rel, uint32_t col) {
  q_.agg_items_.push_back({fn, rel, col, /*has_col=*/fn != AggFn::kCount});
  return *this;
}

QueryBuilder& QueryBuilder::Count() {
  q_.agg_items_.push_back({AggFn::kCount, 0, 0, /*has_col=*/false});
  return *this;
}

QueryBuilder& QueryBuilder::Having(AggFn fn, RelId rel, uint32_t col,
                                   CmpOp cmp, int64_t value) {
  q_.having_.push_back({/*on_agg=*/true, fn, rel, col,
                        /*has_col=*/fn != AggFn::kCount, cmp, value});
  return *this;
}

QueryBuilder& QueryBuilder::Having(RelId rel, uint32_t col, CmpOp cmp,
                                   int64_t value) {
  q_.having_.push_back(
      {/*on_agg=*/false, AggFn::kCount, rel, col, false, cmp, value});
  return *this;
}

QueryBuilder& QueryBuilder::HavingCount(CmpOp cmp, int64_t value) {
  q_.having_.push_back(
      {/*on_agg=*/true, AggFn::kCount, 0, 0, false, cmp, value});
  return *this;
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
  RelId id = catalog_.AddRelation(std::move(name), cardinality, tuple_bytes);
  tables_.emplace_back();
  return id;
}

RelId Session::AddTable(mt::Table table) {
  RelId id = catalog_.AddRelation(
      table.name, table.rows(),
      table.width() * static_cast<uint32_t>(sizeof(int64_t)));
  TableSlot slot;
  // Hashed once at registration (one linear pass, amortized over every
  // query that may later share this table's builds through the cache).
  slot.content_hash = mt::TableContentHash(table.batch);
  // Per-column min/max + KMV distinct sketches: one more linear pass,
  // feeding the planner's always-true/always-false predicate folds.
  slot.stats = mt::ComputeColumnStats(table.batch);
  slot.table = std::move(table);
  tables_.push_back(std::move(slot));
  // Conservative invalidation: registration changes what "the same
  // table" means, so drop every cached build (in-flight executions keep
  // their shared_ptrs; content-hash keys would remain correct, clearing
  // just bounds memory and keeps the contract simple).
  build_cache_.Clear();
  std::lock_guard<std::mutex> lock(placement_mu_);
  placements_.clear();
  return id;
}

const mt::Table* Session::table(RelId id) const {
  if (id >= tables_.size() || !tables_[id].table.has_value()) return nullptr;
  return &*tables_[id].table;
}

const std::vector<mt::ColumnStats>* Session::table_stats(RelId id) const {
  if (id >= tables_.size() || !tables_[id].table.has_value()) return nullptr;
  return &tables_[id].stats;
}

/// The bridged representations of one planned query: the local (dense)
/// catalog over the query's relations, the chosen join tree, the simulated
/// physical plan, and — when real data is available or synthesizable — the
/// table set and pipeline plan the real backends execute.
struct Session::Planned {
  catalog::Catalog cat;               ///< local catalog (dense rel ids)
  std::vector<RelId> to_global;       ///< local rel id -> session rel id
  plan::JoinTree tree;
  plan::PhysicalPlan pplan;

  bool has_real = false;
  std::string real_gap;               ///< why real execution is unavailable
  std::vector<mt::Table> owned;       ///< synthesized tables (if any)
  std::vector<const mt::Table*> tables;  ///< local rel id -> data
  mt::PipelinePlan mtplan;

  bool has_agg = false;
  /// Admission cost (cost-ordered policies): the join tree's cost plus
  /// the estimated aggregation work for GroupBy/Agg queries, over the
  /// filter-adjusted cardinalities.
  double plan_cost = 0.0;

  /// Per-local-relation filter pass fractions (stats-driven where column
  /// statistics exist, System R defaults otherwise; 1.0 once a filter was
  /// pushed into the bind) — the single source the chain-card estimates
  /// and trace plans read, so they stay consistent with the planning
  /// catalog.
  std::vector<double> filter_pass;
  /// Rows dropped at bind time by pushing Where predicates into the
  /// synthesized tables (ExecutionReport::rows_prefiltered).
  uint64_t prefiltered_rows = 0;

  /// Build-cache identities aligned with `tables` (0 = uncacheable), plus
  /// the synthesis identity (seed/skew/bind parameters) folded into every
  /// key when the tables were synthesized rather than registered.
  std::vector<uint64_t> cache_ids;
  uint64_t cache_seed_skew = 0;

  /// Plan-point capture specs (QueryBuilder::CapturePoint), resolved to
  /// (chain, point) coordinates on mtplan (chain queries compile to one
  /// chain, so chain is always 0).
  struct CapturePointSpec {
    std::string name;
    uint32_t chain = 0;
    uint32_t point = 0;
  };
  std::vector<CapturePointSpec> captures;
};

Status Session::PlanQuery(const Query& q, const ExecOptions& opts,
                          bool want_real, Planned* out) const {
  if (q.edges_.empty() && q.steps_.empty()) {
    return Status::InvalidArgument("query has no joins");
  }
  if (q.chain_ && !q.edges_.empty()) {
    return Status::InvalidArgument(
        "query mixes chain form (Scan/Probe) and graph form (Join)");
  }
  if (q.chain_ && !q.has_input_) {
    return Status::InvalidArgument("chain query has no Scan()");
  }
  if (!q.captures_.empty()) {
    // Plan-point capture samples real rows at chain positions; the graph
    // form has no builder-order plan points and the simulator no rows.
    if (!q.chain_) {
      return Status::InvalidArgument(
          "CapturePoint requires the chain form (Scan/Probe)");
    }
    if (opts.backend == Backend::kSimulated) {
      return Status::InvalidArgument(
          "the simulated backend has no rows to capture (use "
          "Backend::kThreads or Backend::kCluster)");
    }
    for (const auto& cs : q.captures_) {
      out->captures.push_back({cs.name, 0, cs.point});
    }
  }

  // Collect the referenced relations and build the dense local catalog.
  std::vector<RelId> rels;
  auto touch = [&](RelId r) { rels.push_back(r); };
  if (q.chain_) {
    touch(q.input_);
    for (const auto& s : q.steps_) touch(s.build);
  } else {
    for (const auto& e : q.edges_) {
      touch(e.a);
      touch(e.b);
    }
  }
  std::sort(rels.begin(), rels.end());
  for (RelId r : rels) {
    if (r >= catalog_.size()) {
      return Status::InvalidArgument("query references unknown relation id " +
                                     std::to_string(r));
    }
  }
  if (q.chain_) {
    // A relation scanned or probed twice would duplicate its leaf bit in
    // the join tree and break every RelSet invariant downstream; reject
    // it by name (self-joins need table aliases, which are unsupported).
    auto dup = std::adjacent_find(rels.begin(), rels.end());
    if (dup != rels.end()) {
      return Status::InvalidArgument(
          "relation '" + catalog_.relation(*dup).name +
          "' appears more than once in the chain; self-joins are "
          "unsupported (register the table twice to alias it)");
    }
  }
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  if (rels.size() > 64) {
    return Status::InvalidArgument("queries support at most 64 relations");
  }
  std::unordered_map<RelId, uint32_t> to_local;
  for (RelId r : rels) {
    const auto& rel = catalog_.relation(r);
    to_local[r] = out->cat.AddRelation(rel.name, rel.cardinality,
                                       rel.tuple_bytes);
    out->to_global.push_back(r);
  }
  auto local = [&](RelId r) { return to_local.at(r); };

  // Resolve scan-level filters: map the (rel, col) predicates onto local
  // table indexes and estimate per-relation pass fractions (System R
  // defaults: 1/10 for equality, 1/3 for ranges, 9/10 for inequality) so
  // the optimizer, the SCF admission cost and the simulator all price
  // filtered scans.
  std::vector<std::vector<mt::Predicate>> filters(rels.size());
  std::vector<double> filter_sel(rels.size(), 1.0);
  // Registered tables carry per-column [min, max] stats (AddTable), which
  // fold predicates before any row is scanned: an always-true predicate is
  // dropped outright, and an always-false one replaces the relation's
  // whole conjunction — one impossible compare rejects every row with no
  // further predicate evaluation. Semantics-preserving.
  std::vector<char> always_false(rels.size(), 0);
  for (const auto& f : q.filters_) {
    auto it = to_local.find(f.rel);
    if (it == to_local.end()) {
      return Status::InvalidArgument(
          "Where references relation id " + std::to_string(f.rel) +
          ", which the query does not join");
    }
    const mt::Table* t = table(f.rel);
    if (t != nullptr && f.col >= t->width()) {
      return Status::OutOfRange(
          "Where column " + std::to_string(f.col) + " >= width " +
          std::to_string(t->width()) + " of relation '" +
          catalog_.relation(f.rel).name + "'");
    }
    const uint32_t lrel = it->second;
    if (always_false[lrel]) continue;
    const mt::Predicate pred{f.col, f.cmp, f.value};
    const std::vector<mt::ColumnStats>* stats = table_stats(f.rel);
    if (stats != nullptr && f.col < stats->size() && t->rows() > 0) {
      switch (mt::ClassifyPredicate(pred, (*stats)[f.col])) {
        case mt::PredicateFold::kAlwaysTrue:
          continue;  // cannot reject any row: drop it
        case mt::PredicateFold::kAlwaysFalse:
          always_false[lrel] = 1;
          filters[lrel].assign(1, pred);
          filter_sel[lrel] = 1e-4;
          continue;
        case mt::PredicateFold::kKeep:
          break;
      }
    }
    filters[lrel].push_back(pred);
    // Pass fraction: the KMV distinct counts and [min, max] envelopes
    // from AddTable price the predicate against the actual data
    // distribution; the System R constants (1/10 equality, 1/3 range,
    // 9/10 inequality) remain the fallback for catalog-only relations.
    double s;
    if (stats != nullptr && f.col < stats->size() && t->rows() > 0) {
      s = mt::EstimateSelectivity(pred, (*stats)[f.col]);
    } else {
      s = f.cmp == CmpOp::kEq ? 0.1
          : f.cmp == CmpOp::kNe ? 0.9
                                : 1.0 / 3.0;
    }
    filter_sel[lrel] = std::max(1e-4, filter_sel[lrel] * s);
  }
  // The GroupBy/Agg references must join-in, and columns into registered
  // tables are bounds-checked here so the simulated backend rejects the
  // same typos the real ones do (catalog-only relations carry no column
  // schema — their references are checked against the synthesized widths
  // on the real path only).
  out->has_agg = q.has_agg();
  auto check_colref = [&](const char* what, RelId rel,
                          uint32_t col) -> Status {
    if (to_local.find(rel) == to_local.end()) {
      return Status::InvalidArgument(
          std::string(what) + " references relation id " +
          std::to_string(rel) + ", which the query does not join");
    }
    const mt::Table* t = table(rel);
    if (t != nullptr && col >= t->width()) {
      return Status::OutOfRange(
          std::string(what) + " column " + std::to_string(col) +
          " >= width " + std::to_string(t->width()) + " of relation '" +
          catalog_.relation(rel).name + "'");
    }
    return Status::OK();
  };
  for (const auto& g : q.group_by_) {
    HIERDB_RETURN_NOT_OK(check_colref("GroupBy", g.rel, g.col));
  }
  for (const auto& a : q.agg_items_) {
    if (a.has_col) {
      HIERDB_RETURN_NOT_OK(check_colref("Agg", a.rel, a.col));
    }
  }
  // HAVING resolves against the declared grouping/aggregate items: the
  // output row is [group values..., aggregates...], so a matched GroupBy
  // is its index and a matched Agg is group count + its index. Resolved
  // here (not in the real-data bridge) so the simulated backend rejects
  // the same mistakes the real ones do.
  std::vector<mt::Predicate> having_preds;
  for (const auto& h : q.having_) {
    if (!out->has_agg) {
      return Status::InvalidArgument(
          "Having requires a GroupBy/Agg query (it filters aggregate "
          "output rows)");
    }
    uint32_t slot = UINT32_MAX;
    if (h.on_agg) {
      for (size_t i = 0; i < q.agg_items_.size(); ++i) {
        const auto& a = q.agg_items_[i];
        if (a.fn != h.fn || a.has_col != h.has_col) continue;
        if (a.has_col && (a.rel != h.rel || a.col != h.col)) continue;
        slot = static_cast<uint32_t>(q.group_by_.size() + i);
        break;
      }
      if (slot == UINT32_MAX) {
        return Status::InvalidArgument(
            std::string("Having references aggregate ") + AggFnName(h.fn) +
            (h.has_col ? "(col)" : "(*)") +
            ", which no Agg()/Count() call declares");
      }
    } else {
      for (size_t i = 0; i < q.group_by_.size(); ++i) {
        if (q.group_by_[i].rel == h.rel && q.group_by_[i].col == h.col) {
          slot = static_cast<uint32_t>(i);
          break;
        }
      }
      if (slot == UINT32_MAX) {
        return Status::InvalidArgument(
            "Having references a grouping column that no GroupBy() call "
            "declares");
      }
    }
    having_preds.push_back({slot, h.cmp, h.value});
  }

  // Planning catalog with filter-adjusted cardinality estimates: the tree
  // choice, edge-selectivity defaults and plan cost see the filters, while
  // synthesis and the simulator's scan inputs keep the true catalog.
  catalog::Catalog fcat;
  for (RelId r : rels) {
    const auto& rel = catalog_.relation(r);
    uint64_t est = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(
               static_cast<double>(rel.cardinality) *
               filter_sel[to_local.at(r)])));
    fcat.AddRelation(rel.name, est, rel.tuple_bytes);
  }
  auto card = [&](RelId r) {
    return static_cast<double>(fcat.relation(to_local.at(r)).cardinality);
  };

  // Predicate graph over the local relations.
  std::vector<plan::JoinEdge> edges;
  if (q.chain_) {
    // Map each probe_col back to the relation whose columns occupy that
    // range of the pipelined row (input columns first, then each build's
    // columns appended in step order), so snowflake chains — a probe on a
    // previous build's column — model the right edge. Catalog-only
    // relations have unknown widths and fall back to the driving input.
    struct Range {
      RelId rel;
      uint32_t begin, end;
    };
    std::vector<Range> ranges;
    uint32_t width = 0;
    auto push_range = [&](RelId r) {
      const mt::Table* t = table(r);
      uint32_t w = t ? t->width() : 0;
      ranges.push_back({r, width, width + w});
      width += w;
    };
    push_range(q.input_);
    for (const auto& s : q.steps_) {
      RelId probe_rel = q.input_;
      for (const auto& rg : ranges) {
        if (rg.begin <= s.probe_col && s.probe_col < rg.end) {
          probe_rel = rg.rel;
          break;
        }
      }
      double sel = s.selectivity > 0
                       ? s.selectivity
                       : DefaultSelectivity(card(probe_rel), card(s.build));
      edges.push_back({local(probe_rel), local(s.build), sel});
      push_range(s.build);
    }
  } else {
    for (const auto& e : q.edges_) {
      double sel = e.selectivity > 0
                       ? e.selectivity
                       : DefaultSelectivity(card(e.a), card(e.b));
      edges.push_back({local(e.a), local(e.b), sel});
    }
  }
  plan::JoinGraph graph(static_cast<uint32_t>(rels.size()), edges);
  // With duplicate chain relations rejected above, both query forms build
  // acyclic connected predicate graphs and share one validation.
  HIERDB_RETURN_NOT_OK(graph.Validate());

  // Choose the join tree: explicit > chain spine > shaped optimization.
  if (q.tree_.has_value()) {
    // Remap the caller's tree (session rel ids) onto local ids.
    plan::JoinTree tree = *q.tree_;
    if (tree.root < 0 ||
        static_cast<size_t>(tree.root) >= tree.nodes.size()) {
      return Status::InvalidArgument("explicit tree is empty or malformed");
    }
    for (auto& node : tree.nodes) {
      if (node.IsLeaf()) {
        auto it = to_local.find(node.rel);
        if (it == to_local.end()) {
          return Status::InvalidArgument(
              "explicit tree references a relation outside the join graph");
        }
        node.rel = it->second;
        node.rels = plan::RelBit(node.rel);
      } else if (node.left < 0 || node.right < 0 ||
                 static_cast<size_t>(node.left) >= tree.nodes.size() ||
                 static_cast<size_t>(node.right) >= tree.nodes.size()) {
        return Status::InvalidArgument(
            "explicit tree has a child index out of range");
      }
    }
    // Recompute subtree relation sets bottom-up (children precede parents
    // is not guaranteed, so walk from the root). A node reached twice
    // means the "tree" shares nodes or contains a cycle.
    std::vector<char> seen(tree.nodes.size(), 0);
    bool malformed = false;
    std::function<plan::RelSet(int32_t)> rebuild =
        [&](int32_t idx) -> plan::RelSet {
      if (malformed) return 0;
      if (seen[idx]) {
        malformed = true;
        return 0;
      }
      seen[idx] = 1;
      auto& node = tree.nodes[idx];
      if (!node.IsLeaf()) {
        node.rels = rebuild(node.left) | rebuild(node.right);
      }
      return node.rels;
    };
    rebuild(tree.root);
    if (malformed) {
      return Status::InvalidArgument(
          "explicit tree shares nodes or contains a cycle");
    }
    out->tree = std::move(tree);
  } else if (q.chain_) {
    // Left-deep spine with the builds as right children: macro-expansion
    // with build_on_right_child keeps it one maximal pipeline chain.
    plan::JoinTree tree;
    auto add_leaf = [&](uint32_t r) {
      plan::JoinTreeNode n;
      n.rel = r;
      n.rels = plan::RelBit(r);
      n.card = static_cast<double>(fcat.relation(r).cardinality);
      tree.nodes.push_back(n);
      return static_cast<int32_t>(tree.nodes.size() - 1);
    };
    int32_t cur = add_leaf(local(q.input_));
    for (size_t i = 0; i < q.steps_.size(); ++i) {
      int32_t leaf = add_leaf(local(q.steps_[i].build));
      plan::JoinTreeNode n;
      n.left = cur;
      n.right = leaf;
      n.rels = tree.nodes[cur].rels | tree.nodes[leaf].rels;
      n.card = tree.nodes[cur].card * tree.nodes[leaf].card *
               edges[i].selectivity;
      tree.nodes.push_back(n);
      cur = static_cast<int32_t>(tree.nodes.size() - 1);
      tree.cost += n.card;
    }
    tree.root = cur;
    out->tree = std::move(tree);
  } else {
    out->tree = opt::ShapedBest(graph, fcat, q.shape_);
  }

  // Estimated result cardinality and group count: prices the aggregation
  // for the simulator's AggPartial/AggMerge ops and the admission cost.
  // When every grouping column carries distinct-count statistics (KMV
  // sketches from AddTable) the group count is bounded by the product of
  // per-column distincts capped at the output cardinality; the
  // sqrt-of-output default covers unstatted columns.
  const double root_card =
      std::max(0.0, out->tree.nodes[out->tree.root].card);
  double est_groups = 0.0;
  if (out->has_agg) {
    if (q.group_by_.empty()) {
      est_groups = 1.0;
    } else {
      double distinct_prod = 1.0;
      bool all_stats = true;
      for (const auto& g : q.group_by_) {
        const std::vector<mt::ColumnStats>* st = table_stats(g.rel);
        if (st == nullptr || g.col >= st->size()) {
          all_stats = false;
          break;
        }
        distinct_prod *= static_cast<double>(
            std::max<uint64_t>((*st)[g.col].distinct_est, 1));
      }
      est_groups =
          all_stats
              ? std::max(1.0, std::min(std::max(root_card, 1.0),
                                       distinct_prod))
              : std::max(1.0, std::sqrt(root_card));
    }
  }
  out->plan_cost =
      out->tree.cost + (out->has_agg ? root_card + est_groups : 0.0);

  // Bridge 1: the simulated backend's parallel execution plan.
  plan::ExpandOptions eo;
  eo.apply_h1 = opts.apply_h1;
  eo.serialize_chains = opts.apply_h2;
  eo.scan_filter_sel = filter_sel;  // indexed by local rel id
  eo.aggregate = out->has_agg;
  eo.agg_groups_est = est_groups;
  // Chain queries and explicitly shape-constrained trees build on the
  // right child so the macro-expansion preserves the requested pipeline
  // structure (right-deep => one maximal chain, left-deep => blocking
  // ladder); an explicit Shape(kBushy) gets the same treatment so shape
  // comparisons share one expansion convention.
  eo.build_on_right_child =
      q.chain_ || (!q.tree_.has_value() && q.shape_set_);
  out->pplan = plan::MacroExpand(out->tree, out->cat, eo);
  HIERDB_RETURN_NOT_OK(out->pplan.Validate());
  out->filter_pass = filter_sel;

  // Bridge 2: the real-data pipeline plan (threads/cluster backends).
  // The simulated backend never touches it, so skip the table synthesis.
  if (!want_real) return Status::OK();

  // Attaches the filters and the aggregation spec to the finished
  // pipeline plan: table indexes equal local rel ids in every bridge
  // path, and the (rel, col) references resolve to offsets in the final
  // chain's output row via the plan's layout. Ends with the structural
  // validation (which bounds-checks filter/agg columns against the bound
  // tables — registered or synthesized).
  auto attach_filters_and_agg = [&]() -> Status {
    out->mtplan.table_filters = filters;
    if (out->has_agg) {
      std::vector<uint32_t> widths;
      widths.reserve(out->tables.size());
      for (const mt::Table* t : out->tables) widths.push_back(t->width());
      std::vector<uint32_t> offsets = out->mtplan.FinalLayout(widths);
      auto resolve = [&](RelId rel, uint32_t col, const char* what,
                         uint32_t* slot) -> Status {
        uint32_t l = local(rel);
        if (offsets[l] == UINT32_MAX) {
          return Status::Internal("relation missing from the final output");
        }
        if (col >= widths[l]) {
          return Status::OutOfRange(
              std::string(what) + " column " + std::to_string(col) +
              " >= width " + std::to_string(widths[l]) + " of relation '" +
              catalog_.relation(rel).name + "'");
        }
        *slot = offsets[l] + col;
        return Status::OK();
      };
      mt::AggSpec spec;
      for (const auto& g : q.group_by_) {
        uint32_t slot = 0;
        HIERDB_RETURN_NOT_OK(resolve(g.rel, g.col, "GroupBy", &slot));
        spec.group_cols.push_back(slot);
      }
      for (const auto& a : q.agg_items_) {
        uint32_t slot = 0;
        if (a.has_col) {
          HIERDB_RETURN_NOT_OK(resolve(a.rel, a.col, "Agg", &slot));
        }
        spec.aggs.push_back({a.fn, slot});
      }
      spec.having = having_preds;
      out->mtplan.agg = std::move(spec);
    }
    return out->mtplan.Validate(out->tables);
  };

  // Build-cache identities are consumed by both real backends (RunReal
  // wires the cache, and kCluster's placement memo keys on them); with
  // reuse off, or on the simulator, planning skips even the cheap id
  // copies and, for synthesized tables, the O(rows) content hashing.
  const bool want_cache =
      opts.reuse_builds && opts.backend != Backend::kSimulated;
  if (q.chain_) {
    // Chain queries execute the registered rows verbatim.
    std::string missing;
    for (RelId r : rels) {
      if (table(r) == nullptr) missing = catalog_.relation(r).name;
    }
    if (!missing.empty()) {
      out->real_gap = "relation '" + missing +
                      "' has no registered data (chain queries run on real "
                      "tables; use Session::AddTable)";
      return Status::OK();
    }
    for (RelId r : out->to_global) {
      out->tables.push_back(table(r));
      if (want_cache) {
        out->cache_ids.push_back(tables_[r].content_hash);
      }
    }
    mt::Chain chain;
    chain.input = mt::Source::OfTable(local(q.input_));
    for (const auto& s : q.steps_) {
      chain.joins.push_back(
          {mt::Source::OfTable(local(s.build)), s.probe_col, s.build_col});
    }
    out->mtplan.chains.push_back(std::move(chain));
    HIERDB_RETURN_NOT_OK(attach_filters_and_agg());
    out->has_real = true;
    return Status::OK();
  }

  // Graph form: run on registered tables when every edge carries explicit
  // join columns and every relation has data; otherwise synthesize tables
  // that track the catalog cardinalities (paper methodology).
  bool all_cols = true, all_data = true;
  for (const auto& e : q.edges_) all_cols = all_cols && e.has_cols;
  for (RelId r : rels) all_data = all_data && table(r) != nullptr;
  if (all_cols && all_data) {
    for (RelId r : out->to_global) {
      out->tables.push_back(table(r));
      if (want_cache) {
        out->cache_ids.push_back(tables_[r].content_hash);
      }
    }
    std::vector<mt::EdgeColumns> cols;
    for (const auto& e : q.edges_) cols.push_back({e.col_a, e.col_b});
    auto plan = mt::TranslateJoinTree(out->tree, graph, out->tables, cols);
    HIERDB_RETURN_NOT_OK(plan.status());
    out->mtplan = std::move(plan).value();
    HIERDB_RETURN_NOT_OK(attach_filters_and_agg());
    out->has_real = true;
  } else {
    mt::BindOptions bo;
    bo.scale = opts.bind_scale;
    bo.seed = opts.seed;
    bo.min_rows = opts.bind_min_rows;
    bo.skew_theta = opts.skew_theta;
    auto bound = mt::BindJoinTree(out->tree, graph, out->cat, bo);
    HIERDB_RETURN_NOT_OK(bound.status());
    out->owned = std::move(bound.value().tables);
    // Filter pushdown into the synthesized bind: Where predicates on
    // these relations evaluate once here, so the executors scan
    // pre-filtered tables instead of re-testing every row (the bound
    // tables are this query's private copies — registered tables are
    // never touched). The planning catalog keeps pricing the unfiltered
    // cardinalities; filter_pass flips to 1.0 because the scanned tables
    // themselves already shrank.
    for (uint32_t l = 0; l < filters.size(); ++l) {
      if (filters[l].empty()) continue;
      mt::Batch& b = out->owned[l].batch;
      for (const mt::Predicate& pr : filters[l]) {
        if (pr.col >= b.width()) {
          return Status::OutOfRange(
              "Where column " + std::to_string(pr.col) + " >= width " +
              std::to_string(b.width()) + " of relation '" +
              catalog_.relation(out->to_global[l]).name + "'");
        }
      }
      mt::Batch kept(b.width());
      for (size_t r = 0; r < b.rows(); ++r) {
        if (mt::MatchesAll(filters[l], b.row(r))) kept.AppendRow(b.row(r));
      }
      out->prefiltered_rows += b.rows() - kept.rows();
      b = std::move(kept);
      filters[l].clear();
      out->filter_pass[l] = 1.0;
    }
    // Synthesized tables are cacheable on their contents plus the
    // synthesis identity: two queries share a build only when the data
    // really is byte-identical and was drawn under the same seed/skew/
    // bind parameters (the key's "seed, skew" component). The per-query
    // O(rows) hashing of synthesized tables is skipped when reuse is off
    // (registered tables were hashed once at AddTable).
    if (want_cache) {
      uint64_t seed_skew = MixU64(0xA24BAED4963EE407ULL, opts.seed);
      seed_skew = MixU64(seed_skew, DoubleBits(opts.skew_theta));
      seed_skew = MixU64(seed_skew, DoubleBits(opts.bind_scale));
      seed_skew = MixU64(seed_skew, opts.bind_min_rows);
      out->cache_seed_skew = seed_skew;
      for (const auto& t : out->owned) {
        out->cache_ids.push_back(mt::TableContentHash(t.batch));
      }
    }
    for (const auto& t : out->owned) out->tables.push_back(&t);
    out->mtplan = std::move(bound.value().plan);
    HIERDB_RETURN_NOT_OK(attach_filters_and_agg());
    out->has_real = true;
  }
  return Status::OK();
}

Status Session::ValidateOptions(const ExecOptions& opts) const {
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

QueryHandle Session::Submit(const Query& q, const ExecOptions& opts) {
  Status bad = ValidateOptions(opts);
  if (!bad.ok()) return Scheduler::Completed(bad);
  auto planned = std::make_shared<Planned>();
  Status st =
      PlanQuery(q, opts, opts.backend != Backend::kSimulated, planned.get());
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
        auto r = RunPlanned(*planned, eff, stop, fc);
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

Result<QueryResult> Session::RunPlanned(const Planned& p,
                                        const ExecOptions& opts,
                                        const std::atomic<bool>& stop,
                                        const FaultCtx& fc) const {
  switch (opts.backend) {
    case Backend::kSimulated: return RunSimulated(p, opts, stop);
    case Backend::kThreads:
    case Backend::kCluster:
      return RunReal(p, opts, stop, fc);
  }
  return Status::Internal("unknown backend");
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
      place(idx, 1, DoubleBits(opts.placement_theta));
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
  std::vector<std::unique_ptr<obs::RowCapture>> cap_sinks;
  cap_sinks.reserve(p.captures.size());
  for (const auto& cs : p.captures) {
    cap_sinks.push_back(
        std::make_unique<obs::RowCapture>(session_options_.capture_rows));
    eo.captures.push_back({cs.chain, cs.point, cap_sinks.back().get()});
  }
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
  std::vector<double> est = EstimateChainRows(p.mtplan, p.filter_pass, p.tables);
  rep.chain_cards = MakeChainCards(est, &rows_per_chain, &chain_reused);
  for (size_t i = 0; i < cap_sinks.size(); ++i) {
    rep.captures.push_back(cap_sinks[i]->Take(
        p.captures[i].name, p.captures[i].chain, p.captures[i].point));
  }
  if (opts.trace) {
    auto qt = std::make_shared<obs::QueryTrace>();
    qt->backend = BackendName(opts.backend);
    qt->strategy = StrategyName(opts.strategy);
    qt->response_ms = rep.response_ms;
    qt->nodes = on_cluster ? co.nodes : 1;
    qt->workers_per_node = eo.threads;
    qt->ops = RealTraceOps(p.mtplan, p.filter_pass, p.tables, p.cat, est,
                           rows_per_chain, on_cluster);
    qt->chains = rep.chain_cards;
    rep.trace = std::move(qt);  // Submit adds the attempt's events
  }
  if (opts.validate) {
    // One reference for both backends: the pruned plan over the whole
    // tables (cluster placement only splits rows across nodes).
    std::vector<std::unique_ptr<obs::RowCapture>> ref_sinks;
    std::vector<mt::CaptureSink> ref_caps;
    ref_sinks.reserve(p.captures.size());
    for (const auto& cs : p.captures) {
      ref_sinks.push_back(
          std::make_unique<obs::RowCapture>(session_options_.capture_rows));
      ref_caps.push_back({cs.chain, cs.point, ref_sinks.back().get()});
    }
    auto ref = mt::ReferenceExecute(plan, p.tables, ref_caps);
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
  HIERDB_RETURN_NOT_OK(PlanQuery(q, opts, /*want_real=*/true, &p));

  std::ostringstream os;
  os << "query: " << p.cat.size() << " relations, " << p.tree.num_joins()
     << " joins (" << (q.is_chain() ? "chain" : "graph") << " form)";
  if (!q.filters_.empty()) os << ", " << q.filters_.size() << " filters";
  if (p.has_agg) os << ", aggregated";
  os << "\n";
  os << "backend: " << BackendName(opts.backend) << ", strategy "
     << StrategyName(opts.strategy) << ", machine " << opts.nodes << "x"
     << opts.threads_per_node << "\n\n";
  os << "join tree (cost " << p.tree.cost << "):\n"
     << p.tree.ToString(p.cat) << "\n";
  os << "parallel execution plan (simulated backend):\n"
     << p.pplan.ToString() << "\n";
  os << "pipeline plan (threads/cluster backends):\n";
  if (p.has_real) {
    os << p.mtplan.ToString();
    if (opts.backend == Backend::kCluster && p.mtplan.chains.size() > 1) {
      os << "cluster note: all " << p.mtplan.chains.size()
         << " chains execute distributed ("
         << (opts.apply_h2 ? "back-to-back" : "concurrent where independent")
         << "); intermediates stay on their producing nodes and repartition "
            "to the consuming join via tuple-batch shipping\n";
    }
  } else {
    os << "unavailable: " << p.real_gap << "\n";
  }
  return os.str();
}

Result<std::string> Session::ExplainDot(const Query& q,
                                        const ExecOptions& opts) const {
  HIERDB_RETURN_NOT_OK(ValidateOptions(opts));
  Planned p;
  HIERDB_RETURN_NOT_OK(
      PlanQuery(q, opts, opts.backend != Backend::kSimulated, &p));

  // An estimate-only QueryTrace (no events): the same plan graph a traced
  // execution carries, so the DOT shape matches what PlanDot renders from
  // ExecutionReport::trace — minus the actuals and span annotations.
  obs::QueryTrace qt;
  qt.backend = BackendName(opts.backend);
  qt.strategy = StrategyName(opts.strategy);
  qt.nodes = opts.nodes;
  qt.workers_per_node = opts.threads_per_node;
  if (opts.backend == Backend::kSimulated) {
    qt.ops = SimTraceOps(p.pplan);
  } else {
    if (!p.has_real) return Status::InvalidArgument(p.real_gap);
    std::vector<double> est =
        EstimateChainRows(p.mtplan, p.filter_pass, p.tables);
    qt.ops = RealTraceOps(p.mtplan, p.filter_pass, p.tables, p.cat, est, {},
                          opts.backend == Backend::kCluster);
    qt.chains = MakeChainCards(est, nullptr);
  }
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
    obs::QueryTrace qt;
    qt.backend = BackendName(opts->backend);
    qt.strategy = StrategyName(opts->strategy);
    qt.nodes = opts->nodes;
    qt.workers_per_node = opts->threads_per_node;
    std::vector<double> est = EstimateChainRows(
        planned->mtplan, planned->filter_pass, planned->tables);
    qt.ops = RealTraceOps(planned->mtplan, planned->filter_pass,
                          planned->tables, planned->cat, est, {},
                          opts->backend == Backend::kCluster);
    qt.chains = MakeChainCards(est, nullptr);
    write("plan.json", obs::PlanJson(qt));
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
