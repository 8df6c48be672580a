#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "api/session.h"
#include "common/rng.h"
#include "mt/row.h"
#include "obs/export.h"

namespace perfbench {
namespace {

using hierdb::Rng;
using hierdb::Strategy;
namespace api = hierdb::api;
namespace mt = hierdb::mt;
namespace obs = hierdb::obs;
using api::RelId;

// ---------------------------------------------------------------------------
// Workload definitions.

/// One query shape: built over the session's current relation ids (the
/// refresh workload re-binds after every refresh) and run with `opts`.
struct Template {
  api::ExecOptions opts;
  std::function<api::Query(const api::Session&, const std::vector<RelId>&)>
      build;
};

struct WorkloadDef {
  api::SessionOptions session;
  std::vector<mt::Table> tables;  ///< registration order = ids order
  std::vector<Template> templates;
  /// Versions of tables[refresh_slot] a refresh registers, cycling; index
  /// 0 is tables[refresh_slot] itself.
  size_t refresh_slot = 0;
  std::vector<mt::Table> versions;
  uint32_t setup_reps = 3;
  /// Closed loop: client threads, each with one query outstanding. Open
  /// loop (rate_qps > 0): one generator thread at a fixed rate, with a
  /// refresh before every refresh_every-th send.
  uint32_t clients = 0;
  double rate_qps = 0.0;
  uint32_t refresh_every = 0;
};

/// Closed loops: refreshes timed after the window (no reads running).
constexpr uint32_t kPostRefreshes = 100;

/// Issue order: a seeded permutation of the templates, cycled, so every
/// run executes the same mixture whatever the seed.
std::vector<size_t> IssueOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed ^ 0x0DDBA11ULL);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

// star_skew: the paper's intra-node skew case. A 200k-row fact whose first
// foreign key is Zipf(0.8)-skewed joins up to three 1k-row dimensions on
// one SM-node of four workers under DP; builds fit the build cache.
WorkloadDef StarSkew(uint64_t seed) {
  constexpr size_t kFactRows = 200000;
  constexpr int64_t kDimRows = 1000;
  constexpr size_t kTemplates = 24;
  WorkloadDef w;
  w.session.max_concurrent_queries = 2;
  w.clients = 2;
  w.tables.push_back(mt::MakeSkewedTable("fact", kFactRows, 4, kDimRows,
                                         /*skew_col=*/1, 0.8, seed));
  for (uint64_t d = 0; d < 3; ++d) {
    w.tables.push_back(mt::MakeTable("d" + std::to_string(d + 1), kDimRows,
                                     2, 100, seed + 1 + d));
  }
  w.refresh_slot = 1;
  w.versions = {w.tables[1]};
  for (uint64_t v = 1; v < 3; ++v) {
    w.versions.push_back(mt::MakeTable("d1", kDimRows, 2, 100, seed + 10 + v));
  }

  // Full factorial: probes {1,2,3} x GROUP BY {no,yes} x selectivity
  // {10,40,70,100}%. The mixture is the same for every seed; the seed
  // draws the data and the issue order.
  for (size_t t = 0; t < kTemplates; ++t) {
    const uint32_t probes = 1 + static_cast<uint32_t>(t % 3);
    const bool group = (t / 3) % 2 == 1;
    const double sel = 0.1 + 0.3 * static_cast<double>(t / 6);
    // Every query probes the skewed d1; a 2-probe query adds d2 or d3.
    std::vector<uint32_t> dims = {1};
    if (probes == 2) dims.push_back((t / 6) % 2 == 0 ? 2 : 3);
    if (probes == 3) dims = {1, 2, 3};
    const auto cutoff = static_cast<int64_t>(sel * kFactRows);
    Template tm;
    tm.opts.backend = api::Backend::kThreads;
    tm.opts.strategy = Strategy::kDP;
    tm.opts.nodes = 1;
    tm.opts.threads_per_node = 4;
    tm.build = [dims, group, cutoff](const api::Session& db,
                                     const std::vector<RelId>& ids) {
      auto qb = db.NewQuery().Scan(ids[0]);
      for (uint32_t d : dims) qb.Probe(ids[d], d, 0);
      qb.Where(ids[0], 0, api::CmpOp::kLt, cutoff);
      if (group) {
        qb.GroupBy(ids[dims.back()], 1).Count().Agg(api::AggFn::kSum, ids[0],
                                                     0);
      }
      return qb.Build();
    };
    w.templates.push_back(std::move(tm));
  }
  return w;
}

// bushy_cluster: the paper's hierarchical case. Graph-form snowflake
// queries (fact -> b -> a, fact -> d -> c) the optimizer plans as two or
// three chains on 2 nodes x 2 threads with Zipf(0.8) placement skew, plus
// a distributed GROUP BY, one client.
WorkloadDef BushyCluster(uint64_t seed) {
  constexpr size_t kFactRows = 40000;
  constexpr int64_t kMidRows = 8000;
  constexpr int64_t kLeafRows = 1000;
  constexpr size_t kTemplates = 12;
  WorkloadDef w;
  // One query at a time: each runs nodes x (threads + 1) dedicated node
  // threads, and two at once oversubscribe four cores so far that run-to-
  // run qps spread past 30%.
  w.session.max_concurrent_queries = 1;
  w.clients = 1;
  w.setup_reps = 7;
  // ids: 0 fact(id, b_fk, d_fk), 1 b(id, a_fk), 2 a(id, attr),
  //      3 d(id, c_fk), 4 c(id, attr)
  w.tables.push_back(mt::MakeTable("fact", kFactRows, 3, kMidRows, seed));
  w.tables.push_back(mt::MakeTable("b", kMidRows, 2, kLeafRows, seed + 1));
  w.tables.push_back(mt::MakeTable("a", kLeafRows, 2, 50, seed + 2));
  w.tables.push_back(mt::MakeTable("d", kMidRows, 2, kLeafRows, seed + 3));
  w.tables.push_back(mt::MakeTable("c", kLeafRows, 2, 50, seed + 4));
  w.refresh_slot = 2;
  w.versions = {w.tables[2]};
  for (uint64_t v = 1; v < 3; ++v) {
    w.versions.push_back(mt::MakeTable("a", kLeafRows, 2, 50, seed + 10 + v));
  }

  // Three shapes (3-way grouped on a; 4-way grouped on a or on c) x
  // selectivity {25,50,75,100}%.
  for (size_t t = 0; t < kTemplates; ++t) {
    const bool four_way = t % 3 != 0;  // 3 chains; else 2 chains
    const bool group_c = t % 3 == 2;
    const double sel = 0.25 * static_cast<double>(1 + t / 3);
    const auto cutoff = static_cast<int64_t>(sel * kFactRows);
    Template tm;
    tm.opts.backend = api::Backend::kCluster;
    tm.opts.strategy = Strategy::kDP;
    tm.opts.nodes = 2;
    tm.opts.threads_per_node = 2;
    tm.opts.placement_theta = 0.8;
    // Global load balancing stays off: with it on, cluster runs return a
    // wrong digest in roughly 0.5-7% of repeated executions of one query
    // (single- and multi-chain plans alike), and a benchmark answer must
    // be right. Turn it back on once the steal path is fixed.
    tm.opts.global_lb = false;
    tm.build = [four_way, group_c, cutoff](const api::Session& db,
                                           const std::vector<RelId>& ids) {
      auto qb = db.NewQuery()
                    .JoinOn(ids[0], 1, ids[1], 0)
                    .JoinOn(ids[1], 1, ids[2], 0);
      if (four_way) {
        qb.JoinOn(ids[0], 2, ids[3], 0).JoinOn(ids[3], 1, ids[4], 0);
      }
      qb.Where(ids[0], 0, api::CmpOp::kLt, cutoff)
          .GroupBy(ids[group_c ? 4 : 2], 1)
          .Count()
          .Agg(api::AggFn::kSum, ids[0], 0);
      return qb.Build();
    };
    w.templates.push_back(std::move(tm));
  }
  return w;
}

// refresh_open: per-query fixed cost. Tiny star queries from an open-loop
// generator, two weighted tenants with deadlines under EDF, and a refresh
// of d1 (a new version registered through AddTable) every few queries.
WorkloadDef RefreshOpen(uint64_t seed) {
  constexpr size_t kFactRows = 5000;
  constexpr int64_t kDimRows = 2000;
  constexpr size_t kTemplates = 16;
  WorkloadDef w;
  w.session.max_concurrent_queries = 4;
  w.session.admission = api::AdmissionPolicy::kEarliestDeadlineFirst;
  w.session.tenants = {{"interactive", 3, 0}, {"batch", 1, 0}};
  // Smaller than the templates' distinct filtered builds: the cache
  // evicts between refreshes as well as being cleared by them.
  w.session.build_cache_bytes = 256 * 1024;
  w.setup_reps = 15;
  w.rate_qps = 250.0;
  w.refresh_every = 25;
  // ids: 0 fact(id, d1_fk, d2_fk), 1 d1(id, attr), 2 d2(id, attr)
  w.tables.push_back(mt::MakeTable("fact", kFactRows, 3, kDimRows, seed));
  w.tables.push_back(mt::MakeTable("d1", kDimRows, 2, 100, seed + 1));
  w.tables.push_back(mt::MakeTable("d2", kDimRows, 2, 100, seed + 2));
  w.refresh_slot = 1;
  w.versions = {w.tables[1]};
  for (uint64_t v = 1; v < 4; ++v) {
    w.versions.push_back(mt::MakeTable("d1", kDimRows, 2, 100, seed + 10 + v));
  }

  // 1 or 2 probes x fact selectivity {25,50,75,100}% x eight d1 filters
  // (each a distinct build-cache key); every fourth query is the batch
  // tenant's.
  for (size_t t = 0; t < kTemplates; ++t) {
    const bool two_probes = t % 2 == 1;
    const bool batch = t % 4 == 3;
    const double sel = 0.25 * static_cast<double>(1 + (t / 2) % 4);
    const auto cutoff = static_cast<int64_t>(sel * kFactRows);
    const auto attr_cut = static_cast<int64_t>(30 + 10 * (t % 8));
    Template tm;
    tm.opts.backend = api::Backend::kThreads;
    tm.opts.strategy = Strategy::kDP;
    tm.opts.nodes = 1;
    tm.opts.threads_per_node = 2;
    tm.opts.tenant = batch ? "batch" : "interactive";
    tm.opts.deadline_ms = batch ? 600.0 : 150.0;
    tm.build = [two_probes, cutoff, attr_cut](const api::Session& db,
                                              const std::vector<RelId>& ids) {
      auto qb = db.NewQuery().Scan(ids[0]).Probe(ids[1], 1, 0);
      if (two_probes) qb.Probe(ids[2], 2, 0);
      qb.Where(ids[0], 0, api::CmpOp::kLt, cutoff)
          .Where(ids[1], 1, api::CmpOp::kLt, attr_cut);
      return qb.Build();
    };
    w.templates.push_back(std::move(tm));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Session-level counters, read between blocks of the traced run.

struct Counters {
  uint64_t pool_tasks = 0;
  uint64_t caller_tasks = 0;
  uint64_t foreign_steals = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_dedup_waits = 0;
  uint64_t deadline_missed = 0;
  uint64_t recorded = 0;
  uint64_t dropped = 0;

  static Counters Read(const api::Session& db) {
    Counters c;
    const api::PoolStats p = db.pool_stats();
    c.pool_tasks = p.pool_tasks;
    c.caller_tasks = p.caller_tasks;
    c.foreign_steals = p.foreign_steals;
    const mt::BuildCache::Stats b = db.build_cache_stats();
    c.cache_evictions = b.evictions;
    c.cache_dedup_waits = b.dedup_waits;
    c.deadline_missed = db.scheduler_stats().deadline_missed;
    if (db.recorder() != nullptr) {
      const obs::FlightRecorder::Stats r = db.recorder()->stats();
      c.recorded = r.recorded;
      c.dropped = r.dropped;
    }
    return c;
  }

  void AddDelta(const Counters& now, const Counters& before) {
    pool_tasks += now.pool_tasks - before.pool_tasks;
    caller_tasks += now.caller_tasks - before.caller_tasks;
    foreign_steals += now.foreign_steals - before.foreign_steals;
    cache_evictions += now.cache_evictions - before.cache_evictions;
    cache_dedup_waits += now.cache_dedup_waits - before.cache_dedup_waits;
    deadline_missed += now.deadline_missed - before.deadline_missed;
    recorded += now.recorded - before.recorded;
    dropped += now.dropped - before.dropped;
  }
};

/// The measured window, cut into blocks. Untraced runs use one mode
/// throughout; the traced run alternates untraced and traced blocks (odd
/// blocks traced) so drift over the window hits both modes alike, and
/// accumulates the session-counter deltas of the traced blocks.
class Blocks {
 public:
  Blocks(double start_ms, double seconds, bool alternate)
      : start_ms_(start_ms),
        end_ms_(start_ms + seconds * 1000.0),
        blocks_(alternate ? 10 : 1),
        block_ms_(seconds * 1000.0 / blocks_),
        alternate_(alternate) {}

  double start_ms() const { return start_ms_; }
  double end_ms() const { return end_ms_; }

  bool TracedAt(double t_ms) const {
    return alternate_ &&
           static_cast<uint64_t>((t_ms - start_ms_) / block_ms_) % 2 == 1;
  }
  double NextBoundaryMs() const { return start_ms_ + next_ * block_ms_; }

  void Begin(const api::Session& db) { last_ = Counters::Read(db); }

  /// Closes every block that ended by `now_ms`.
  void Tick(const api::Session& db, double now_ms) {
    const double until = std::min(now_ms, end_ms_) + 1e-6;
    for (; next_ <= blocks_ && NextBoundaryMs() <= until; ++next_) {
      const Counters c = Counters::Read(db);
      const bool traced = alternate_ && (next_ - 1) % 2 == 1;
      (traced ? traced_ms_ : untraced_ms_) += block_ms_;
      if (traced) traced_.AddDelta(c, last_);
      last_ = c;
    }
  }

  const Counters& traced_counters() const { return traced_; }
  double traced_ms() const { return traced_ms_; }
  double untraced_ms() const { return untraced_ms_; }

 private:
  double start_ms_;
  double end_ms_;
  uint64_t blocks_;
  double block_ms_;
  bool alternate_;
  uint64_t next_ = 1;
  Counters last_;
  Counters traced_;
  double traced_ms_ = 0.0;
  double untraced_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced run) and the per-layer fold.

/// Operators of the Chrome trace the traced run writes: the benchmark's
/// own spans around the calls into the program, then the executors'
/// per-op-kind spans of traced queries.
const std::vector<std::string>& SpanOps() {
  static const std::vector<std::string> kOps = {
      "api.Submit",      "api.Take",          "catalog.AddTable",
      "mt.scan",         "mt.build",          "mt.probe",
      "cluster.buildscan", "cluster.build",   "cluster.scan",
      "cluster.probe",   "cluster.agg"};
  return kOps;
}
enum SpanOp : int32_t { kSubmit = 0, kTake = 1, kAddTable = 2 };

int32_t ExecSpanOp(bool cluster, const std::string& kind) {
  const std::string name = (cluster ? "cluster." : "mt.") + kind;
  const auto& ops = SpanOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] == name) return static_cast<int32_t>(i);
  }
  return -1;
}

struct SpanLog {
  double t0_ms = 0.0;
  std::vector<obs::TraceEvent> events;

  void Add(int32_t op, int32_t worker, double start_ms, double end_ms,
           uint64_t query) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kSpan;
    ev.worker = worker;
    ev.op = op;
    ev.start_ns = ToNs(start_ms);
    ev.end_ns = std::max(ev.start_ns, ToNs(end_ms));
    ev.activations = 1;
    ev.detail = ev.end_ns - ev.start_ns;
    ev.query = query;
    events.push_back(ev);
  }
  uint64_t ToNs(double ms) const {
    return static_cast<uint64_t>(std::max(0.0, (ms - t0_ms) * 1e6));
  }
};

/// Per-layer sums over the traced, successful queries.
struct LayerSums {
  uint64_t queries = 0;
  std::vector<double> submit_us;  ///< every traced attempt
  std::vector<double> exec_ms;
  std::vector<double> queue_ms;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // mt (threads backend)
  double mt_scan_ns = 0, mt_build_ns = 0, mt_probe_ns = 0, mt_agg_tail_ns = 0;
  uint64_t mt_activations = 0, mt_escapes = 0, mt_idle_waits = 0;
  double mt_imbalance_sum = 0;
  uint64_t mt_queries = 0;
  // cluster + net
  double cl_scan_ns = 0, cl_probe_ns = 0, cl_agg_ns = 0;
  uint64_t steals = 0, steal_requests = 0, stolen = 0, fragment_hits = 0;
  uint64_t cl_idle_waits = 0;
  double cl_imbalance_sum = 0;
  uint64_t cl_queries = 0;
  uint64_t messages = 0, dataflow_bytes = 0, repartition_bytes = 0;
  uint64_t lb_bytes = 0, protocol_bytes = 0;
  uint64_t multi_chain = 0;    ///< cluster queries planned as >= 2 chains
  uint64_t repartitioned = 0;  ///< ... whose intermediates shipped bytes

  void Fold(const api::QueryResult& qr, SpanLog* spans, double done_ms,
            uint64_t query) {
    ++queries;
    exec_ms.push_back(qr.exec_ms);
    queue_ms.push_back(qr.queue_ms);
    const api::ExecutionReport& rep = qr.report;
    cache_hits += rep.build_cache_hits;
    cache_misses += rep.build_cache_misses;
    if (rep.threads.has_value()) {
      ++mt_queries;
      mt_activations += rep.activations;
      mt_escapes += rep.threads->escapes;
      mt_idle_waits += rep.threads->idle_waits;
      mt_imbalance_sum += rep.imbalance;
    }
    if (rep.cluster.has_value()) {
      const auto& c = *rep.cluster;
      ++cl_queries;
      steals += c.steals;
      steal_requests += c.steal_requests;
      stolen += c.stolen_activations;
      fragment_hits += c.fragment_cache_hits;
      for (uint64_t w : c.idle_waits_per_node) cl_idle_waits += w;
      cl_imbalance_sum += c.NodeImbalance();
      messages += c.fabric.messages;
      dataflow_bytes += c.dataflow_bytes;
      lb_bytes += c.lb_bytes;
      protocol_bytes += c.protocol_bytes;
      uint64_t rb = 0;
      for (const auto& ch : c.per_chain) rb += ch.repartition_bytes;
      repartition_bytes += rb;
      if (c.per_chain.size() >= 2) ++multi_chain;
      if (rb > 0) ++repartitioned;
    }
    if (rep.trace != nullptr) {
      FoldTrace(*rep.trace, rep.backend == api::Backend::kCluster,
                rep.aggregated, spans, done_ms - qr.exec_ms, query);
    }
  }

  void FoldTrace(const obs::QueryTrace& tr, bool cluster, bool aggregated,
                 SpanLog* spans, double dispatch_ms, uint64_t query) {
    uint64_t last_span_end = 0;
    uint64_t pool_return = 0;
    for (const obs::TraceEvent& ev : tr.events) {
      if (ev.kind == obs::EventKind::kPoolReturn) pool_return = ev.end_ns;
      if (ev.kind != obs::EventKind::kSpan || ev.op < 0 ||
          static_cast<size_t>(ev.op) >= tr.ops.size()) {
        continue;
      }
      const std::string& kind = tr.ops[static_cast<size_t>(ev.op)].kind;
      const auto busy = static_cast<double>(ev.detail);
      last_span_end = std::max(last_span_end, ev.end_ns);
      if (cluster) {
        if (kind == "scan") cl_scan_ns += busy;
        if (kind == "probe") cl_probe_ns += busy;
        if (kind == "agg") cl_agg_ns += busy;
      } else {
        if (kind == "scan") mt_scan_ns += busy;
        if (kind == "build") mt_build_ns += busy;
        if (kind == "probe") mt_probe_ns += busy;
      }
      if (spans != nullptr) {
        const int32_t op = ExecSpanOp(cluster, kind);
        if (op < 0) continue;
        obs::TraceEvent out = ev;
        out.op = op;
        out.node = 1 + ev.node;  // pid 0 holds the benchmark's own spans
        const uint64_t base = spans->ToNs(dispatch_ms);
        out.start_ns += base;
        out.end_ns += base;
        out.query = query;
        spans->events.push_back(out);
      }
    }
    // The threads backend traces no aggregation op: its partials fold
    // inside probe activations and the merge phase runs after the last
    // op span, until the executor returns its workers.
    if (!cluster && aggregated && pool_return > last_span_end) {
      mt_agg_tail_ns += static_cast<double>(pool_return - last_span_end);
    }
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything the window measured. Client and collector threads record
/// into it under `mu`; results arrive at most a few hundred a second.
struct WindowLog {
  std::mutex mu;
  Tally tally;
  uint64_t ok_by_mode[2] = {0, 0};  ///< [traced]
  std::vector<Sample> samples;      ///< successful untraced queries
  std::vector<double> traced_latency_ms;  ///< successful traced queries
  LayerSums layers;
  SpanLog spans;
  std::vector<std::string> errors;  ///< the first few failures
  std::vector<double> refresh_ms;
  LatenessReport lateness;  ///< open loop only

  /// Pre: `mu` held. Counts one result; keeps the story of a failure.
  void Record(Outcome o, const hierdb::Result<api::QueryResult>& r,
              size_t tmpl, const Digest& expected) {
    tally.Add(o);
    if (o == Outcome::kOk || errors.size() >= 3) return;
    std::string what;
    if (r.ok()) {
      const api::ExecutionReport& rep = r.value().report;
      what = "rows " + std::to_string(rep.result_rows) + " checksum " +
             std::to_string(rep.result_checksum) + ", reference rows " +
             std::to_string(expected.rows) + " checksum " +
             std::to_string(expected.checksum);
    } else {
      what = r.status().ToString();
    }
    errors.push_back("template " + std::to_string(tmpl) + " " +
                     OutcomeName(o) + ": " + what);
  }
};

// ---------------------------------------------------------------------------
// Set-up, references, refreshes.

void BindAll(const api::Session& db, const WorkloadDef& w,
             const std::vector<RelId>& ids, std::vector<api::Query>* out) {
  out->clear();
  for (const Template& t : w.templates) out->push_back(t.build(db, ids));
}

/// Session construction, AddTable of every table and the warm-up (one run
/// of every template: it starts the pool and fills the build cache).
/// Input copies are made before the clock starts.
std::unique_ptr<api::Session> SetUpOnce(const WorkloadDef& w,
                                        std::vector<RelId>* ids,
                                        double* seconds, uint64_t* warm_fail) {
  std::vector<mt::Table> copies = w.tables;
  const double t0 = NowMs();
  auto db = std::make_unique<api::Session>(w.session);
  ids->clear();
  for (mt::Table& t : copies) ids->push_back(db->AddTable(std::move(t)));
  std::vector<api::Query> queries;
  BindAll(*db, w, *ids, &queries);
  std::vector<api::QueryHandle> handles;
  for (size_t i = 0; i < queries.size(); ++i) {
    api::ExecOptions o = w.templates[i].opts;
    o.deadline_ms = 0.0;
    handles.push_back(db->Submit(queries[i], o));
  }
  for (api::QueryHandle& h : handles) {
    if (!h.Take().ok()) ++*warm_fail;
  }
  *seconds = (NowMs() - t0) / 1000.0;
  return db;
}

/// Reference digests, digests[version][template], computed once outside
/// the timed window on a separate session with ExecOptions::validate: a
/// digest is kept only when the backend agreed with the single-threaded
/// reference executor.
bool ComputeReferences(const WorkloadDef& w, size_t versions,
                       std::vector<std::vector<Digest>>* digests,
                       std::string* error) {
  api::Session db;
  std::vector<RelId> ids;
  for (const mt::Table& t : w.tables) ids.push_back(db.AddTable(t));
  std::vector<RelId> version_ids = {ids[w.refresh_slot]};
  for (size_t v = 1; v < versions; ++v) {
    version_ids.push_back(db.AddTable(w.versions[v]));
  }
  digests->assign(versions, std::vector<Digest>(w.templates.size()));
  for (size_t v = 0; v < versions; ++v) {
    ids[w.refresh_slot] = version_ids[v];
    for (size_t t = 0; t < w.templates.size(); ++t) {
      api::ExecOptions o = w.templates[t].opts;
      o.validate = true;
      o.deadline_ms = 0.0;
      o.tenant.clear();
      auto r = db.Submit(w.templates[t].build(db, ids), o).Take();
      if (!r.ok() || !r.value().report.validated ||
          !r.value().report.reference_match) {
        *error = "template " + std::to_string(t) + " version " +
                 std::to_string(v) + ": " +
                 (r.ok() ? "backend digest differs from the reference"
                         : r.status().ToString());
        return false;
      }
      (*digests)[v][t] = {r.value().report.result_rows,
                          r.value().report.result_checksum};
    }
  }
  return true;
}

/// One refresh: registers version `v` of the refreshed table (copied
/// before the clock starts). Returns the new id and its AddTable time.
RelId Refresh(api::Session& db, const WorkloadDef& w, size_t v,
              double* ms) {
  mt::Table copy = w.versions[v % w.versions.size()];
  const double t0 = NowMs();
  const RelId id = db.AddTable(std::move(copy));
  *ms = NowMs() - t0;
  return id;
}

// ---------------------------------------------------------------------------
// Load generators.

api::ExecOptions ModeOpts(const Template& t, bool traced,
                          uint32_t threads_per_node) {
  api::ExecOptions o = t.opts;
  o.trace = traced;
  if (threads_per_node != 0) o.threads_per_node = threads_per_node;
  return o;
}

/// Closed loop: `w.clients` threads, each submitting its next query only
/// after the previous one's result arrived. Latency runs from Submit to
/// the result.
void RunClosedLoop(api::Session& db, const WorkloadDef& w,
                   const std::vector<RelId>& ids,
                   const std::vector<Digest>& digests,
                   const std::vector<size_t>& order, const RunConfig& cfg,
                   Blocks* blocks, WindowLog* log) {
  std::vector<api::Query> queries;
  BindAll(db, w, ids, &queries);
  std::atomic<uint64_t> next{0};
  blocks->Begin(db);
  auto client = [&](int32_t c) {
    while (true) {
      const double s0 = NowMs();
      if (s0 >= blocks->end_ms()) return;
      const uint64_t id = next.fetch_add(1) + 1;
      const size_t t = order[(id - 1) % order.size()];
      const bool traced = blocks->TracedAt(s0);
      api::QueryHandle h =
          db.Submit(queries[t], ModeOpts(w.templates[t], traced,
                                         cfg.threads_per_node));
      const double s1 = NowMs();
      auto r = h.Take();
      const double done = NowMs();
      const Outcome o = Classify(r, digests[t]);
      std::lock_guard<std::mutex> lock(log->mu);
      log->Record(o, r, t, digests[t]);
      if (traced) {
        log->layers.submit_us.push_back((s1 - s0) * 1000.0);
        log->spans.Add(kSubmit, c, s0, s1, id);
        log->spans.Add(kTake, c, s1, done, id);
      }
      if (o != Outcome::kOk) continue;
      ++log->ok_by_mode[traced ? 1 : 0];
      if (traced) {
        log->layers.Fold(r.value(), &log->spans, done, id);
      } else {
        log->samples.push_back({s0, done, done - s0});
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < w.clients; ++c) {
    threads.emplace_back(client, static_cast<int32_t>(c));
  }
  while (NowMs() < blocks->end_ms()) {
    const double wake = std::min(blocks->NextBoundaryMs(), blocks->end_ms());
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.0, wake - NowMs())));
    blocks->Tick(db, NowMs());
  }
  for (std::thread& t : threads) t.join();
  blocks->Tick(db, blocks->end_ms());

  // Refreshes, timed after the window so no read runs beside them, and
  // spaced out so their median does not hang on one moment of the host.
  for (uint32_t k = 1; k <= kPostRefreshes; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    double ms = 0.0;
    const double s0 = NowMs();
    Refresh(db, w, k, &ms);
    log->refresh_ms.push_back(ms);
    log->spans.Add(kAddTable, 0, s0, s0 + ms, 0);
  }
}

/// Open loop: one generator thread sends query i at start + i / rate
/// whatever the state of earlier queries, and refreshes the refreshed
/// table before every refresh_every-th send. Three collector threads
/// take results as they arrive; latency runs from the due time.
void RunOpenLoop(api::Session& db, const WorkloadDef& w,
                 std::vector<RelId> ids,
                 const std::vector<std::vector<Digest>>& digests,
                 const std::vector<size_t>& order, const RunConfig& cfg,
                 Blocks* blocks, WindowLog* log) {
  constexpr uint32_t kCollectors = 3;
  struct Pending {
    api::QueryHandle handle;
    double due_ms = 0.0;
    size_t tmpl = 0;
    size_t version = 0;
    bool traced = false;
    uint64_t id = 0;
  };
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Pending> pending;
  bool sending_done = false;

  auto collector = [&](int32_t c) {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [&] { return !pending.empty() || sending_done; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      const double s0 = NowMs();
      auto r = p.handle.Take();
      const double done = NowMs();
      const Digest& expected = digests[p.version][p.tmpl];
      const Outcome o = Classify(r, expected);
      std::lock_guard<std::mutex> lock(log->mu);
      log->Record(o, r, p.tmpl, expected);
      if (o != Outcome::kOk) continue;
      ++log->ok_by_mode[p.traced ? 1 : 0];
      const double latency = LatencyFromDueMs(p.due_ms, done);
      if (!p.traced) {
        log->samples.push_back({p.due_ms, done, latency});
        continue;
      }
      log->traced_latency_ms.push_back(latency);
      log->spans.Add(kTake, 1 + c, s0, done, p.id);
      log->layers.Fold(r.value(), &log->spans, done, p.id);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kCollectors; ++c) {
    threads.emplace_back(collector, static_cast<int32_t>(c));
  }

  std::vector<double> lateness;
  std::vector<api::Query> queries;
  BindAll(db, w, ids, &queries);
  size_t version = 0;
  uint64_t refreshes = 0;
  const OpenLoopSchedule schedule{blocks->start_ms(), w.rate_qps};
  blocks->Begin(db);
  for (uint64_t i = 0;; ++i) {
    const double due = schedule.DueMs(i);
    if (due >= blocks->end_ms()) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(due))));
    blocks->Tick(db, NowMs());
    if (i > 0 && i % w.refresh_every == 0) {
      ++refreshes;
      version = refreshes % w.versions.size();
      double ms = 0.0;
      const double s0 = NowMs();
      ids[w.refresh_slot] = Refresh(db, w, version, &ms);
      BindAll(db, w, ids, &queries);
      std::lock_guard<std::mutex> lock(log->mu);
      log->refresh_ms.push_back(ms);
      log->spans.Add(kAddTable, 0, s0, s0 + ms, 0);
    }
    const size_t t = order[i % order.size()];
    const bool traced = blocks->TracedAt(due);
    const double s0 = NowMs();
    lateness.push_back(s0 - due);
    api::QueryHandle h = db.Submit(
        queries[t], ModeOpts(w.templates[t], traced, cfg.threads_per_node));
    const double s1 = NowMs();
    if (traced) {
      std::lock_guard<std::mutex> lock(log->mu);
      log->layers.submit_us.push_back((s1 - s0) * 1000.0);
      log->spans.Add(kSubmit, 0, s0, s1, i + 1);
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      pending.push_back({std::move(h), due, t, version, traced, i + 1});
    }
    queue_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    sending_done = true;
  }
  queue_cv.notify_all();
  for (std::thread& t : threads) t.join();
  blocks->Tick(db, blocks->end_ms());
  log->lateness = SummarizeLateness(lateness);
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<Metric> LayerMetrics(const LayerSums& L, const Counters& d,
                                 const api::SchedulerStats& sched,
                                 uint64_t traced_attempted,
                                 const std::vector<double>& refresh_ms,
                                 double trace_overhead) {
  const auto q = static_cast<double>(std::max<uint64_t>(L.queries, 1));
  const auto qa = static_cast<double>(std::max<uint64_t>(traced_attempted, 1));
  const double bodies = static_cast<double>(d.pool_tasks + d.caller_tasks);
  std::vector<Metric> m = {
      {"api.submit_us_p50", "", Quantile(L.submit_us, 0.5)},
      {"api.exec_ms_p50", "", Quantile(L.exec_ms, 0.5)},
      {"sched.queue_ms_p50", "", Quantile(L.queue_ms, 0.5)},
      {"sched.queue_ms_p95", "", Quantile(L.queue_ms, 0.95)},
      {"sched.loop_lag_p99_ms", "", sched.loop_lag_p99_ms},
      {"sched.timer_slip_max_ms", "",
       static_cast<double>(sched.timer_slip_max_ns) / 1e6},
      {"sched.deadline_missed", "", static_cast<double>(d.deadline_missed)},
      {"pool.caller_task_frac", "",
       Ratio(static_cast<double>(d.caller_tasks), bodies)},
      {"pool.foreign_steals_per_q", "",
       static_cast<double>(d.foreign_steals) / qa},
      {"pool.bodies_per_q", "", bodies / qa},
      {"mt.scan_busy_ms_per_q", "", L.mt_scan_ns / 1e6 / q},
      {"mt.build_busy_ms_per_q", "", L.mt_build_ns / 1e6 / q},
      {"mt.probe_busy_ms_per_q", "", L.mt_probe_ns / 1e6 / q},
      {"mt.agg_tail_ms_per_q", "", L.mt_agg_tail_ns / 1e6 / q},
      {"mt.activations_per_q", "", static_cast<double>(L.mt_activations) / q},
      {"mt.escapes_per_q", "", static_cast<double>(L.mt_escapes) / q},
      {"mt.idle_waits_per_q", "", static_cast<double>(L.mt_idle_waits) / q},
      {"mt.imbalance_mean", "",
       Ratio(L.mt_imbalance_sum, static_cast<double>(L.mt_queries))},
      {"mt.build_cache_hit_rate", "",
       Ratio(static_cast<double>(L.cache_hits),
             static_cast<double>(L.cache_hits + L.cache_misses))},
      {"mt.build_cache_evictions", "", static_cast<double>(d.cache_evictions)},
      {"mt.build_cache_dedup_waits", "",
       static_cast<double>(d.cache_dedup_waits)},
      {"cluster.scan_busy_ms_per_q", "", L.cl_scan_ns / 1e6 / q},
      {"cluster.probe_busy_ms_per_q", "", L.cl_probe_ns / 1e6 / q},
      {"cluster.agg_busy_ms_per_q", "", L.cl_agg_ns / 1e6 / q},
      {"cluster.steal_success_rate", "",
       Ratio(static_cast<double>(L.steals),
             static_cast<double>(L.steal_requests))},
      {"cluster.stolen_activations_per_q", "",
       static_cast<double>(L.stolen) / q},
      {"cluster.fragment_cache_hit_rate", "",
       Ratio(static_cast<double>(L.fragment_hits),
             static_cast<double>(L.stolen))},
      {"cluster.node_imbalance_mean", "",
       Ratio(L.cl_imbalance_sum, static_cast<double>(L.cl_queries))},
      {"cluster.idle_waits_per_q", "", static_cast<double>(L.cl_idle_waits) / q},
      {"net.messages_per_q", "", static_cast<double>(L.messages) / q},
      {"net.dataflow_bytes_per_q", "", static_cast<double>(L.dataflow_bytes) / q},
      {"net.repartition_bytes_per_q", "",
       static_cast<double>(L.repartition_bytes) / q},
      {"net.lb_bytes_per_q", "", static_cast<double>(L.lb_bytes) / q},
      {"net.protocol_bytes_per_q", "", static_cast<double>(L.protocol_bytes) / q},
      {"catalog.add_table_ms_p50", "", Quantile(refresh_ms, 0.5)},
      {"obs.recorder_events_per_q", "", static_cast<double>(d.recorded) / qa},
      {"obs.recorder_dropped", "", static_cast<double>(d.dropped)},
      {"obs.trace_overhead_frac", "", trace_overhead},
  };
  for (Metric& x : m) x.unit = FindMetric(x.name)->unit;
  return m;
}

std::string Note(const std::string& key, const std::string& json_value) {
  return JsonString(key) + ": " + json_value;
}

bool WriteChromeTrace(const SpanLog& spans, const std::string& path,
                      std::string* error) {
  obs::QueryTrace tr;
  tr.backend = "perfbench";
  tr.strategy = "DP";
  tr.nodes = 1;
  for (const obs::TraceEvent& e : spans.events) {
    tr.nodes = std::max<uint32_t>(tr.nodes, static_cast<uint32_t>(e.node) + 1);
  }
  const auto& names = SpanOps();
  for (size_t i = 0; i < names.size(); ++i) {
    obs::TraceOp op;
    op.id = static_cast<uint32_t>(i);
    op.label = names[i];
    op.kind = names[i];
    tr.ops.push_back(op);
  }
  tr.events = spans.events;
  std::sort(tr.events.begin(), tr.events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  const std::string json = obs::ChromeTraceJson(tr);
  const hierdb::Status st = obs::ValidateChromeTraceJson(json);
  if (!st.ok()) {
    *error = "chrome trace: " + st.ToString();
    return false;
  }
  if (!path.empty()) {
    std::ofstream f(path);
    f << json;
    if (!f) {
      *error = "cannot write " + path;
      return false;
    }
  }
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"star_skew", "bushy_cluster",
                                                  "refresh_open"};
  return kNames;
}

RunOutput RunWorkload(const RunConfig& cfg) {
  RunOutput out;
  WorkloadDef w;
  if (cfg.workload == "star_skew") {
    w = StarSkew(cfg.seed);
  } else if (cfg.workload == "bushy_cluster") {
    w = BushyCluster(cfg.seed);
  } else if (cfg.workload == "refresh_open") {
    w = RefreshOpen(cfg.seed);
  } else {
    out.correct = false;
    out.notes.push_back(Note("error", JsonString("unknown workload")));
    return out;
  }
  const bool open_loop = w.rate_qps > 0.0;

  // References first, on their own session, outside every timed section.
  std::vector<std::vector<Digest>> digests;
  std::string error;
  if (!ComputeReferences(w, open_loop ? w.versions.size() : 1, &digests,
                         &error)) {
    out.correct = false;
    out.notes.push_back(Note("error", JsonString("reference: " + error)));
    return out;
  }

  // Set-up, repeated; the last session is the measured one.
  std::vector<double> setup_s;
  std::vector<RelId> ids;
  std::unique_ptr<api::Session> db;
  uint64_t warm_fail = 0;
  for (uint32_t r = 0; r < w.setup_reps; ++r) {
    db.reset();
    double s = 0.0;
    db = SetUpOnce(w, &ids, &s, &warm_fail);
    setup_s.push_back(s);
  }

  const std::vector<size_t> order = IssueOrder(w.templates.size(), cfg.seed);
  Blocks blocks(NowMs(), cfg.seconds, cfg.trace);
  WindowLog log;
  log.spans.t0_ms = blocks.start_ms();
  if (open_loop) {
    RunOpenLoop(*db, w, ids, digests, order, cfg, &blocks, &log);
  } else {
    RunClosedLoop(*db, w, ids, digests[0], order, cfg, &blocks, &log);
  }
  const api::SchedulerStats sched = db->scheduler_stats();
  out.tally = log.tally;
  out.correct = log.tally.wrong_digest == 0;

  // qps and the latency percentiles are medians over time slices of the
  // window, so a slow episode of the host shorter than half the window
  // does not move them. Each slice keeps enough samples for its
  // percentile (100 per slice for p50, 200 for p95: >= 10 beyond).
  std::vector<double> latencies;
  for (const Sample& x : log.samples) latencies.push_back(x.latency_ms);
  const LatencySummary lat = Summarize(latencies);
  const double window_ms = cfg.seconds * 1000.0;
  const size_t qps_slices = 5;
  const size_t p50_slices = SlicesFor(lat.n, 100);
  const size_t p95_slices = SlicesFor(lat.n, 200);
  if (!cfg.trace) {
    out.metrics = {
        {"qps", "",
         SlicedRate(log.samples, blocks.start_ms(), window_ms, qps_slices)},
        {"latency_p50_ms", "",
         SlicedQuantile(log.samples, blocks.start_ms(), window_ms, p50_slices,
                        0.5)},
        {"latency_p95_ms", "",
         SlicedQuantile(log.samples, blocks.start_ms(), window_ms, p95_slices,
                        0.95)},
        {"refresh_p50_ms", "", Quantile(log.refresh_ms, 0.5)},
        {"ok_frac", "", 1.0 - log.tally.fail_frac()},
        {"setup_s", "", Quantile(setup_s, 0.5)},
        {"peak_rss_mb", "", PeakRssMb()},
    };
    for (Metric& x : out.metrics) x.unit = FindMetric(x.name)->unit;
  } else {
    const double qps_untraced = Ratio(static_cast<double>(log.ok_by_mode[0]),
                                      blocks.untraced_ms() / 1000.0);
    const double qps_traced = Ratio(static_cast<double>(log.ok_by_mode[1]),
                                    blocks.traced_ms() / 1000.0);
    // Closed loops: the qps tracing costs. The open loop's qps is its
    // schedule's, so there the cost shows as p50 latency instead.
    double overhead =
        qps_untraced > 0.0 ? 1.0 - qps_traced / qps_untraced : 0.0;
    if (open_loop && lat.p50 > 0.0) {
      overhead = Quantile(log.traced_latency_ms, 0.5) / lat.p50 - 1.0;
    }
    out.metrics = LayerMetrics(log.layers, blocks.traced_counters(), sched,
                               log.layers.submit_us.size(), log.refresh_ms,
                               overhead);
    if (!WriteChromeTrace(log.spans, cfg.trace_path, &error)) {
      out.correct = false;
      out.notes.push_back(Note("error", JsonString(error)));
    }
    out.notes.push_back(Note("traced_queries", std::to_string(log.layers.queries)));
    out.notes.push_back(Note("qps_untraced_blocks", JsonNumber(qps_untraced)));
    out.notes.push_back(Note("qps_traced_blocks", JsonNumber(qps_traced)));
    if (w.templates[0].opts.backend == api::Backend::kCluster) {
      out.notes.push_back(Note("multi_chain_queries",
                               std::to_string(log.layers.multi_chain)));
      out.notes.push_back(Note("repartitioned_queries",
                               std::to_string(log.layers.repartitioned)));
    }
  }

  // The report line: sample counts, the percentile rule's verdict, the
  // outcome split and (open loop) how late the generator ran.
  out.notes.push_back(Note("latency_samples", std::to_string(lat.n)));
  out.notes.push_back(Note(
      "slices", "{\"qps\": " + std::to_string(qps_slices) +
                    ", \"p50\": " + std::to_string(p50_slices) +
                    ", \"p95\": " + std::to_string(p95_slices) + "}"));
  out.notes.push_back(Note("latency_pooled_p50_ms", JsonNumber(lat.p50)));
  out.notes.push_back(Note("latency_pooled_p95_ms", JsonNumber(lat.p95)));
  out.notes.push_back(Note("latency_top_pct", JsonNumber(lat.top_pct)));
  out.notes.push_back(Note("latency_top_ms", JsonNumber(lat.top)));
  out.notes.push_back(
      Note("p95_supported", lat.p95_supported ? "true" : "false"));
  out.notes.push_back(Note(
      "refresh_ms",
      "{\"samples\": " + std::to_string(log.refresh_ms.size()) +
          ", \"p25\": " + JsonNumber(Quantile(log.refresh_ms, 0.25)) +
          ", \"p75\": " + JsonNumber(Quantile(log.refresh_ms, 0.75)) + "}"));
  out.notes.push_back(Note("setup_reps", std::to_string(setup_s.size())));
  out.notes.push_back(Note("warmup_failed", std::to_string(warm_fail)));
  out.notes.push_back(Note(
      "outcomes",
      "{\"ok\": " + std::to_string(log.tally.ok) +
          ", \"failed\": " + std::to_string(log.tally.failed) +
          ", \"refused\": " + std::to_string(log.tally.refused) +
          ", \"deadline_missed\": " + std::to_string(log.tally.deadline_missed) +
          ", \"wrong_digest\": " + std::to_string(log.tally.wrong_digest) +
          ", \"fail_frac\": " + JsonNumber(log.tally.fail_frac()) + "}"));
  if (open_loop) {
    out.notes.push_back(Note(
        "generator",
        "{\"rate_qps\": " + JsonNumber(w.rate_qps) +
            ", \"sent\": " + std::to_string(log.lateness.sent) +
            ", \"late_p50_ms\": " + JsonNumber(log.lateness.p50_ms) +
            ", \"late_max_ms\": " + JsonNumber(log.lateness.max_ms) +
            ", \"late_over_1ms\": " + std::to_string(log.lateness.late_over_1ms) +
            "}"));
  }
  std::string errs = "[";
  for (size_t i = 0; i < log.errors.size(); ++i) {
    errs += (i ? ", " : "") + JsonString(log.errors[i]);
  }
  out.notes.push_back(Note("errors", errs + "]"));
  return out;
}

}  // namespace perfbench
