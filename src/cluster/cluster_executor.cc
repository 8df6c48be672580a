#include "cluster/cluster_executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/zipf.h"
#include "mt/column_batch.h"
#include "mt/row_table.h"
#include "net/message.h"

namespace hierdb::cluster {

using mt::Batch;
using mt::LocalStrategy;
using mt::ResultDigest;
using mt::RowTable;
using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// Partition helpers.

PartitionedTable PartitionByHash(const mt::Table& table, uint32_t nodes,
                                 uint32_t col) {
  PartitionedTable out;
  out.width = table.width();
  out.parts.assign(nodes, Batch(table.width()));
  for (size_t i = 0; i < table.rows(); ++i) {
    const int64_t* row = table.batch.row(i);
    uint32_t node =
        static_cast<uint32_t>((mt::HashKey(row[col]) >> 32) % nodes);
    out.parts[node].AppendRow(row);
  }
  return out;
}

PartitionedTable PartitionRoundRobin(const mt::Table& table, uint32_t nodes) {
  PartitionedTable out;
  out.width = table.width();
  out.parts.assign(nodes, Batch(table.width()));
  for (size_t i = 0; i < table.rows(); ++i) {
    out.parts[i % nodes].AppendRow(table.batch.row(i));
  }
  return out;
}

PartitionedTable PartitionWithPlacementSkew(const mt::Table& table,
                                            uint32_t nodes, double theta,
                                            uint64_t seed) {
  PartitionedTable out;
  out.width = table.width();
  out.parts.assign(nodes, Batch(table.width()));
  Rng rng(seed);
  std::vector<uint64_t> sizes =
      ZipfApportion(table.rows(), nodes, theta, &rng);
  size_t i = 0;
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint64_t j = 0; j < sizes[n]; ++j, ++i) {
      out.parts[n].AppendRow(table.batch.row(i));
    }
  }
  return out;
}

Status PlanQuery::Validate(uint32_t nodes) const {
  std::vector<uint32_t> widths;
  widths.reserve(tables.size());
  for (const PartitionedTable* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table");
    if (t->parts.size() != nodes) {
      return Status::InvalidArgument("table partition count != nodes");
    }
    widths.push_back(t->width);
  }
  HIERDB_RETURN_NOT_OK(plan.ValidateWidths(widths));
  for (const mt::Chain& c : plan.chains) {
    if (c.joins.empty()) {
      return Status::InvalidArgument("every chain needs at least one join");
    }
  }
  // Every non-final chain must feed a later chain: an unconsumed output
  // would have nowhere to materialize and be dropped silently.
  std::vector<bool> mat = plan.MaterializedChains();
  for (size_t c = 0; c + 1 < plan.chains.size(); ++c) {
    if (!mat[c]) {
      return Status::InvalidArgument(
          "chain " + std::to_string(c) +
          " is not the final chain and no later chain consumes its output");
    }
  }
  return Status::OK();
}

namespace {

mt::Table Gather(const PartitionedTable& pt) {
  mt::Table t;
  t.batch = Batch(pt.width);
  for (const Batch& p : pt.parts) {
    t.batch.data().insert(t.batch.data().end(), p.data().begin(),
                          p.data().end());
  }
  return t;
}

}  // namespace

Result<ResultDigest> ReferenceExecute(const PlanQuery& query) {
  HIERDB_RETURN_NOT_OK(query.Validate(
      query.tables.empty()
          ? 0
          : static_cast<uint32_t>(query.tables.front()->parts.size())));
  std::vector<mt::Table> tables;
  tables.reserve(query.tables.size());
  for (const PartitionedTable* pt : query.tables) tables.push_back(Gather(*pt));
  std::vector<const mt::Table*> ptrs;
  for (const auto& t : tables) ptrs.push_back(&t);
  return mt::ReferenceExecute(query.plan, ptrs);
}

double ClusterStats::NodeImbalance() const {
  if (busy_per_node.empty()) return 1.0;
  uint64_t max = 0, sum = 0;
  for (uint64_t b : busy_per_node) {
    max = std::max(max, b);
    sum += b;
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(max) * busy_per_node.size() /
         static_cast<double>(sum);
}

// ---------------------------------------------------------------------
// Implementation.

namespace {

// A probe activation's bucket when its rows may span buckets: any of the
// home buckets of the node that queues it (each row finds its own).
constexpr uint32_t kMixed = UINT32_MAX;

struct Activation {
  uint32_t op = 0;
  // Build: the bucket the rows insert into. Probe: kMixed, or the one
  // bucket of a piece acquired by global load balancing.
  uint32_t bucket = 0;
  uint32_t column = 0;  // the thread whose queue holds it
  Batch rows;
};

class BQueue {
 public:
  bool TryPush(Activation&& a, uint32_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.size() >= capacity) return false;
    items_.push_back(std::move(a));
    return true;
  }
  bool TryPopFront(Activation* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }
  bool TryPopBack(Activation* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.back());
    items_.pop_back();
    return true;
  }
  size_t ApproxSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<Activation> items_;
};

constexpr uint32_t kAnyOp = UINT32_MAX;
constexpr int64_t kMorselsUnknown = -1;  // trigger source chain still running

}  // namespace

struct ClusterExecutor::Impl {
  // ---- static query shape ----
  //
  // The op space concatenates per-chain blocks. Chain c with k joins owns
  // ops [op_base, op_base + 3k]:
  //   op_base + j          buildscan of join j   (trigger)
  //   op_base + k + j      build of join j       (data)
  //   op_base + 2k         scan                  (trigger)
  //   op_base + 2k + 1 + j probe of join j       (data)
  // Joins are likewise numbered globally (join_base + j) to index the
  // per-join hash-table and stolen-fragment state.
  const ClusterOptions& opt;
  const PlanQuery* query = nullptr;
  uint32_t nops = 0;
  uint32_t njoins = 0;
  // Keep the final chain's output rows (per node, in inter[]) so Execute
  // can gather them into a materialized result. Set before Compile().
  bool materialize_final = false;
  // Distributed aggregation over the final chain's rows (set by Compile
  // from the plan): the final rows are kept per node as aggregation input
  // and the per-thread digests are skipped — the result identity comes
  // from the merged aggregate rows instead.
  const mt::AggSpec* agg = nullptr;

  struct ChainInfo {
    uint32_t k = 0;          // joins
    uint32_t op_base = 0;
    uint32_t join_base = 0;
    uint32_t terminal = 0;   // last probe op
    uint32_t out_width = 0;
    bool materialized = false;  // consumed by a later chain
    int32_t input_gate = -1;    // terminal op of the input's source chain
    int32_t stage_gate = -1;    // previous chain's terminal (serialize mode)
  };
  std::vector<ChainInfo> chains;
  std::vector<uint32_t> op_chain;  // op id -> chain index

  // Per global join: the pipelined probe column, the build column, the
  // build source (table or chain) and its width.
  std::vector<uint32_t> jn_probe_col, jn_build_col, jn_build_width;
  std::vector<mt::Source> jn_build_src;
  std::vector<int32_t> jn_build_gate;  // build source chain's terminal op

  std::vector<uint32_t> probe_ops;  // all probe ops (steal candidates)

  // Build-side reuse (mt::ResolveBuilds against opt.build_cache): a hit
  // join probes the shared entry (all B buckets; each node reads its home
  // buckets); an elided chain never runs. born_terminated marks the ops
  // that start terminated on every node with no end-detection round: a
  // hit join's buildscan and build, and every op of an elided chain. A
  // builder entry is published after a successful run (PublishBuilds) and
  // abandoned by every other (~Impl).
  mt::ResolvedBuilds builds;
  std::vector<char> born_terminated;  // per op
  // Trigger ops whose morsel count resolves only once their source chain
  // terminates: (trigger op, source chain).
  std::vector<std::pair<uint32_t, uint32_t>> deferred_triggers;
  // Destination ops receiving a chain's repartitioned intermediate, per
  // source chain (to attribute kTupleBatch traffic in the stats).
  std::vector<std::vector<uint32_t>> repart_dst_ops;

  net::Fabric fabric;

  // Worker provider + cooperative cancellation for this run.
  ExecContext* ctx = nullptr;
  std::atomic<bool> cancelled{false};

  // ---- tracing (null disables the feature; see ClusterOptions) ----
  // Slot s belongs exclusively to gang body s = node * (T+1) + role, so
  // span cells need no synchronization; Drain happens after the gang
  // barrier.
  obs::TraceSink* trace = nullptr;
  uint32_t trace_slots = 0;
  std::vector<obs::OpSpanAgg> trace_cells;  // [slot * nops + op]

  uint32_t slot_of(uint32_t node, uint32_t role) const {
    return node * (opt.threads + 1) + role;
  }
  /// Folds one activation into worker t's span cell. Pre: trace != null.
  void TraceActivation(uint32_t node, uint32_t t, uint32_t op, uint64_t t0,
                       uint64_t rows_in, uint64_t rows_out) {
    trace_cells[static_cast<size_t>(slot_of(node, t + 1)) * nops + op].Add(
        t0, trace->NowNs(), rows_in, rows_out);
  }
  /// Emits accumulated span cells into the sink. Runs after the gang
  /// barrier (every exit path, cancelled/failed runs included).
  void EmitTraceCells() {
    if (trace == nullptr) return;
    const uint32_t per_node = opt.threads + 1;
    for (uint32_t s = 0; s < trace_slots; ++s) {
      for (uint32_t op = 0; op < nops; ++op) {
        const obs::OpSpanAgg& cell =
            trace_cells[static_cast<size_t>(s) * nops + op];
        if (cell.empty()) continue;
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kSpan;
        ev.node = static_cast<int32_t>(s / per_node);
        ev.worker = static_cast<int32_t>(s % per_node) - 1;  // -1 = scheduler
        ev.op = static_cast<int32_t>(op);
        ev.start_ns = cell.first_ns;
        ev.end_ns = cell.last_ns;
        ev.activations = cell.activations;
        ev.rows_in = cell.rows_in;
        ev.rows_out = cell.rows_out;
        ev.detail = cell.busy_ns;
        trace->Record(s, ev);
      }
    }
  }

  // ---- fault detection state ----
  // Message faults are only forwarded to the fabric when detection is on:
  // without the watchdog a dropped message is an undetectable hang or a
  // silently wrong digest.
  std::atomic<bool> unavailable{false};
  std::mutex fail_mu;
  std::string unavailable_msg;
  /// Global progress clock: bumped on every handled message and every
  /// executed activation/morsel (only when detection is on). Node 0's
  /// scheduler watches it; no movement past the liveness timeout while
  /// the query is unfinished means termination can no longer be reached
  /// (the dropped-message case where every loop is still alive).
  std::atomic<uint64_t> progress{0};
  std::atomic<uint64_t> dup_dropped{0};

  static uint64_t MonoNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  explicit Impl(const ClusterOptions& o)
      : opt(o),
        fabric({.nodes = o.nodes,
                .injector = o.detect_faults ? o.injector : nullptr,
                .recorder = o.recorder,
                .recorder_query = o.recorder_query}) {}
  ~Impl() { builds.AbandonPending(opt.build_cache); }

  /// Moves every node's home buckets of each join this run builds for
  /// the cache into one B-bucket entry and publishes it. Only after a
  /// successful run: the tables are complete once the chains terminated.
  void PublishBuilds() {
    for (uint32_t g = 0; g < njoins; ++g) {
      if (!builds.publish[g]) continue;
      builds.publish[g] = 0;
      auto entry = std::make_shared<mt::BucketTables>(opt.buckets);
      for (uint32_t b = 0; b < opt.buckets; ++b) {
        (*entry)[b] = std::move(node_state[home_of(b)]->tables[g][b]);
      }
      opt.build_cache->Publish(builds.keys[g], std::move(entry));
    }
  }

  // ---- plan-point captures (opt.captures; empty = no per-row work) ----
  void OfferCapture(uint32_t chain, uint32_t point, const int64_t* row,
                    uint32_t width) {
    for (const mt::CaptureSink& cs : opt.captures) {
      if (cs.chain == chain && cs.point == point && cs.sink != nullptr) {
        cs.sink->Offer(row, width);
      }
    }
  }

  /// First stop-observer tears the whole run down: every node's done flag
  /// releases its workers, and schedulers exit on `cancelled`.
  void CancelAll() {
    cancelled.store(true, std::memory_order_release);
    for (auto& ns : node_state) {
      ns->done.store(true, std::memory_order_release);
      ns->wake_cv.notify_all();
    }
  }

  /// Fault detection verdict: records the first diagnosis, then tears the
  /// run down. Execute translates it into Status::Unavailable.
  void FailUnavailable(std::string msg) {
    {
      std::lock_guard<std::mutex> lock(fail_mu);
      if (unavailable_msg.empty()) unavailable_msg = std::move(msg);
    }
    unavailable.store(true, std::memory_order_release);
    CancelAll();
  }

  struct NodeState;  // defined below (per-node state)

  /// Duplicate suppression for injected message duplication: Send stamps
  /// a per-sender sequence number, the receiving scheduler drops repeats.
  /// Only consulted when duplication is armed, so the normal path stays a
  /// pointer check.
  bool IsDuplicate(NodeState& ns, const net::Message& m) {
    if (opt.injector == nullptr || opt.injector->plan().dup_prob <= 0.0 ||
        m.seq == 0) {
      return false;
    }
    if (!ns.seen_seq[m.from].insert(m.seq).second) {
      dup_dropped.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint32_t chain_of(uint32_t op) const { return op_chain[op]; }
  uint32_t build_op(uint32_t c, uint32_t j) const {
    return chains[c].op_base + chains[c].k + j;
  }
  uint32_t scan_op(uint32_t c) const {
    return chains[c].op_base + 2 * chains[c].k;
  }
  uint32_t probe_op(uint32_t c, uint32_t j) const {
    return chains[c].op_base + 2 * chains[c].k + 1 + j;
  }
  bool is_probe(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    return op - ci.op_base > 2 * ci.k;
  }
  bool is_build(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    return rel >= ci.k && rel < 2 * ci.k;
  }
  bool is_trigger(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    return rel < ci.k || rel == 2 * ci.k;
  }
  /// Global join index of a buildscan/build/probe op.
  uint32_t join_of(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    if (rel < ci.k) return ci.join_base + rel;                    // buildscan
    if (rel < 2 * ci.k) return ci.join_base + rel - ci.k;         // build
    return ci.join_base + rel - 2 * ci.k - 1;                     // probe
  }
  uint32_t producer_of(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    if (rel < 2 * ci.k) return op - ci.k;  // build <- its buildscan
    // Probe j <- probe j-1, probe 0 <- scan; both are op - 1.
    return op - 1;
  }
  uint32_t home_of(uint32_t bucket) const { return bucket % opt.nodes; }

  // ---- per-node state ----
  struct NodeState {
    // Queues: [op * T + t]; only data ops (build/probe) use them.
    std::vector<std::unique_ptr<BQueue>> queues;
    std::vector<std::atomic<int64_t>> pending;       // per op
    std::vector<std::atomic<int64_t>> morsels_left;  // per trigger op
    std::vector<std::atomic<size_t>> cursor;         // per trigger op
    std::vector<std::atomic<bool>> terminated;       // global, per op

    // Local bucket tables + insert locks, for the joins this run builds.
    // The table array spans all B buckets, so that the probe kernel can
    // index it by hash % B, but only home buckets are initialized and
    // filled; the locks cover home buckets only ([join][bucket / nodes]).
    std::vector<std::vector<RowTable>> tables;  // [join][bucket]
    std::vector<std::unique_ptr<std::mutex[]>> bucket_mu;

    // Stolen fragments: [join] -> bucket -> table.
    std::vector<std::unordered_map<uint32_t, std::unique_ptr<RowTable>>>
        stolen;
    std::vector<std::unique_ptr<std::shared_mutex>> stolen_mu;  // per join
    // Buckets whose fragments we cached, per join (the Section 4 list).
    std::vector<std::unordered_set<uint32_t>> cached_buckets;

    // Distributed intermediates: this node's share of each materialized
    // chain's output (appended by the chain's terminal probe, frozen once
    // the chain globally terminates, then scanned by consuming triggers).
    std::vector<Batch> inter;                            // per chain
    std::vector<std::unique_ptr<std::mutex>> inter_mu;   // per chain

    // Distributed aggregation, phase 1: per-thread partial group tables
    // fed directly by the final chain's terminal probe (the join result
    // is never buffered — memory stays O(groups) per thread).
    std::vector<mt::AggTable> agg_partials;              // per thread
    // Intermediate rows this node shipped to a remote home while
    // repartitioning, per source chain.
    std::vector<std::atomic<uint64_t>> repart_rows;

    // Steal protocol (scheduler-owned unless noted).
    std::atomic<bool> starving{false};                 // DP: set by workers
    std::vector<std::atomic<bool>> fp_starving;        // FP: per op
    std::atomic<int64_t> steal_inflight{0};
    bool steal_in_progress = false;
    uint32_t steal_op = kAnyOp;
    uint32_t offers_pending = 0;
    uint32_t best_provider = UINT32_MAX;
    uint32_t best_op = kAnyOp;
    uint64_t best_count = 0;

    // End detection (scheduler-owned).
    std::vector<bool> reported;
    std::vector<bool> drain_requested;
    std::vector<bool> drain_acked;

    // Scheduler overflow buffer for routing into full queues.
    std::deque<Activation> route_overflow;
    // Hint for the column of the next mixed batch received (round robin).
    uint32_t rx_hint = 0;

    // Per-sender message sequence numbers already handled (consumed only
    // by this node's receive loops; populated only when duplication
    // faults are armed).
    std::vector<std::unordered_set<uint64_t>> seen_seq;

    // FP stage assignments: packed [lo, hi) ranges per op.
    std::vector<uint64_t> fp_range;

    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};

    // Worker wakeup: schedulers notify after routing work or state
    // changes so idle workers don't spin-poll.
    std::mutex wake_mu;
    std::condition_variable wake_cv;

    // Results and stats.
    std::vector<ResultDigest> digests;          // per thread
    std::vector<uint64_t> busy;                 // per thread
    // Rows produced by each chain's terminal probe: [chain * T + t],
    // written only by worker t (always measured, tracing on or off).
    std::vector<uint64_t> chain_rows;
    std::atomic<uint64_t> idle{0};
    std::atomic<uint64_t> stolen_acts{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> late_steals{0};
    std::atomic<uint64_t> steal_reqs{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> shipped_rows{0};
    std::atomic<uint64_t> filtered{0};
    std::atomic<uint64_t> agg_repart_rows{0};

    // Per-worker outboxes for full local queues.
    std::vector<std::deque<Activation>> outbox;

    // Per-worker scatter scratch, pooled by re-entrancy depth (FlushOutbox
    // may nest another activation while an outer frame scatters).
    struct Scratch {
      std::vector<Batch> bucket;  // build inserts, per bucket
      std::vector<uint32_t> hit;
      std::vector<Batch> node;    // mixed scan batches, per home node
      // Vectorized data plane: selection vector, hash column and gathered
      // key column reused across activations (mt/column_batch.h kernels).
      mt::SelVec sel;
      std::vector<uint64_t> hashes;
      std::vector<int64_t> keys;
      mt::AggTable::BatchScratch agg;
      // Probe kernel: active-row lists, the match list, its copy sorted
      // by destination node (with each match's node and each node's run
      // bounds), and the joined rows of one chunk (at most batch_rows).
      mt::ProbeScratch probe;
      mt::Matches matches;
      mt::Matches routed;
      std::vector<uint32_t> dest;
      std::vector<size_t> node_start;
      std::vector<size_t> node_at;
      Batch joined;
    };
    std::vector<std::vector<std::unique_ptr<Scratch>>> scratch_pool;
    std::vector<size_t> scratch_depth;
  };
  std::vector<std::unique_ptr<NodeState>> node_state;

  /// A join's B bucket tables as this node probes them: the shared cache
  /// entry on a hit, else the node's own (home buckets filled).
  const RowTable* JoinTables(const NodeState& ns, uint32_t g) const {
    return builds.tables[g] != nullptr ? builds.tables[g]->data()
                                       : ns.tables[g].data();
  }

  // Coordinator (node 0) bookkeeping.
  std::vector<uint32_t> coord_reports;
  std::vector<uint32_t> coord_acks;
  std::vector<bool> coord_drain;
  std::vector<bool> coord_terminated;

  // ------------------------------------------------------------------
  // Setup.

  void Compile(const PlanQuery& q) {
    query = &q;
    agg = q.plan.agg.has_value() ? &*q.plan.agg : nullptr;
    const auto& pchains = q.plan.chains;
    const uint32_t C = static_cast<uint32_t>(pchains.size());

    chains.clear();
    op_chain.clear();
    jn_probe_col.clear();
    jn_build_col.clear();
    jn_build_width.clear();
    jn_build_src.clear();
    jn_build_gate.clear();
    probe_ops.clear();
    deferred_triggers.clear();
    repart_dst_ops.assign(C, {});
    nops = 0;
    njoins = 0;

    auto src_width = [&](const mt::Source& s) -> uint32_t {
      // Pruned base tables enter the pipeline at their projected width
      // (scans emit only the kept columns; see ExecuteMorsel).
      return s.kind == mt::Source::Kind::kTable
                 ? q.plan.EffectiveTableWidth(s.index, q.tables[s.index]->width)
                 : chains[s.index].out_width;
    };
    std::vector<bool> mat = q.plan.MaterializedChains();
    for (uint32_t c = 0; c < C; ++c) {
      ChainInfo ci;
      ci.k = static_cast<uint32_t>(pchains[c].joins.size());
      ci.op_base = nops;
      ci.join_base = njoins;
      ci.terminal = ci.op_base + 3 * ci.k;  // last probe
      ci.materialized = mat[c];
      ci.out_width = src_width(pchains[c].input);
      if (pchains[c].input.kind == mt::Source::Kind::kChain) {
        ci.input_gate =
            static_cast<int32_t>(chains[pchains[c].input.index].terminal);
      }
      if (opt.serialize_chains && c > 0) {
        ci.stage_gate = static_cast<int32_t>(chains[c - 1].terminal);
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        const mt::JoinStep& js = pchains[c].joins[j];
        jn_probe_col.push_back(js.probe_col);
        jn_build_col.push_back(js.build_col);
        jn_build_width.push_back(src_width(js.build));
        jn_build_src.push_back(js.build);
        jn_build_gate.push_back(
            js.build.kind == mt::Source::Kind::kChain
                ? static_cast<int32_t>(chains[js.build.index].terminal)
                : -1);
        ci.out_width += jn_build_width.back();
      }
      nops += 3 * ci.k + 1;
      njoins += ci.k;
      chains.push_back(ci);
      op_chain.resize(nops, c);
      for (uint32_t j = 0; j < ci.k; ++j) probe_ops.push_back(probe_op(c, j));
      // Triggers over chain intermediates: morsel counts resolve when the
      // source chain terminates; also record the repartition destination.
      if (pchains[c].input.kind == mt::Source::Kind::kChain) {
        deferred_triggers.push_back({scan_op(c), pchains[c].input.index});
        repart_dst_ops[pchains[c].input.index].push_back(probe_op(c, 0));
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        const mt::Source& b = pchains[c].joins[j].build;
        if (b.kind == mt::Source::Kind::kChain) {
          deferred_triggers.push_back({ci.op_base + j, b.index});
          repart_dst_ops[b.index].push_back(build_op(c, j));
        }
      }
    }

    // Build-side reuse: never wait on another query's build (the gang
    // cannot hold-and-wait), and mark what starts terminated.
    std::vector<uint32_t> build_op_of_join;
    for (uint32_t c = 0; c < C; ++c) {
      for (uint32_t j = 0; j < chains[c].k; ++j) {
        build_op_of_join.push_back(build_op(c, j));
      }
    }
    builds = mt::ResolveBuilds(
        opt, q.plan, /*may_wait=*/false,
        [&](uint32_t g) { return build_op_of_join[g]; });
    born_terminated.assign(nops, 0);
    for (uint32_t c = 0; c < C; ++c) {
      const ChainInfo& ci = chains[c];
      for (uint32_t op = ci.op_base; op <= ci.terminal; ++op) {
        born_terminated[op] = builds.chain_reused[c];
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        if (builds.tables[ci.join_base + j] != nullptr) {
          born_terminated[ci.op_base + j] = 1;  // buildscan
          born_terminated[build_op(c, j)] = 1;
        }
      }
    }

    coord_reports.assign(nops, 0);
    coord_acks.assign(nops, 0);
    coord_drain.assign(nops, false);
    coord_terminated.assign(born_terminated.begin(), born_terminated.end());

    const uint32_t T = opt.threads;
    const uint32_t B = opt.buckets;
    node_state.clear();
    for (uint32_t n = 0; n < opt.nodes; ++n) {
      auto ns = std::make_unique<NodeState>();
      ns->queues.reserve(static_cast<size_t>(nops) * T);
      for (uint32_t i = 0; i < nops * T; ++i) {
        ns->queues.push_back(std::make_unique<BQueue>());
      }
      ns->pending = std::vector<std::atomic<int64_t>>(nops);
      ns->morsels_left = std::vector<std::atomic<int64_t>>(nops);
      ns->cursor = std::vector<std::atomic<size_t>>(nops);
      ns->terminated = std::vector<std::atomic<bool>>(nops);
      ns->fp_starving = std::vector<std::atomic<bool>>(nops);
      for (uint32_t i = 0; i < nops; ++i) {
        ns->pending[i].store(0);
        ns->morsels_left[i].store(0);
        ns->cursor[i].store(0);
        ns->terminated[i].store(false);
        ns->fp_starving[i].store(false);
      }
      ns->tables.resize(njoins);
      ns->bucket_mu.resize(njoins);
      ns->stolen.resize(njoins);
      ns->stolen_mu.resize(njoins);
      ns->cached_buckets.resize(njoins);
      const uint32_t home_buckets = (B + opt.nodes - 1) / opt.nodes;
      for (uint32_t g = 0; g < njoins; ++g) {
        ns->stolen_mu[g] = std::make_unique<std::shared_mutex>();
        if (born_terminated[build_op_of_join[g]]) continue;  // no build
        ns->tables[g].resize(B);
        ns->bucket_mu[g] = std::make_unique<std::mutex[]>(home_buckets);
        for (uint32_t b = n; b < B; b += opt.nodes) {
          ns->tables[g][b].Init(jn_build_width[g], jn_build_col[g]);
        }
      }
      ns->inter.resize(C);
      ns->inter_mu.resize(C);
      ns->repart_rows = std::vector<std::atomic<uint64_t>>(C);
      for (uint32_t c = 0; c < C; ++c) {
        // Under aggregation the final chain's rows fold into the partial
        // tables instead of materializing (agg output is gathered
        // separately).
        if (chains[c].materialized ||
            (materialize_final && agg == nullptr && c + 1 == C)) {
          ns->inter[c] = Batch(chains[c].out_width);
        }
        ns->inter_mu[c] = std::make_unique<std::mutex>();
        ns->repart_rows[c].store(0);
      }
      if (agg != nullptr) {
        ns->agg_partials.resize(T);
        for (mt::AggTable& t : ns->agg_partials) t.Init(agg);
      }
      ns->reported.assign(born_terminated.begin(), born_terminated.end());
      ns->drain_requested.assign(nops, false);
      ns->drain_acked.assign(nops, false);
      ns->seen_seq.resize(opt.nodes);
      ns->digests.assign(T, {});
      ns->busy.assign(T, 0);
      ns->chain_rows.assign(static_cast<size_t>(C) * T, 0);
      ns->outbox.resize(T);
      ns->scratch_pool.resize(T);
      ns->scratch_depth.assign(T, 0);
      // Trigger morsel counts: known now for base-table sources, resolved
      // at source-chain termination for intermediate sources.
      auto morsels = [&](size_t rows) {
        return static_cast<int64_t>((rows + opt.morsel_rows - 1) /
                                    opt.morsel_rows);
      };
      for (uint32_t c = 0; c < C; ++c) {
        const mt::Chain& chain = pchains[c];
        if (chain.input.kind == mt::Source::Kind::kTable) {
          ns->morsels_left[scan_op(c)].store(
              morsels(q.tables[chain.input.index]->parts[n].rows()));
        } else {
          ns->morsels_left[scan_op(c)].store(kMorselsUnknown);
        }
        for (uint32_t j = 0; j < chains[c].k; ++j) {
          const mt::Source& b = chain.joins[j].build;
          if (b.kind == mt::Source::Kind::kTable) {
            ns->morsels_left[chains[c].op_base + j].store(
                morsels(q.tables[b.index]->parts[n].rows()));
          } else {
            ns->morsels_left[chains[c].op_base + j].store(kMorselsUnknown);
          }
        }
      }
      for (uint32_t op = 0; op < nops; ++op) {
        if (!born_terminated[op]) continue;
        ns->terminated[op].store(true);
        ns->morsels_left[op].store(0);
      }
      if (opt.strategy == LocalStrategy::kFP) ComputeFpRanges(*ns, n);
      node_state.push_back(std::move(ns));
    }

    if (opt.trace != nullptr) {
      trace = opt.trace;
      trace_slots = opt.nodes * (T + 1);
      trace->EnsureSlots(trace_slots);
      trace_cells.assign(static_cast<size_t>(trace_slots) * nops,
                         obs::OpSpanAgg{});
    }
  }

  /// Local row-count estimate for a source at `node`: exact for base
  /// tables; for a chain intermediate (unknown until it runs) the chain's
  /// own input estimate stands in — crude, but FP's static allocation is
  /// exactly the discretization weakness the paper measures.
  double EstimateSourceRows(uint32_t node, const mt::Source& s) const {
    if (s.kind == mt::Source::Kind::kTable) {
      return static_cast<double>(query->tables[s.index]->parts[node].rows());
    }
    return EstimateSourceRows(node, query->plan.chains[s.index].input);
  }

  // FP: per chain, two static stages — builds (buildscan_j + build_j),
  // then the probe chain (scan + probe_j). Threads allocated by local
  // (optionally distorted) cost; each chain apportions the full thread
  // range, so under serialized chains this matches single-chain FP and
  // under concurrent chains a thread may serve several chains' stages.
  void ComputeFpRanges(NodeState& ns, uint32_t n) {
    const uint32_t T = opt.threads;
    ns.fp_range.assign(nops, 0);
    auto distort = [&](uint32_t op, double c) {
      return op < opt.fp_cost_distortion.size()
                 ? c * opt.fp_cost_distortion[op]
                 : c;
    };
    auto apportion = [&](const std::vector<std::pair<uint32_t, double>>&
                             ops_with_cost) {
      if (ops_with_cost.empty()) return;
      if (ops_with_cost.size() >= T) {
        for (size_t i = 0; i < ops_with_cost.size(); ++i) {
          uint32_t t = static_cast<uint32_t>(i) % T;
          ns.fp_range[ops_with_cost[i].first] =
              (static_cast<uint64_t>(t) << 32) | (t + 1);
        }
        return;
      }
      double total = 0;
      for (const auto& [op, c] : ops_with_cost) total += c;
      uint32_t rest = T - static_cast<uint32_t>(ops_with_cost.size());
      std::vector<uint32_t> alloc(ops_with_cost.size(), 1);
      std::vector<double> frac(ops_with_cost.size());
      uint32_t used = 0;
      for (size_t i = 0; i < ops_with_cost.size(); ++i) {
        double share =
            total > 0 ? ops_with_cost[i].second / total * rest
                      : static_cast<double>(rest) / ops_with_cost.size();
        uint32_t whole = static_cast<uint32_t>(share);
        alloc[i] += whole;
        used += whole;
        frac[i] = share - whole;
      }
      std::vector<size_t> order(ops_with_cost.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](size_t a, size_t b) { return frac[a] > frac[b]; });
      for (size_t i = 0; i < order.size() && used < rest; ++i, ++used) {
        ++alloc[order[i]];
      }
      uint32_t t = 0;
      for (size_t i = 0; i < ops_with_cost.size(); ++i) {
        ns.fp_range[ops_with_cost[i].first] =
            (static_cast<uint64_t>(t) << 32) | (t + alloc[i]);
        t += alloc[i];
      }
    };
    for (uint32_t c = 0; c < chains.size(); ++c) {
      const ChainInfo& ci = chains[c];
      if (builds.chain_reused[c]) continue;
      // A reused join's build ops start terminated: no threads for them.
      std::vector<std::pair<uint32_t, double>> stage_a;
      for (uint32_t j = 0; j < ci.k; ++j) {
        if (born_terminated[build_op(c, j)]) continue;
        double cost =
            EstimateSourceRows(n, query->plan.chains[c].joins[j].build) + 1;
        stage_a.push_back(
            {ci.op_base + j, distort(ci.op_base + j, cost)});
        stage_a.push_back({build_op(c, j), distort(build_op(c, j), cost)});
      }
      apportion(stage_a);
      std::vector<std::pair<uint32_t, double>> stage_b;
      double scan_cost =
          EstimateSourceRows(n, query->plan.chains[c].input) + 1;
      stage_b.push_back({scan_op(c), distort(scan_op(c), scan_cost)});
      for (uint32_t j = 0; j < ci.k; ++j) {
        stage_b.push_back(
            {probe_op(c, j), distort(probe_op(c, j), scan_cost)});
      }
      apportion(stage_b);
    }
  }

  NodeState::Scratch& AcquireScratch(NodeState& ns, uint32_t t) {
    size_t d = ns.scratch_depth[t]++;
    if (d == ns.scratch_pool[t].size()) {
      auto sc = std::make_unique<NodeState::Scratch>();
      sc->bucket.resize(opt.buckets);
      sc->node.resize(opt.nodes);
      ns.scratch_pool[t].push_back(std::move(sc));
    }
    return *ns.scratch_pool[t][d];
  }
  void ReleaseScratch(NodeState& ns, uint32_t t) { --ns.scratch_depth[t]; }

  bool ThreadMayRun(const NodeState& ns, uint32_t t, uint32_t op) const {
    if (opt.strategy != LocalStrategy::kFP) return true;
    uint64_t packed = ns.fp_range[op];
    uint32_t lo = static_cast<uint32_t>(packed >> 32);
    uint32_t hi = static_cast<uint32_t>(packed);
    return lo <= t && t < hi;
  }

  /// Queue column of a data activation: a build insert's or a stolen
  /// piece's bucket mod T, a mixed batch's `hint` mod T (its producer's
  /// thread, or a round-robin count for a batch from another node). Under
  /// FP a probe activation goes to one of the probe's own threads instead,
  /// so that it is not taken by a steal from a thread that may not run
  /// the probe.
  uint32_t QueueColumn(const NodeState& ns, uint32_t op, uint32_t bucket,
                       uint32_t hint) const {
    const uint32_t h = bucket == kMixed ? hint : bucket;
    if (opt.strategy == LocalStrategy::kFP && !is_build(op)) {
      uint64_t packed = ns.fp_range[op];
      uint32_t lo = static_cast<uint32_t>(packed >> 32);
      uint32_t hi = static_cast<uint32_t>(packed);
      if (hi > lo) return lo + h % (hi - lo);
    }
    return h % opt.threads;
  }

  /// Queues `act` on its column; returns false, staging it in `overflow`,
  /// when the queue is full.
  bool Enqueue(NodeState& ns, Activation&& act,
               std::deque<Activation>* overflow) {
    if (ns.queues[act.op * opt.threads + act.column]->TryPush(
            std::move(act), opt.queue_capacity)) {
      return true;
    }
    overflow->push_back(std::move(act));
    return false;
  }

  bool Consumable(const NodeState& ns, uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    if (rel >= ci.k && rel < 2 * ci.k) return true;  // build
    if (rel > 2 * ci.k) {                            // probe
      return ns.terminated[build_op(op_chain[op], rel - 2 * ci.k - 1)].load(
          std::memory_order_acquire);
    }
    // Trigger ops: the H2 stage gate (serialized chains), then the
    // source-chain gate (an intermediate is scannable only once its
    // producer globally terminated).
    if (ci.stage_gate >= 0 &&
        !ns.terminated[ci.stage_gate].load(std::memory_order_acquire)) {
      return false;
    }
    if (rel == 2 * ci.k) {  // scan: H1 — wait for this chain's hash tables
      if (ci.input_gate >= 0 &&
          !ns.terminated[ci.input_gate].load(std::memory_order_acquire)) {
        return false;
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        if (!ns.terminated[build_op(op_chain[op], j)].load(
                std::memory_order_acquire)) {
          return false;
        }
      }
      return true;
    }
    // Buildscan j.
    int32_t gate = jn_build_gate[ci.join_base + rel];
    return gate < 0 ||
           ns.terminated[gate].load(std::memory_order_acquire);
  }

  /// The rows a trigger op scans at `node`: a base-table partition or the
  /// node-local share of a chain intermediate (frozen before it becomes
  /// consumable, so reads need no lock).
  const Batch& TriggerSource(uint32_t node, uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    const mt::Source& src =
        rel == 2 * ci.k ? query->plan.chains[op_chain[op]].input
                        : jn_build_src[ci.join_base + rel];
    if (src.kind == mt::Source::Kind::kTable) {
      return query->tables[src.index]->parts[node];
    }
    return node_state[node]->inter[src.index];
  }

  // ------------------------------------------------------------------
  // Worker side.

  void WorkerLoop(uint32_t node, uint32_t t) {
    NodeState& ns = *node_state[node];
    while (!ns.done.load(std::memory_order_acquire)) {
      // Cooperative cancellation, checked once per activation.
      if (ctx->StopRequested()) {
        CancelAll();
        break;
      }
      if (!ns.outbox[t].empty()) FlushOutbox(node, t);
      if (RunOne(node, t)) {
        FlushOutbox(node, t);
        ns.starving.store(false, std::memory_order_relaxed);
        if (opt.detect_faults) {
          progress.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        ns.idle.fetch_add(1, std::memory_order_relaxed);
        MarkStarving(ns, t);
        // Lend the idle beat to another in-flight query before napping
        // (cross-query steal through the session pool).
        if (ctx->Park()) continue;
        std::unique_lock<std::mutex> lock(ns.wake_mu);
        ns.wake_cv.wait_for(lock, std::chrono::microseconds(500));
      }
    }
  }

  void MarkStarving(NodeState& ns, uint32_t t) {
    if (opt.strategy == LocalStrategy::kFP) {
      // FP: the thread's probe operator has no local work.
      for (uint32_t op : probe_ops) {
        if (ThreadMayRun(ns, t, op) && Consumable(ns, op) &&
            !ns.terminated[op].load()) {
          ns.fp_starving[op].store(true, std::memory_order_relaxed);
        }
      }
    } else {
      ns.starving.store(true, std::memory_order_relaxed);
    }
  }

  bool RunOne(uint32_t node, uint32_t t) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads;
    // Primary queues.
    for (uint32_t i = 0; i < nops; ++i) {
      uint32_t op = (t + i) % nops;
      if (born_terminated[op] || is_trigger(op) || !Consumable(ns, op)) {
        continue;
      }
      if (!ThreadMayRun(ns, t, op)) continue;
      Activation act;
      if (ns.queues[op * T + t]->TryPopFront(&act)) {
        ExecuteData(node, t, std::move(act));
        return true;
      }
    }
    // Trigger morsels.
    for (uint32_t i = 0; i < nops; ++i) {
      uint32_t op = (t + i) % nops;
      if (born_terminated[op] || !is_trigger(op) || !Consumable(ns, op)) {
        continue;
      }
      if (!ThreadMayRun(ns, t, op)) continue;
      if (ClaimMorsel(node, t, op)) return true;
    }
    // Steal within the node.
    for (uint32_t i = 0; i < nops; ++i) {
      uint32_t op = (t + i) % nops;
      if (born_terminated[op] || is_trigger(op) || !Consumable(ns, op)) {
        continue;
      }
      if (!ThreadMayRun(ns, t, op)) continue;
      for (uint32_t d = 1; d < T; ++d) {
        Activation act;
        if (ns.queues[op * T + (t + d) % T]->TryPopBack(&act)) {
          ExecuteData(node, t, std::move(act));
          return true;
        }
      }
    }
    return false;
  }

  bool ClaimMorsel(uint32_t node, uint32_t t, uint32_t op) {
    NodeState& ns = *node_state[node];
    const Batch& src = TriggerSource(node, op);
    size_t begin = ns.cursor[op].fetch_add(opt.morsel_rows);
    if (begin >= src.rows()) return false;
    size_t end = std::min<size_t>(begin + opt.morsel_rows, src.rows());
    ExecuteMorsel(node, t, op, src, begin, end);
    ++ns.busy[t];
    ns.morsels_left[op].fetch_sub(1);
    return true;
  }

  // Runs a trigger morsel. A buildscan scatters its rows into per-bucket
  // insert batches. A scan splits them by the first join key's home node,
  // one mixed probe batch per destination node.
  void ExecuteMorsel(uint32_t node, uint32_t t, uint32_t op,
                     const Batch& src, size_t begin, size_t end) {
    const uint32_t c = op_chain[op];
    const ChainInfo& ci = chains[c];
    const uint32_t rel = op - ci.op_base;
    const bool scan = rel == 2 * ci.k;
    uint32_t dst_op, col;
    int32_t src_chain = -1;  // repartitioning a chain intermediate?
    const mt::Source& trigger_src = scan ? query->plan.chains[c].input
                                         : jn_build_src[ci.join_base + rel];
    if (scan) {
      dst_op = probe_op(c, 0);
      col = jn_probe_col[ci.join_base];
    } else {
      dst_op = build_op(c, rel);
      col = jn_build_col[ci.join_base + rel];
    }
    if (trigger_src.kind == mt::Source::Kind::kChain) {
      src_chain = static_cast<int32_t>(trigger_src.index);
    }
    // Scan-level predicates of base tables, applied as the rows enter the
    // pipeline (chain intermediates were filtered at their own scans).
    const std::vector<mt::Predicate>* preds =
        trigger_src.kind == mt::Source::Kind::kTable
            ? query->plan.FiltersFor(trigger_src.index)
            : nullptr;
    // Column pruning: a pruned base table ships only its kept columns —
    // the repartition wire narrows with it. The plan's key column is in
    // projected coordinates; map it back for hashing unprojected rows.
    const std::vector<uint32_t>* proj =
        trigger_src.kind == mt::Source::Kind::kTable
            ? query->plan.ProjectionFor(trigger_src.index)
            : nullptr;
    const uint32_t out_w =
        proj != nullptr ? static_cast<uint32_t>(proj->size()) : src.width();
    const uint32_t key_src = proj != nullptr ? (*proj)[col] : col;
    const uint32_t B = opt.buckets;
    NodeState& ns = *node_state[node];
    const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
    auto& sc = AcquireScratch(ns, t);
    // Output slots: destination nodes (scan) or buckets (buildscan).
    std::vector<Batch>& out = scan ? sc.node : sc.bucket;
    auto& hit = sc.hit;
    auto flush = [&](uint32_t slot) {
      const uint32_t dest = scan ? slot : home_of(slot);
      if (src_chain >= 0 && dest != node) {
        ns.repart_rows[src_chain].fetch_add(out[slot].rows(),
                                            std::memory_order_relaxed);
      }
      Route(node, t, dest, dst_op, scan ? kMixed : slot,
            std::move(out[slot]));
      out[slot] = Batch();
    };
    // Scan output = capture point 0, offered where rows enter the chain
    // (each source row is scanned by exactly one node, so once apiece).
    // Build triggers are not plan points.
    const bool cap = !opt.captures.empty() && scan;
    auto append = [&](const int64_t* row, uint32_t slot) {
      Batch& b = out[slot];
      if (b.width() == 0) b = Batch(out_w);
      if (b.empty()) hit.push_back(slot);
      if (proj != nullptr) {
        b.AppendRowProjected(row, *proj);
      } else {
        b.AppendRow(row);
      }
      if (cap) OfferCapture(c, 0, b.row(b.rows() - 1), out_w);
      if (b.rows() >= opt.batch_rows) {
        flush(slot);
        hit.erase(std::find(hit.begin(), hit.end(), slot));
      }
    };
    // Selection vector + one-pass hash column (mt/column_batch.h).
    const size_t n = end - begin;
    size_t m = n;
    const uint32_t* selp = nullptr;
    if (preds != nullptr) {
      m = mt::FilterBatch(src, begin, n, *preds, &sc.sel);
      ns.filtered.fetch_add(n - m, std::memory_order_relaxed);
      selp = sc.sel.data();
    }
    sc.hashes.resize(m);
    mt::HashStrided(src.data().data() + begin * src.width() + key_src,
                    src.width(), selp, m, sc.hashes.data());
    for (size_t i = 0; i < m; ++i) {
      const uint32_t bucket = static_cast<uint32_t>(sc.hashes[i] % B);
      append(src.row(begin + (selp != nullptr ? selp[i] : i)),
             scan ? home_of(bucket) : bucket);
    }
    for (uint32_t slot : hit) flush(slot);
    hit.clear();
    ReleaseScratch(ns, t);
    if (trace != nullptr) TraceActivation(node, t, op, tr0, n, m);
  }

  // Routes one data activation to node `dest`: a local queue through
  // shared memory, a remote node as one kTupleBatch message.
  void Route(uint32_t node, uint32_t t, uint32_t dest, uint32_t dst_op,
             uint32_t bucket, Batch&& rows) {
    if (dest == node) {
      NodeState& ns = *node_state[node];
      ns.pending[dst_op].fetch_add(1);
      if (Enqueue(ns,
                  Activation{dst_op, bucket,
                             QueueColumn(ns, dst_op, bucket, t),
                             std::move(rows)},
                  &ns.outbox[t])) {
        ns.wake_cv.notify_one();
      }
      return;
    }
    Message m;
    m.type = MsgType::kTupleBatch;
    m.op = dst_op;
    m.bucket = bucket;
    m.payload = net::EncodeBatch(rows);
    if (trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFabricSend;
      ev.node = static_cast<int32_t>(node);
      ev.worker = static_cast<int32_t>(t);
      ev.op = static_cast<int32_t>(dst_op);
      ev.start_ns = ev.end_ns = trace->NowNs();
      ev.detail = rows.rows();
      trace->Record(slot_of(node, t + 1), ev);
    }
    fabric.Send(node, dest, std::move(m)).ok();
  }

  void ExecuteData(uint32_t node, uint32_t t, Activation&& act) {
    NodeState& ns = *node_state[node];
    ++ns.busy[t];
    const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
    const uint64_t rows_in = act.rows.rows();
    const uint32_t c = op_chain[act.op];
    const ChainInfo& ci = chains[c];
    const uint32_t g = join_of(act.op);
    if (is_build(act.op)) {
      {
        std::lock_guard<std::mutex> lock(
            ns.bucket_mu[g][act.bucket / opt.nodes]);
        ns.tables[g][act.bucket].InsertBatch(act.rows);
      }
      if (trace != nullptr) {
        TraceActivation(node, t, act.op, tr0, rows_in, rows_in);
      }
      ns.pending[act.op].fetch_sub(1);
      return;
    }
    // Probe. A mixed batch looks each row up in its own bucket's home
    // table; a stolen piece uses the one table of its bucket (home here,
    // or a fragment acquired with it).
    const RowTable* table = nullptr;
    if (act.bucket != kMixed) {
      if (home_of(act.bucket) == node) {
        table = JoinTables(ns, g) + act.bucket;
      } else {
        std::shared_lock<std::shared_mutex> lock(*ns.stolen_mu[g]);
        auto it = ns.stolen[g].find(act.bucket);
        if (it != ns.stolen[g].end()) table = it->second.get();
      }
      if (table == nullptr) {
        ns.failed.store(true);
        ns.pending[act.op].fetch_sub(1);
        return;
      }
    }
    const uint32_t probe_col = jn_probe_col[g];
    const uint32_t build_w = jn_build_width[g];
    const uint32_t in_w = act.rows.width();
    const uint32_t out_w = in_w + build_w;
    const uint32_t j = act.op - ci.op_base - 2 * ci.k - 1;
    const bool last = j + 1 == ci.k;
    const bool final_chain = c + 1 == chains.size();
    const uint32_t B = opt.buckets;
    auto& sc = AcquireScratch(ns, t);
    // Gather the key column, hash it in one pass, and turn the whole
    // batch into one match list (mt::ProbeMatches): a mixed batch across
    // the home tables, a stolen piece over its one table.
    const size_t n = act.rows.rows();
    sc.keys.resize(n);
    sc.hashes.resize(n);
    mt::GatherStrided(act.rows.data().data() + probe_col, in_w, nullptr, n,
                      sc.keys.data());
    mt::HashStrided(sc.keys.data(), 1, nullptr, n, sc.hashes.data());
    if (table != nullptr) {
      mt::ProbeMatches(table, 1, sc.keys.data(), sc.hashes.data(), n,
                       &sc.probe, &sc.matches);
    } else {
      mt::ProbeMatches(JoinTables(ns, g), B, sc.keys.data(),
                       sc.hashes.data(), n, &sc.probe, &sc.matches);
    }
    const mt::Matches& matches = sc.matches;
    const uint64_t produced = matches.size();
    // Output of probe step j (0-based) = capture point j + 1; the last
    // probe's output is the chain output (point k).
    auto offer = [&](const Batch& rows) {
      if (opt.captures.empty()) return;
      for (size_t r = 0; r < rows.rows(); ++r) {
        OfferCapture(c, j + 1, rows.row(r), out_w);
      }
    };
    if (!last) {
      // A non-final probe sends each match to the home node of the next
      // join key (a stolen piece's output included, so it returns to the
      // buckets' homes): a stable sort of the match list by that node,
      // then each node's run in mixed batches of at most batch_rows rows.
      const uint32_t next_col = jn_probe_col[g + 1];
      const uint32_t next_op = act.op + 1;
      std::vector<size_t>& start = sc.node_start;
      start.assign(opt.nodes + 1, 0);
      sc.dest.resize(matches.size());
      for (size_t m = 0; m < matches.size(); ++m) {
        const int64_t key =
            next_col < in_w ? act.rows.at(matches.probe[m], next_col)
                            : matches.build[m][next_col - in_w];
        sc.dest[m] = home_of(static_cast<uint32_t>(mt::HashKey(key) % B));
        ++start[sc.dest[m] + 1];
      }
      for (uint32_t d = 0; d < opt.nodes; ++d) start[d + 1] += start[d];
      mt::Matches& routed = sc.routed;
      routed.probe.resize(matches.size());
      routed.build.resize(matches.size());
      routed.count = matches.size();
      std::vector<size_t>& at = sc.node_at;
      at.assign(start.begin(), start.end() - 1);
      for (size_t m = 0; m < matches.size(); ++m) {
        const size_t pos = at[sc.dest[m]]++;
        routed.probe[pos] = matches.probe[m];
        routed.build[pos] = matches.build[m];
      }
      for (uint32_t d = 0; d < opt.nodes; ++d) {
        mt::ForEachJoinedChunk(act.rows, routed, start[d], start[d + 1],
                               build_w, opt.batch_rows, &sc.joined,
                               [&](Batch& chunk) {
                                 offer(chunk);
                                 Route(node, t, d, next_op, kMixed,
                                       std::move(chunk));
                               });
      }
    } else {
      // The terminal probe joins its matches batch_rows rows at a time.
      // Under aggregation each chunk folds into this thread's partial
      // table (phase 1 of the distributed aggregation) and the digest
      // comes from the merged aggregate rows. Otherwise the final chain
      // digests its rows, and a non-final chain (or a materialized final
      // one) keeps them in this node's share of the distributed
      // intermediate.
      const bool to_agg = final_chain && agg != nullptr;
      const bool keep_rows =
          !final_chain || (materialize_final && agg == nullptr);
      Batch local_out(out_w);
      ResultDigest digest;
      mt::ForEachJoinedChunk(
          act.rows, matches, 0, matches.size(), build_w, opt.batch_rows,
          &sc.joined, [&](Batch& chunk) {
            offer(chunk);
            if (to_agg) {
              ns.agg_partials[t].AccumulateBatch(chunk, 0, nullptr,
                                                 chunk.rows(), nullptr,
                                                 &sc.agg);
              return;
            }
            if (final_chain) {
              digest.AddRows(chunk.data().data(), chunk.rows(), out_w);
            }
            if (keep_rows) {
              local_out.AppendRows(chunk.data().data(), chunk.rows());
            }
          });
      ns.digests[t].Merge(digest);
      if (!local_out.empty()) {
        std::lock_guard<std::mutex> lock(*ns.inter_mu[c]);
        ns.inter[c].data().insert(ns.inter[c].data().end(),
                                  local_out.data().begin(),
                                  local_out.data().end());
      }
      ns.chain_rows[c * opt.threads + t] += produced;
    }
    ReleaseScratch(ns, t);
    if (trace != nullptr) {
      TraceActivation(node, t, act.op, tr0, rows_in, produced);
    }
    ns.pending[act.op].fetch_sub(1);
  }

  // Drain a worker's outbox of pushes that found full local queues.
  void FlushOutbox(uint32_t node, uint32_t t) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads;
    auto& outbox = ns.outbox[t];
    uint32_t stalls = 0;
    while (!outbox.empty() && !ns.done.load(std::memory_order_relaxed)) {
      size_t n = outbox.size();
      bool progressed = false;
      for (size_t i = 0; i < n;) {
        Activation& act = outbox[i];
        if (ns.queues[act.op * T + act.column]->TryPush(
                std::move(act), opt.queue_capacity)) {
          outbox.erase(outbox.begin() + static_cast<long>(i));
          --n;
          progressed = true;
        } else {
          ++i;
        }
      }
      if (outbox.empty() || progressed) {
        stalls = 0;
        continue;
      }
      // Help: drain stuck destinations, deepest operator first (the
      // terminal probe consumes without producing, so draining deep ops
      // shrinks the backlog instead of growing it). Execute a burst of
      // helps per push pass to avoid quadratic outbox re-scans.
      bool helped = false;
      std::vector<uint32_t> stuck_ops;
      for (const Activation& stuck : outbox) {
        if (Consumable(ns, stuck.op) &&
            std::find(stuck_ops.begin(), stuck_ops.end(), stuck.op) ==
                stuck_ops.end()) {
          stuck_ops.push_back(stuck.op);
        }
      }
      std::sort(stuck_ops.rbegin(), stuck_ops.rend());
      uint32_t burst = 0;
      for (uint32_t op : stuck_ops) {
        for (uint32_t d = 0; d < T && burst < 16; ++d) {
          Activation other;
          while (burst < 16 &&
                 ns.queues[op * T + (t + d) % T]->TryPopFront(&other)) {
            ExecuteData(node, t, std::move(other));
            ++burst;
            helped = true;
          }
        }
        if (burst >= 16) break;
      }
      if (!helped && stalls > 1000) {
        helped = RunOne(node, t);
      }
      if (!helped) {
        ++stalls;
        std::this_thread::yield();
      } else {
        stalls = 0;
      }
    }
  }

  // ------------------------------------------------------------------
  // Scheduler side (one per node; node 0 doubles as coordinator).

  void SchedulerLoop(uint32_t node) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads;
    const bool detect = opt.detect_faults;
    // Node-loop faults only fire where detection can catch them —
    // otherwise an injected stall is a guaranteed hang, not a test.
    const bool inject_loop_faults =
        opt.injector != nullptr && detect && opt.nodes > 1;
    const uint64_t hb_period_ns = uint64_t{opt.heartbeat_us} * 1000;
    const uint64_t timeout_ns =
        uint64_t{opt.liveness_timeout_ms} * 1'000'000;
    uint64_t poll = 0;
    uint64_t now = detect ? MonoNs() : 0;
    std::vector<uint64_t> last_heard(opt.nodes, now);
    uint64_t last_hb_sent = 0;
    uint64_t last_progress = progress.load(std::memory_order_relaxed);
    uint64_t progress_since = now;
    // Handles one incoming message; returns whether it counted as work
    // (heartbeats and suppressed duplicates don't).
    auto consume = [&](Message&& m) {
      if (detect && m.from < last_heard.size()) {
        last_heard[m.from] = now;
      }
      if (m.type == MsgType::kHeartbeat) return false;
      if (IsDuplicate(ns, m)) return false;
      HandleMessage(node, std::move(m));
      if (detect) progress.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
    while (true) {
      if (cancelled.load(std::memory_order_acquire)) return;
      if (ctx->StopRequested()) {
        CancelAll();
        return;
      }
      if (inject_loop_faults) {
        // Crash: the loop silently dies; peers detect the silence.
        if (opt.injector->ShouldCrashNode(static_cast<int>(node), poll)) {
          return;
        }
        if (opt.injector->ShouldStallNode(static_cast<int>(node), poll)) {
          // Stall in small slices so teardown (CancelAll) still releases
          // us; stall_ms == 0 stalls until detection fires.
          const uint64_t t0 = MonoNs();
          const uint64_t limit_ns =
              uint64_t{opt.injector->plan().stall_ms} * 1'000'000;
          while (!cancelled.load(std::memory_order_acquire) &&
                 (limit_ns == 0 || MonoNs() - t0 < limit_ns)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      }
      ++poll;
      if (detect) now = MonoNs();
      bool worked = false;
      // 1. Route queued overflow from earlier messages.
      for (size_t i = 0; i < ns.route_overflow.size();) {
        Activation& act = ns.route_overflow[i];
        if (ns.queues[act.op * T + act.column]->TryPush(
                std::move(act), opt.queue_capacity)) {
          ns.route_overflow.erase(ns.route_overflow.begin() +
                                  static_cast<long>(i));
          worked = true;
        } else {
          ++i;
        }
      }
      // 2. Drain the mailbox.
      Message m;
      while (fabric.mailbox(node).TryPop(&m)) {
        worked |= consume(std::move(m));
      }
      // 3. End-detection reports.
      worked |= CheckReports(node);
      // 4. Global load balancing.
      if (opt.global_lb) worked |= CheckStarving(node);
      // 5. Liveness: announce ourselves, suspect silent peers, and (node
      // 0) watch the global progress clock.
      if (detect) {
        if (now - last_hb_sent >= hb_period_ns) {
          last_hb_sent = now;
          Message hb;
          hb.type = MsgType::kHeartbeat;
          fabric.Broadcast(node, hb).ok();
        }
        for (uint32_t p = 0; p < opt.nodes; ++p) {
          if (p == node) continue;
          if (now - last_heard[p] > timeout_ns) {
            if (opt.recorder != nullptr) {
              opt.recorder->Instant(obs::EventKind::kHeartbeatMiss,
                                    opt.recorder_query, now - last_heard[p],
                                    static_cast<int32_t>(p));
            }
            FailUnavailable("node " + std::to_string(p) +
                            " unresponsive (no message for " +
                            std::to_string(opt.liveness_timeout_ms) +
                            " ms; suspected stall or crash)");
            return;
          }
        }
        if (node == 0) {
          const uint64_t cur = progress.load(std::memory_order_relaxed);
          if (cur != last_progress) {
            last_progress = cur;
            progress_since = now;
          } else if (now - progress_since > timeout_ns) {
            if (opt.recorder != nullptr) {
              opt.recorder->Instant(obs::EventKind::kHeartbeatMiss,
                                    opt.recorder_query, now - progress_since,
                                    static_cast<int32_t>(node));
            }
            FailUnavailable(
                "cluster made no progress for " +
                std::to_string(opt.liveness_timeout_ms) +
                " ms (suspected message loss)");
            return;
          }
        }
      }
      if (worked) ns.wake_cv.notify_all();
      if (ns.done.load(std::memory_order_acquire) &&
          ns.route_overflow.empty()) {
        ns.wake_cv.notify_all();
        return;
      }
      if (!worked) {
        // Idle nap, cut short by message arrival (the mailbox receive
        // timeout — bounded wait, never an unbounded Pop).
        if (fabric.mailbox(node).PopFor(&m,
                                        std::chrono::microseconds(50))) {
          if (detect) now = MonoNs();
          if (consume(std::move(m))) ns.wake_cv.notify_all();
        }
      }
    }
  }

  bool CheckReports(uint32_t node) {
    NodeState& ns = *node_state[node];
    bool acted = false;
    for (uint32_t op = 0; op < nops; ++op) {
      if (!ns.reported[op]) {
        bool ready;
        if (is_trigger(op)) {
          // kMorselsUnknown (source chain still running) never reads 0.
          ready = ns.morsels_left[op].load() == 0;
        } else {
          ready = ns.terminated[producer_of(op)].load() &&
                  ns.pending[op].load() == 0 &&
                  ns.steal_inflight.load() == 0;
        }
        if (ready) {
          ns.reported[op] = true;
          SendToCoordinator(node, MsgType::kEndOfQueuesAtNode, op, 0);
          acted = true;
        }
      }
      if (ns.drain_requested[op] && !ns.drain_acked[op]) {
        bool drained = is_trigger(op)
                           ? ns.morsels_left[op].load() == 0
                           : (ns.pending[op].load() == 0 &&
                              ns.steal_inflight.load() == 0);
        if (drained) {
          ns.drain_acked[op] = true;
          SendToCoordinator(node, MsgType::kDrainConfirm, op, 1);
          acted = true;
        }
      }
    }
    return acted;
  }

  bool CheckStarving(uint32_t node) {
    NodeState& ns = *node_state[node];
    if (ns.steal_in_progress) return false;
    uint32_t want_op = kAnyOp;
    if (opt.strategy == LocalStrategy::kFP) {
      for (uint32_t op : probe_ops) {
        if (ns.fp_starving[op].load(std::memory_order_relaxed) &&
            !ns.terminated[op].load()) {
          want_op = op;
          ns.fp_starving[op].store(false, std::memory_order_relaxed);
          break;
        }
      }
      if (want_op == kAnyOp) return false;
    } else {
      if (!ns.starving.load(std::memory_order_relaxed)) return false;
      // Only bother when some probe operator is still alive somewhere.
      bool alive = false;
      for (uint32_t op : probe_ops) {
        if (!ns.terminated[op].load()) {
          alive = true;
          break;
        }
      }
      if (!alive) return false;
      ns.starving.store(false, std::memory_order_relaxed);
    }
    if (opt.nodes < 2) return false;
    ns.steal_in_progress = true;
    ns.steal_op = want_op;
    ns.offers_pending = opt.nodes - 1;
    ns.best_provider = UINT32_MAX;
    ns.best_count = 0;
    ns.best_op = kAnyOp;
    ns.steal_reqs.fetch_add(1, std::memory_order_relaxed);
    Message m;
    m.type = MsgType::kStarving;
    m.op = want_op;
    m.arg = 0;  // available memory: unconstrained in this build
    fabric.Broadcast(node, m).ok();
    return true;
  }

  void SendToCoordinator(uint32_t node, MsgType type, uint32_t op,
                         uint64_t arg) {
    if (node == 0) {
      Message m;
      m.type = type;
      m.op = op;
      m.arg = arg;
      m.from = 0;
      CoordinatorHandle(std::move(m));
    } else {
      Message m;
      m.type = type;
      m.op = op;
      m.arg = arg;
      fabric.Send(node, 0, std::move(m)).ok();
    }
  }

  void CoordinatorBroadcast(MsgType type, uint32_t op, uint64_t arg) {
    Message m;
    m.type = type;
    m.op = op;
    m.arg = arg;
    fabric.Broadcast(0, m).ok();
    // Self-delivery.
    m.from = 0;
    HandleNodeMessage(0, std::move(m));
  }

  void CoordinatorHandle(Message&& m) {
    uint32_t op = m.op;
    if (coord_terminated[op]) return;
    if (m.type == MsgType::kEndOfQueuesAtNode) {
      if (++coord_reports[op] == opt.nodes && !coord_drain[op]) {
        coord_drain[op] = true;
        CoordinatorBroadcast(MsgType::kDrainConfirm, op, 0);
      }
    } else if (m.type == MsgType::kDrainConfirm && m.arg == 1) {
      if (++coord_acks[op] == opt.nodes) {
        coord_terminated[op] = true;
        CoordinatorBroadcast(MsgType::kOpTerminated, op, 0);
      }
    }
  }

  void HandleMessage(uint32_t node, Message&& m) {
    if (node == 0 && (m.type == MsgType::kEndOfQueuesAtNode ||
                      (m.type == MsgType::kDrainConfirm && m.arg == 1))) {
      CoordinatorHandle(std::move(m));
      return;
    }
    HandleNodeMessage(node, std::move(m));
  }

  void HandleNodeMessage(uint32_t node, Message&& m) {
    NodeState& ns = *node_state[node];
    switch (m.type) {
      case MsgType::kTupleBatch: {
        auto rows = net::DecodeBatch(m.payload);
        if (!rows.ok()) {
          ns.failed.store(true);
          return;
        }
        ns.pending[m.op].fetch_add(1);
        Enqueue(ns,
                Activation{m.op, m.bucket,
                           QueueColumn(ns, m.op, m.bucket, ns.rx_hint++),
                           std::move(rows).value()},
                &ns.route_overflow);
        break;
      }
      case MsgType::kDrainConfirm:
        // arg == 0: coordinator requests a drain ack for op.
        if (m.arg == 0) ns.drain_requested[m.op] = true;
        break;
      case MsgType::kOpTerminated: {
        // A chain terminal freezes its distributed intermediate: resolve
        // the morsel counts of every trigger scanning it at this node
        // (before the terminated flag releases those triggers).
        for (const auto& [trigger, src_chain] : deferred_triggers) {
          if (chains[src_chain].terminal != m.op) continue;
          size_t rows;
          {
            std::lock_guard<std::mutex> lock(*ns.inter_mu[src_chain]);
            rows = ns.inter[src_chain].rows();
          }
          ns.morsels_left[trigger].store(static_cast<int64_t>(
              (rows + opt.morsel_rows - 1) / opt.morsel_rows));
        }
        ns.terminated[m.op].store(true, std::memory_order_release);
        if (m.op == chains.back().terminal) {
          ns.done.store(true, std::memory_order_release);
        }
        break;
      }
      case MsgType::kStarving:
        HandleStarving(node, m);
        break;
      case MsgType::kOffer:
      case MsgType::kNoWork:
        HandleOfferReply(node, m);
        break;
      case MsgType::kAcquire:
        HandleAcquire(node, m);
        break;
      case MsgType::kWork:
        HandleWork(node, m);
        break;
      default:
        break;
    }
  }

  // A remote node is starving: offer our best candidate queue. Candidates
  // are unblocked probe operators with enough queued work (Section 3.2
  // conditions ii, iv, v); benefit is the queued activation count (a
  // mixed batch counts once, whatever buckets its rows span).
  void HandleStarving(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads;
    uint32_t best_op = kAnyOp;
    uint64_t best_count = 0;
    for (uint32_t op : probe_ops) {
      if (m.op != kAnyOp && m.op != op) continue;
      if (!Consumable(ns, op) || ns.terminated[op].load()) continue;
      uint64_t count = 0;
      for (uint32_t t = 0; t < T; ++t) {
        count += ns.queues[op * T + t]->ApproxSize();
      }
      if (count >= opt.min_steal && count > best_count) {
        best_count = count;
        best_op = op;
      }
    }
    Message reply;
    if (best_op != kAnyOp) {
      reply.type = MsgType::kOffer;
      reply.op = best_op;
      reply.arg = best_count;
    } else {
      reply.type = MsgType::kNoWork;
      reply.arg = 0;  // offer stage
    }
    fabric.Send(node, m.from, std::move(reply)).ok();
  }

  // Protocol invariant: no node receives work for an op after acking its
  // drain. A drain ack (CheckReports) lets the coordinator terminate the
  // op once the providers ack too, and a provider acks as soon as an
  // acquire empties its queues; stolen batches arriving after that would
  // run behind the termination and lose their rows downstream. So the
  // thief never acquires an op it has acked: offers for acked ops count
  // as no offer, and an op acked while offers were being collected drops
  // the acquire. (Once the acquire is sent, steal_inflight holds the ack
  // back until the work arrives.)
  void HandleOfferReply(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    if (!ns.steal_in_progress) return;
    if (m.type == MsgType::kNoWork && m.arg == 1) {
      // Acquire-stage failure: provider raced empty.
      ns.steal_inflight.fetch_sub(1);
      ns.steal_in_progress = false;
      return;
    }
    if (ns.offers_pending == 0) return;
    --ns.offers_pending;
    if (m.type == MsgType::kOffer && m.arg > ns.best_count &&
        !ns.drain_acked[m.op]) {
      ns.best_count = m.arg;
      ns.best_provider = m.from;
      ns.best_op = m.op;
    }
    if (ns.offers_pending == 0) {
      if (ns.best_provider == UINT32_MAX || ns.drain_acked[ns.best_op]) {
        ns.steal_in_progress = false;
        return;
      }
      // Acquire from the most loaded provider; list cached buckets so
      // already-copied fragments are not re-shipped (Section 4).
      ns.steal_inflight.fetch_add(1);
      Message req;
      req.type = MsgType::kAcquire;
      req.op = ns.best_op;
      if (opt.cache_stolen_fragments) {
        uint32_t g = join_of(ns.best_op);
        for (uint32_t b : ns.cached_buckets[g]) {
          net::PutU32(&req.payload, b);
        }
      }
      fabric.Send(node, ns.best_provider, std::move(req)).ok();
    }
  }

  // Gives the requester up to steal_batch queued activations of `op`. The
  // rows travel split by bucket, merged across the activations taken, so
  // the bundle and the thief's probe stay per bucket; each bucket's build
  // fragment goes along unless the requester cached it. `pending` drops by
  // the activations taken, which the thief counts as stolen.
  void HandleAcquire(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads;
    uint32_t op = m.op;
    uint32_t g = join_of(op);
    std::unordered_set<uint32_t> requester_cached;
    {
      net::Reader r(m.payload);
      uint32_t b;
      while (r.GetU32(&b)) requester_cached.insert(b);
    }
    // The taken rows regrouped by bucket (a stolen piece's rows all fall
    // in its one bucket).
    std::vector<Batch> pieces(opt.buckets);
    std::vector<uint32_t> hit;
    const uint32_t probe_col = jn_probe_col[g];
    int64_t taken = 0;
    for (uint32_t t = 0; t < T && taken < opt.steal_batch; ++t) {
      Activation act;
      while (taken < opt.steal_batch &&
             ns.queues[op * T + t]->TryPopBack(&act)) {
        ++taken;
        for (size_t i = 0; i < act.rows.rows(); ++i) {
          const int64_t* row = act.rows.row(i);
          const uint32_t bucket = static_cast<uint32_t>(
              mt::HashKey(row[probe_col]) % opt.buckets);
          Batch& p = pieces[bucket];
          if (p.width() == 0) {
            p = Batch(act.rows.width());
            hit.push_back(bucket);
          }
          p.AppendRow(row);
        }
      }
    }
    net::RowWorkBundle bundle;
    bundle.op = op;
    for (uint32_t bucket : hit) {
      // Locate the bucket's build rows: the local table when the bucket
      // is homed here, or our own stolen-fragment cache when the rows
      // were themselves acquired earlier.
      const RowTable* table = nullptr;
      if (home_of(bucket) == node) {
        table = JoinTables(ns, g) + bucket;
      } else {
        std::shared_lock<std::shared_mutex> lock(*ns.stolen_mu[g]);
        auto it = ns.stolen[g].find(bucket);
        if (it != ns.stolen[g].end()) table = it->second.get();
      }
      if (table == nullptr) {
        // Cannot supply the hash table: keep the rows local.
        ns.pending[op].fetch_add(1);
        Enqueue(ns,
                Activation{op, bucket, QueueColumn(ns, op, bucket, 0),
                           std::move(pieces[bucket])},
                &ns.route_overflow);
        continue;
      }
      if (requester_cached.count(bucket)) {
        ns.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::kCacheHit;
          ev.node = static_cast<int32_t>(node);
          ev.op = static_cast<int32_t>(op);
          ev.start_ns = ev.end_ns = trace->NowNs();
          ev.detail = bucket;
          trace->Record(slot_of(node, 0), ev);
        }
      } else {
        net::RowFragment frag;
        frag.bucket = bucket;
        frag.build_rows = Batch(table->width());
        frag.build_rows.data() = table->pool();
        ns.shipped_rows.fetch_add(table->rows());
        bundle.fragments.push_back(std::move(frag));
      }
      net::RowActivation ra;
      ra.bucket = bucket;
      ra.rows = std::move(pieces[bucket]);
      bundle.activations.push_back(std::move(ra));
    }
    ns.pending[op].fetch_sub(taken);
    Message reply;
    if (bundle.activations.empty()) {
      reply.type = MsgType::kNoWork;
      reply.arg = 1;  // acquire stage
      fabric.Send(node, m.from, std::move(reply)).ok();
      return;
    }
    reply.type = MsgType::kWork;
    reply.op = op;
    reply.arg = static_cast<uint64_t>(taken);
    reply.payload = net::EncodeRowWork(bundle);
    fabric.Send(node, m.from, std::move(reply)).ok();
  }

  // ------------------------------------------------------------------
  // Distributed aggregation (runs after the chain DAG terminated).
  //
  // Phase 1 already happened inside the chain run: every worker folded
  // the final-chain rows it produced into its private partial table
  // (NodeState::agg_partials), so the join result was never buffered.
  // Phase A here repartitions those partials by group-key hash —
  // partition p is homed at node p % nodes — shipping remote partitions
  // as kTupleBatch messages (partial rows are flat int64 rows, so the
  // join dataflow's encoding carries them verbatim). Phase B (after
  // every node finished sending): each node merges its own partitions
  // plus everything in its mailbox and finalizes the disjoint group set
  // it owns. The SpawnWorkers calls run on the same ExecContext as the
  // main run, so the pool and the stop token cover aggregation
  // unchanged.
  Status RunDistributedAgg(std::vector<Batch>* agg_out,
                           std::vector<ResultDigest>* agg_digests,
                           uint64_t* partial_entries) {
    const uint32_t N = opt.nodes;
    // Partition count: bounded like the thread backend's merge (every
    // partition re-scans the partial tables), never below the node count.
    const uint32_t P = std::max(
        N, std::min(opt.buckets, std::max(16u, 4 * opt.threads)));
    const uint32_t agg_op = nops;  // sentinel op id for traffic accounting
    std::vector<std::vector<Batch>> kept(N);  // locally homed partitions
    std::atomic<bool> agg_cancelled{false};

    for (const auto& ns : node_state) {
      for (const mt::AggTable& t : ns->agg_partials) {
        *partial_entries += t.groups();
      }
    }

    ctx->SpawnWorkers(N, [&](uint32_t n) {
      NodeState& ns = *node_state[n];
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      uint64_t repart = 0;
      for (uint32_t p = 0; p < P; ++p) {
        if (ctx->StopRequested()) {
          agg_cancelled.store(true);
          return;
        }
        Batch part;
        for (const mt::AggTable& t : ns.agg_partials) {
          t.EmitPartials(p, P, &part);
        }
        if (part.rows() == 0) continue;
        uint32_t home = p % N;
        if (home == n) {
          kept[n].push_back(std::move(part));
        } else {
          ns.agg_repart_rows.fetch_add(part.rows(),
                                       std::memory_order_relaxed);
          repart += part.rows();
          Message m;
          m.type = MsgType::kTupleBatch;
          m.op = agg_op;
          m.bucket = p;
          m.payload = net::EncodeBatch(part);
          fabric.Send(n, home, std::move(m)).ok();
        }
      }
      // One span per node for the repartition phase (the agg sentinel op;
      // these bodies run on arbitrary pool threads, hence RecordShared).
      if (trace != nullptr) {
        obs::TraceEvent ev;
        ev.node = static_cast<int32_t>(n);
        ev.op = static_cast<int32_t>(agg_op);
        ev.start_ns = tr0;
        ev.end_ns = trace->NowNs();
        ev.activations = 1;
        ev.rows_out = repart;
        ev.detail = ev.end_ns - ev.start_ns;
        trace->RecordShared(ev);
      }
    });
    if (agg_cancelled.load() || ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during aggregation");
    }

    // Every node finished sending (the SpawnWorkers barrier), so each
    // mailbox now holds all partials its node will ever receive.
    ctx->SpawnWorkers(N, [&](uint32_t n) {
      NodeState& ns = *node_state[n];
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      mt::AggTable merged(agg);
      for (const Batch& part : kept[n]) {
        for (size_t i = 0; i < part.rows(); ++i) {
          merged.MergePartial(part.row(i));
        }
      }
      Message m;
      while (fabric.mailbox(n).TryPop(&m)) {
        if (ctx->StopRequested()) {
          agg_cancelled.store(true);
          return;
        }
        // Stale end-of-run protocol messages may linger; only the agg
        // sentinel batches matter here.
        if (m.type != MsgType::kTupleBatch || m.op != agg_op) continue;
        if (IsDuplicate(ns, m)) continue;
        auto rows = net::DecodeBatch(m.payload);
        if (!rows.ok()) {
          ns.failed.store(true);
          return;
        }
        for (size_t i = 0; i < rows.value().rows(); ++i) {
          merged.MergePartial(rows.value().row(i));
        }
      }
      merged.EmitFinal(&(*agg_out)[n], &(*agg_digests)[n]);
      if (trace != nullptr) {
        obs::TraceEvent ev;
        ev.node = static_cast<int32_t>(n);
        ev.op = static_cast<int32_t>(agg_op);
        ev.start_ns = tr0;
        ev.end_ns = trace->NowNs();
        ev.activations = 1;
        ev.rows_out = (*agg_out)[n].rows();
        ev.detail = ev.end_ns - ev.start_ns;
        trace->RecordShared(ev);
      }
    });
    if (agg_cancelled.load() || ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during aggregation");
    }
    return Status::OK();
  }

  void HandleWork(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    auto bundle = net::DecodeRowWork(m.payload);
    if (!bundle.ok()) {
      ns.failed.store(true);
      ns.steal_inflight.fetch_sub(1);
      ns.steal_in_progress = false;
      return;
    }
    uint32_t op = bundle.value().op;
    uint32_t g = join_of(op);
    if (ns.drain_acked[op]) {
      ns.late_steals.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::unique_lock<std::shared_mutex> lock(*ns.stolen_mu[g]);
      for (auto& frag : bundle.value().fragments) {
        if (ns.stolen[g].count(frag.bucket)) continue;
        auto table = std::make_unique<RowTable>(frag.build_rows.width(),
                                                jn_build_col[g]);
        table->InsertBatch(frag.build_rows);
        ns.stolen[g][frag.bucket] = std::move(table);
        ns.cached_buckets[g].insert(frag.bucket);
      }
    }
    // m.arg: the provider's queued activations this bundle carries.
    ns.steals.fetch_add(1, std::memory_order_relaxed);
    ns.stolen_acts.fetch_add(m.arg, std::memory_order_relaxed);
    if (trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSteal;
      ev.node = static_cast<int32_t>(node);
      ev.op = static_cast<int32_t>(op);
      ev.start_ns = ev.end_ns = trace->NowNs();
      ev.detail = m.arg;
      trace->Record(slot_of(node, 0), ev);
    }
    if (opt.recorder != nullptr) {
      opt.recorder->Instant(obs::EventKind::kSteal, opt.recorder_query,
                            m.arg, static_cast<int32_t>(node));
    }
    for (auto& ra : bundle.value().activations) {
      ns.pending[op].fetch_add(1);
      Enqueue(ns,
              Activation{op, ra.bucket, QueueColumn(ns, op, ra.bucket, 0),
                         std::move(ra.rows)},
              &ns.route_overflow);
    }
    ns.steal_inflight.fetch_sub(1);
    ns.steal_in_progress = false;
  }
};

ClusterExecutor::ClusterExecutor(const ClusterOptions& options)
    : options_(options) {
  HIERDB_CHECK(options_.nodes > 0, "need at least one node");
  HIERDB_CHECK(options_.threads > 0, "need at least one thread");
  HIERDB_CHECK(options_.buckets >= options_.nodes,
               "need at least one bucket per node");
  HIERDB_CHECK(options_.strategy != LocalStrategy::kSP,
               "SP is shared-memory only (Section 5.2)");
}

ClusterExecutor::~ClusterExecutor() = default;

uint32_t ClusterExecutor::CompiledOpCount(const PlanQuery& query) {
  uint32_t nops = 0;
  for (const mt::Chain& c : query.plan.chains) {
    nops += 3 * static_cast<uint32_t>(c.joins.size()) + 1;
  }
  return nops;
}

Result<ResultDigest> ClusterExecutor::Execute(const PlanQuery& query,
                                              ClusterStats* stats,
                                              mt::Batch* materialized) {
  HIERDB_RETURN_NOT_OK(query.Validate(options_.nodes));
  impl_ = std::make_unique<Impl>(options_);
  Impl& im = *impl_;
  im.materialize_final = materialized != nullptr;
  ThreadSpawnContext fallback_ctx;
  im.ctx = options_.ctx != nullptr ? options_.ctx : &fallback_ctx;
  const uint64_t faults_before = options_.injector != nullptr
                                     ? options_.injector->counters().total()
                                     : 0;
  im.Compile(query);

  // Rent one body per node scheduler plus one per node worker; slot k
  // maps to node k / (T+1), role k % (T+1) (0 = scheduler).
  // Gang mode: the node loops are mutually dependent (no body exits until
  // the query terminates globally), so every body needs its own thread.
  const uint32_t per_node = options_.threads + 1;
  im.ctx->SpawnWorkers(
      options_.nodes * per_node,
      [&im, per_node](uint32_t k) {
        const uint32_t node = k / per_node;
        const uint32_t role = k % per_node;
        if (role == 0) {
          im.SchedulerLoop(node);
        } else {
          im.WorkerLoop(node, role - 1);
        }
      },
      /*gang=*/true);

  // Every gang body has exited, so the span cells are complete; emitting
  // here covers the cancelled and failed exits below too.
  im.EmitTraceCells();

  // Detection outranks the cancellation it triggers: a run torn down by
  // the liveness or progress watchdog reports the diagnosis, not the
  // teardown mechanism.
  if (im.unavailable.load()) {
    std::string msg;
    {
      std::lock_guard<std::mutex> lock(im.fail_mu);
      msg = im.unavailable_msg;
    }
    impl_.reset();
    return Status::Unavailable(std::move(msg));
  }
  if (im.cancelled.load()) {
    impl_.reset();
    return Status::Cancelled("query cancelled during execution");
  }
  bool failed = false;
  for (auto& ns : im.node_state) failed |= ns->failed.load();
  if (failed) {
    impl_.reset();
    return Status::Internal("cluster execution failed");
  }

  // Distributed aggregation over the final chain's kept rows. Runs before
  // the stats snapshot so its repartition traffic is accounted.
  std::vector<Batch> agg_out(options_.nodes);
  std::vector<ResultDigest> agg_digests(options_.nodes);
  uint64_t agg_partial_entries = 0;
  if (im.agg != nullptr) {
    Status st = im.RunDistributedAgg(&agg_out, &agg_digests,
                                     &agg_partial_entries);
    if (!st.ok()) {
      impl_.reset();
      return st;
    }
    for (auto& ns : im.node_state) failed |= ns->failed.load();
    if (failed) {
      impl_.reset();
      return Status::Internal("cluster aggregation failed");
    }
  }

  // A run that terminated despite losing messages cannot vouch for its
  // digest (a dropped kTupleBatch silently loses rows): refuse to report
  // success. This keeps the chaos invariant success => digest-identical.
  {
    net::FabricStats fs = im.fabric.stats();
    if (fs.dropped > 0) {
      uint64_t dropped = fs.dropped;
      impl_.reset();
      return Status::Unavailable(std::to_string(dropped) +
                                 " message(s) lost in transit");
    }
  }

  ResultDigest digest;
  for (auto& ns : im.node_state) {
    for (const auto& d : ns->digests) digest.Merge(d);
  }
  for (const auto& d : agg_digests) digest.Merge(d);
  if (stats != nullptr) {
    *stats = ClusterStats{};
    stats->fabric = im.fabric.stats();
    auto type_bytes = [&](MsgType t) {
      return stats->fabric.bytes_by_type[static_cast<size_t>(t)];
    };
    stats->lb_bytes = type_bytes(MsgType::kStarving) +
                      type_bytes(MsgType::kOffer) +
                      type_bytes(MsgType::kNoWork) +
                      type_bytes(MsgType::kAcquire) +
                      type_bytes(MsgType::kWork);
    stats->dataflow_bytes = type_bytes(MsgType::kTupleBatch);
    stats->protocol_bytes = type_bytes(MsgType::kEndOfQueuesAtNode) +
                            type_bytes(MsgType::kDrainConfirm) +
                            type_bytes(MsgType::kOpTerminated);
    for (auto& ns : im.node_state) {
      stats->steal_requests += ns->steal_reqs.load();
      stats->steals += ns->steals.load();
      stats->late_steals += ns->late_steals.load();
      stats->stolen_activations += ns->stolen_acts.load();
      stats->shipped_fragment_rows += ns->shipped_rows.load();
      stats->fragment_cache_hits += ns->cache_hits.load();
      stats->rows_filtered += ns->filtered.load();
      stats->agg_repartition_rows += ns->agg_repart_rows.load();
      stats->idle_waits_per_node.push_back(ns->idle.load());
      uint64_t busy = 0;
      for (uint64_t b : ns->busy) busy += b;
      stats->busy_per_node.push_back(busy);
    }
    if (options_.injector != nullptr) {
      stats->faults = options_.injector->counters();
    }
    stats->dup_messages_dropped = im.dup_dropped.load();
    stats->build_cache_hits = im.builds.hits;
    stats->build_cache_misses = im.builds.misses;
    stats->chain_reused = im.builds.chain_reused;
    if (im.agg != nullptr) {
      stats->agg_partials = agg_partial_entries;
      for (const auto& d : agg_digests) stats->agg_groups += d.count;
      // The agg sentinel op's kTupleBatch bytes are the repartition wire
      // traffic (also counted in dataflow_bytes).
      if (im.nops < stats->fabric.tuple_bytes_by_op.size()) {
        stats->agg_repartition_bytes =
            stats->fabric.tuple_bytes_by_op[im.nops];
      }
    }
    // Distributed intermediates: size per chain, repartition traffic
    // attributed through the per-op kTupleBatch accounting.
    const uint32_t C = static_cast<uint32_t>(im.chains.size());
    stats->per_chain.assign(C, {});
    stats->rows_per_chain.assign(C, 0);
    const uint32_t T = options_.threads;
    for (uint32_t c = 0; c < C; ++c) {
      for (auto& ns : im.node_state) {
        for (uint32_t t = 0; t < T; ++t) {
          stats->rows_per_chain[c] += ns->chain_rows[c * T + t];
        }
      }
    }
    for (uint32_t c = 0; c < C; ++c) {
      auto& pc = stats->per_chain[c];
      for (auto& ns : im.node_state) {
        // The final chain's inter[] slot holds the materialized result
        // (when requested), not a distributed intermediate: keep the
        // documented all-zero final entry.
        if (c + 1 < C) {
          pc.intermediate_rows += ns->inter[c].rows();
          pc.intermediate_bytes += ns->inter[c].bytes();
        }
        pc.repartition_rows += ns->repart_rows[c].load();
      }
      for (uint32_t dst : im.repart_dst_ops[c]) {
        if (dst < stats->fabric.tuple_bytes_by_op.size()) {
          pc.repartition_bytes += stats->fabric.tuple_bytes_by_op[dst];
        }
      }
      stats->intermediate_rows += pc.intermediate_rows;
      stats->intermediate_bytes += pc.intermediate_bytes;
    }
  }
  if (materialized != nullptr) {
    if (im.agg != nullptr) {
      // Aggregated plans gather each node's finalized group rows.
      Batch out(im.agg->OutputWidth());
      for (Batch& part : agg_out) {
        out.data().insert(out.data().end(), part.data().begin(),
                          part.data().end());
      }
      *materialized = std::move(out);
    } else {
      // Gather each node's share of the final chain's rows (the
      // tuple-batch collection): plain concatenation — the digest is
      // order-independent.
      const uint32_t last = static_cast<uint32_t>(im.chains.size()) - 1;
      Batch out(im.chains[last].out_width);
      size_t total = 0;
      for (auto& ns : im.node_state) total += ns->inter[last].rows();
      out.Reserve(total);
      for (auto& ns : im.node_state) {
        out.data().insert(out.data().end(), ns->inter[last].data().begin(),
                          ns->inter[last].data().end());
      }
      *materialized = std::move(out);
    }
  }
  // Only a run that no fault touched publishes its builds (~Impl abandons
  // the rest): a faulted run that still returned a digest vouches for its
  // answer, not for a shared entry every later query would read.
  if (options_.injector == nullptr ||
      options_.injector->counters().total() == faults_before) {
    im.PublishBuilds();
  }
  impl_.reset();
  return digest;
}

}  // namespace hierdb::cluster
