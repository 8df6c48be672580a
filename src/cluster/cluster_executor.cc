#include "cluster/cluster_executor.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/zipf.h"
#include "mt/node_engine.h"
#include "mt/row_table.h"
#include "net/message.h"

namespace hierdb::cluster {

using mt::Batch;
using mt::LocalStrategy;
using mt::NodeEngine;
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
  return mt::MaxOverMean(busy_per_node);
}

// ---------------------------------------------------------------------
// Implementation: N node engines under the inter-node layer.

namespace {

constexpr uint32_t kAnyOp = UINT32_MAX;

}  // namespace

struct ClusterExecutor::Impl {
  const ClusterOptions& opt;
  const PlanQuery* query = nullptr;
  uint32_t nops = 0;
  net::Fabric fabric;

  // Worker provider + cooperative cancellation for this run.
  ExecContext* ctx = nullptr;
  std::atomic<bool> cancelled{false};

  // Build-side reuse (mt::ResolveBuilds against opt.build_cache, never
  // waiting on another query's build). The engines start a hit
  // join's buildscan and build, and every op of an elided chain,
  // terminated with no end-detection round. A builder entry is published
  // after a successful run (PublishBuilds) and abandoned by every other
  // (~Impl).
  mt::ResolvedBuilds builds;

  // Repartition accounting: the ops that receive a chain's rescattered
  // intermediate, per source chain, and per op the chain it receives
  // from (-1: none).
  std::vector<std::vector<uint32_t>> repart_dst_ops;
  std::vector<int32_t> repart_src;

  // ---- tracing: the recorder when it traces this query, else null ----
  obs::FlightRecorder* trace = nullptr;

  // ---- fault detection state ----
  // Message faults are only forwarded to the fabric when detection is on:
  // without the watchdog a dropped message is an undetectable hang or a
  // silently wrong digest.
  std::atomic<bool> unavailable{false};
  std::mutex fail_mu;
  std::string unavailable_msg;
  /// Global progress clock: bumped on every handled message and every
  /// executed activation/morsel (only when detection is on). Node 0's
  /// scheduler step watches it; no movement past the liveness timeout
  /// while the query is unfinished means termination can no longer be
  /// reached (the dropped-message case where every node is still alive).
  std::atomic<uint64_t> progress{0};
  std::atomic<uint64_t> dup_dropped{0};
  // The watchdog's last reading, owned by node 0's step.
  uint64_t last_progress = 0;
  uint64_t progress_since = 0;

  static uint64_t MonoNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// One SM-node: its engine, and the inter-node state its scheduler
  /// owns. The node is its engine's link: remote batches leave through
  /// the fabric, stolen fragments come from the node's cache, and idle
  /// passes mark the node starving for global load balancing.
  ///
  /// Neither the scheduler nor a worker is a thread. The scheduler is a
  /// step (SchedulerStep) any body may run under the `stepping` claim;
  /// worker t is an identity a body holds (`held[t]`) for a run of
  /// passes. Either way the state behind it has one owner at a time.
  struct Node final : NodeEngine::Link {
    Impl* im = nullptr;
    uint32_t id = 0;
    std::unique_ptr<NodeEngine> engine;
    std::vector<std::atomic<bool>> held;

    // Scheduler-step state (owned by the body holding `stepping`).
    std::atomic<bool> stepping{false};
    /// Set by the step that sees the engine done and its inbox empty; no
    /// step runs after it.
    std::atomic<bool> finished{false};
    uint64_t polls = 0;
    /// An injected stall or crash skips the node's steps until this time
    /// (UINT64_MAX: until teardown).
    uint64_t silent_until = 0;
    uint64_t last_hb_sent = 0;
    std::vector<uint64_t> last_heard;

    // Global load balancing (scheduler-owned unless noted).
    std::atomic<bool> starving{false};           // DP: set by workers
    std::vector<std::atomic<bool>> fp_starving;  // FP: per op
    std::atomic<int64_t> steal_inflight{0};
    bool steal_in_progress = false;
    uint32_t offers_pending = 0;
    uint32_t best_provider = UINT32_MAX;
    uint32_t best_op = kAnyOp;
    uint64_t best_count = 0;

    // Stolen fragments: [join] -> bucket -> table, and the buckets whose
    // fragments we cached, per join (the Section 4 list).
    std::vector<std::unordered_map<uint32_t, std::unique_ptr<RowTable>>>
        stolen;
    std::vector<std::unique_ptr<std::shared_mutex>> stolen_mu;
    std::vector<std::unordered_set<uint32_t>> cached_buckets;

    // End detection (scheduler-owned).
    std::vector<bool> reported;
    std::vector<bool> drain_requested;
    std::vector<bool> drain_acked;

    // Per-sender message sequence numbers already handled (populated only
    // when duplication faults are armed).
    std::vector<std::unordered_set<uint64_t>> seen_seq;

    // Intermediate rows this node shipped to a remote home while
    // repartitioning, per source chain.
    std::vector<std::atomic<uint64_t>> repart_rows;

    std::atomic<uint64_t> stolen_acts{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> late_steals{0};
    std::atomic<uint64_t> steal_reqs{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> shipped_rows{0};
    std::atomic<uint64_t> agg_repart_rows{0};

    // The scheduler checks Drained for every unreported op (CheckReports):
    // a steal in flight holds a report back, so a drain is not final
    // until the scheduler sees it.
    void OnDrained(uint32_t) override {}

    void Ship(uint32_t dest, uint32_t op, uint32_t bucket,
              Batch&& rows) override {
      im->Ship(*this, dest, op, bucket, std::move(rows));
    }

    const RowTable* Fragment(uint32_t join, uint32_t bucket) override {
      std::shared_lock<std::shared_mutex> lock(*stolen_mu[join]);
      auto it = stolen[join].find(bucket);
      return it != stolen[join].end() ? it->second.get() : nullptr;
    }

    void Stop() override { im->CancelAll(); }

    void AfterPass(uint32_t slot, bool ran) override {
      if (ran) {
        starving.store(false, std::memory_order_relaxed);
        if (im->opt.detect_faults) {
          im->progress.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        im->MarkStarving(*this, slot);
      }
    }

    // What unblocks stuck pushes may be a step or another slot's work:
    // step the schedulers, then let the body move on to other identities.
    bool WhileStuck(uint32_t) override {
      im->StepNodes(id);
      return false;
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;

  // Coordinator (node 0) bookkeeping.
  std::vector<uint32_t> coord_reports;
  std::vector<uint32_t> coord_acks;
  std::vector<bool> coord_drain;
  std::vector<bool> coord_terminated;

  explicit Impl(const ClusterOptions& o)
      : opt(o),
        fabric({.nodes = o.nodes,
                .injector = o.detect_faults ? o.injector : nullptr,
                .recorder = o.recorder,
                .recorder_query = o.recorder_query}) {}
  ~Impl() { builds.AbandonPending(opt.build_cache); }

  // ------------------------------------------------------------------
  // Setup.

  void Setup(const PlanQuery& q, bool materialize_final) {
    query = &q;
    const mt::PipelinePlan& plan = q.plan;
    const uint32_t C = static_cast<uint32_t>(plan.chains.size());
    nops = mt::CompiledOpCount(plan);
    builds = mt::ResolveBuilds(opt, plan, /*may_wait=*/false);

    repart_dst_ops.assign(C, {});
    repart_src.assign(nops, -1);
    const std::vector<uint32_t> base = mt::ChainOpBases(plan);
    for (uint32_t c = 0; c < C; ++c) {
      const mt::Chain& chain = plan.chains[c];
      const uint32_t k = static_cast<uint32_t>(chain.joins.size());
      if (chain.input.kind == mt::Source::Kind::kChain) {
        repart_dst_ops[chain.input.index].push_back(base[c] + 2 * k + 1);
      }
      for (uint32_t j = 0; j < k; ++j) {
        const mt::Source& b = chain.joins[j].build;
        if (b.kind == mt::Source::Kind::kChain) {
          repart_dst_ops[b.index].push_back(base[c] + k + j);
        }
      }
    }
    for (uint32_t c = 0; c < C; ++c) {
      for (uint32_t op : repart_dst_ops[c]) {
        repart_src[op] = static_cast<int32_t>(c);
      }
    }

    std::vector<uint32_t> widths;
    for (const PartitionedTable* t : q.tables) widths.push_back(t->width);
    if (opt.recorder != nullptr &&
        opt.recorder->Tracing(opt.recorder_query)) {
      trace = opt.recorder;
    }
    nodes.clear();
    for (uint32_t n = 0; n < opt.nodes; ++n) {
      auto node = std::make_unique<Node>();
      node->im = this;
      node->id = n;
      std::vector<const Batch*> rows;
      for (const PartitionedTable* t : q.tables) rows.push_back(&t->parts[n]);
      NodeEngine::Config cfg;
      cfg.node = n;
      cfg.nodes = opt.nodes;
      cfg.keep_final = materialize_final;
      node->engine = std::make_unique<NodeEngine>(
          opt, plan, std::move(rows), widths, &builds, cfg, node.get());
      const NodeEngine& e = *node->engine;
      node->fp_starving = std::vector<std::atomic<bool>>(nops);
      for (auto& f : node->fp_starving) f.store(false);
      node->stolen.resize(e.njoins());
      node->stolen_mu.resize(e.njoins());
      for (auto& mu : node->stolen_mu) {
        mu = std::make_unique<std::shared_mutex>();
      }
      node->cached_buckets.resize(e.njoins());
      node->reported.resize(nops);
      for (uint32_t op = 0; op < nops; ++op) {
        node->reported[op] = e.Terminated(op);
      }
      node->drain_requested.assign(nops, false);
      node->drain_acked.assign(nops, false);
      node->seen_seq.resize(opt.nodes);
      node->held = std::vector<std::atomic<bool>>(opt.threads);
      node->last_heard.assign(opt.nodes, opt.detect_faults ? MonoNs() : 0);
      node->repart_rows = std::vector<std::atomic<uint64_t>>(C);
      for (auto& r : node->repart_rows) r.store(0);
      nodes.push_back(std::move(node));
    }
    coord_reports.assign(nops, 0);
    coord_acks.assign(nops, 0);
    coord_drain.assign(nops, false);
    coord_terminated = nodes[0]->reported;
    progress_since = opt.detect_faults ? MonoNs() : 0;
  }

  /// Moves every node's home buckets of each join this run builds for
  /// the cache, and each node's index over them, into one B-bucket entry
  /// and publishes it. Only after a successful run: the tables are
  /// complete once the chains terminated. Moving a table keeps its pool,
  /// so the indexes' row pointers stay valid.
  void PublishBuilds() {
    const uint32_t N = opt.nodes;
    for (uint32_t g = 0; g < builds.publish.size(); ++g) {
      if (!builds.publish[g]) continue;
      builds.publish[g] = 0;
      auto entry = std::make_shared<mt::JoinBuild>();
      entry->tables.resize(opt.buckets);
      entry->dense.resize(N);
      for (uint32_t n = 0; n < N; ++n) {
        mt::BucketTables local = nodes[n]->engine->TakeTables(g);
        for (uint32_t b = n; b < opt.buckets; b += N) {
          entry->tables[b] = std::move(local[b]);
        }
        entry->dense[n] = nodes[n]->engine->TakeIndex(g);
      }
      opt.build_cache->Publish(builds.keys[g], std::move(entry));
    }
  }

  /// First stop-observer tears the whole run down: every node's engine
  /// stops its passes, and bodies exit on `cancelled`.
  void CancelAll() {
    cancelled.store(true, std::memory_order_release);
    for (auto& node : nodes) node->engine->Cancel();
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

  /// Duplicate suppression for injected message duplication: Send stamps
  /// a per-sender sequence number, the receiving scheduler drops repeats.
  /// Only consulted when duplication is armed, so the normal path stays a
  /// pointer check.
  bool IsDuplicate(Node& node, const Message& m) {
    if (opt.injector == nullptr || opt.injector->plan().dup_prob <= 0.0 ||
        m.seq == 0) {
      return false;
    }
    if (!node.seen_seq[m.from].insert(m.seq).second) {
      dup_dropped.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // ------------------------------------------------------------------
  // Dataflow between nodes.

  // Ships one data activation to a remote node as one kTupleBatch message
  // (the inter-node pipelined redistribution), counting a chain
  // intermediate's rows as repartition traffic. The fabric records the
  // send (kFabricSend).
  void Ship(Node& node, uint32_t dest, uint32_t op, uint32_t bucket,
            Batch&& rows) {
    if (repart_src[op] >= 0) {
      node.repart_rows[repart_src[op]].fetch_add(rows.rows(),
                                                 std::memory_order_relaxed);
    }
    Message m;
    m.type = MsgType::kTupleBatch;
    m.op = op;
    m.bucket = bucket;
    m.payload = net::EncodeBatch(rows);
    fabric.Send(node.id, dest, std::move(m)).ok();
  }

  void MarkStarving(Node& node, uint32_t slot) {
    const NodeEngine& e = *node.engine;
    if (opt.strategy == LocalStrategy::kFP) {
      // FP: the thread's probe operator has no local work.
      for (uint32_t op : e.probe_ops()) {
        if (e.MayRun(slot, op) && e.Consumable(op) && !e.Terminated(op)) {
          node.fp_starving[op].store(true, std::memory_order_relaxed);
        }
      }
    } else {
      node.starving.store(true, std::memory_order_relaxed);
    }
  }

  // ------------------------------------------------------------------
  // The team: N x T symmetric bodies.
  //
  // A body first tries its home node's identities, then every other
  // node's, and runs passes on each one it claims while they find work;
  // between passes it steps every node's scheduler no other body is
  // stepping. So any single body, run alone, completes the query, and a
  // node still runs at most T workers at once.

  void Body(uint32_t k) {
    const uint32_t N = opt.nodes;
    const uint32_t T = opt.threads;
    const uint32_t home = k / T;
    while (true) {
      if (ctx->StopRequested()) CancelAll();
      if (cancelled.load(std::memory_order_acquire) ||
          std::all_of(nodes.begin(), nodes.end(), [](const auto& n) {
            return n->finished.load(std::memory_order_acquire);
          })) {
        return;
      }
      bool worked = StepNodes(home);
      for (uint32_t i = 0; i < N; ++i) {
        Node& node = *nodes[(home + i) % N];
        for (uint32_t j = 0; j < T; ++j) {
          const uint32_t slot = (k + j) % T;
          if (node.held[slot].exchange(true, std::memory_order_acquire)) {
            continue;
          }
          while (node.engine->Pass(slot)) {
            worked = true;
            StepNodes(home);
          }
          node.held[slot].store(false, std::memory_order_release);
        }
      }
      if (!worked && !ctx->Park()) nodes[home]->engine->Nap();
    }
  }

  /// Steps each unfinished node no other body is stepping, `first` first,
  /// waking the node's napping bodies when its step worked. Returns
  /// whether any step worked.
  bool StepNodes(uint32_t first) {
    bool worked = false;
    for (uint32_t i = 0; i < opt.nodes; ++i) {
      Node& node = *nodes[(first + i) % opt.nodes];
      if (node.finished.load(std::memory_order_acquire) ||
          node.stepping.exchange(true, std::memory_order_acquire)) {
        continue;
      }
      if (SchedulerStep(node)) {
        worked = true;
        node.engine->Wake();
      }
      node.stepping.store(false, std::memory_order_release);
    }
    return worked;
  }

  // One step of a node's scheduler (node 0 doubles as coordinator):
  // fabric delivery, end detection, global load balancing and liveness.
  // Returns whether it did work (heartbeats and suppressed duplicates
  // don't count).
  bool SchedulerStep(Node& node) {
    const uint32_t id = node.id;
    NodeEngine& engine = *node.engine;
    const bool detect = opt.detect_faults;
    // Node faults only fire where detection can catch them; otherwise an
    // injected stall is a guaranteed hang, not a test. A stalled or
    // crashed node skips its steps while its workers run on; peers detect
    // the silence through heartbeats.
    if (opt.injector != nullptr && detect && opt.nodes > 1) {
      if (node.silent_until != 0) {
        if (MonoNs() < node.silent_until) return false;
        node.silent_until = 0;
      } else if (opt.injector->ShouldCrashNode(static_cast<int>(id),
                                               node.polls)) {
        node.silent_until = UINT64_MAX;
        return false;
      } else if (opt.injector->ShouldStallNode(static_cast<int>(id),
                                               node.polls)) {
        const uint64_t ms = opt.injector->plan().stall_ms;
        node.silent_until = ms == 0 ? UINT64_MAX : MonoNs() + ms * 1'000'000;
        return false;
      }
    }
    ++node.polls;
    const uint64_t now = detect ? MonoNs() : 0;
    // 1. Queue arrivals that found full queues earlier.
    bool worked = engine.FlushInbox();
    // 2. Drain the mailbox.
    Message m;
    while (fabric.mailbox(id).TryPop(&m)) {
      if (detect && m.from < node.last_heard.size()) {
        node.last_heard[m.from] = now;
      }
      if (m.type == MsgType::kHeartbeat || IsDuplicate(node, m)) continue;
      HandleMessage(id, std::move(m));
      if (detect) progress.fetch_add(1, std::memory_order_relaxed);
      worked = true;
    }
    // 3. End-detection reports.
    worked |= CheckReports(node);
    // 4. Global load balancing.
    if (opt.global_lb) worked |= CheckStarving(node);
    // 5. Liveness: announce ourselves, suspect silent peers, and (node
    // 0) watch the global progress clock.
    if (detect) {
      const uint64_t timeout_ns =
          uint64_t{opt.liveness_timeout_ms} * 1'000'000;
      if (now - node.last_hb_sent >= uint64_t{opt.heartbeat_us} * 1000) {
        node.last_hb_sent = now;
        Message hb;
        hb.type = MsgType::kHeartbeat;
        fabric.Broadcast(id, hb).ok();
      }
      for (uint32_t p = 0; p < opt.nodes; ++p) {
        if (p == id || now - node.last_heard[p] <= timeout_ns) continue;
        if (opt.recorder != nullptr) {
          opt.recorder->Instant(obs::EventKind::kHeartbeatMiss,
                                opt.recorder_query, now - node.last_heard[p],
                                static_cast<int32_t>(p));
        }
        FailUnavailable("node " + std::to_string(p) +
                        " unresponsive (no message for " +
                        std::to_string(opt.liveness_timeout_ms) +
                        " ms; suspected stall or crash)");
        return worked;
      }
      if (id == 0) {
        const uint64_t cur = progress.load(std::memory_order_relaxed);
        if (cur != last_progress) {
          last_progress = cur;
          progress_since = now;
        } else if (now - progress_since > timeout_ns) {
          if (opt.recorder != nullptr) {
            opt.recorder->Instant(obs::EventKind::kHeartbeatMiss,
                                  opt.recorder_query, now - progress_since,
                                  static_cast<int32_t>(id));
          }
          FailUnavailable("cluster made no progress for " +
                          std::to_string(opt.liveness_timeout_ms) +
                          " ms (suspected message loss)");
          return worked;
        }
      }
    }
    if (engine.Done() && engine.InboxEmpty()) {
      node.finished.store(true, std::memory_order_release);
    }
    return worked;
  }

  // EndOfQueuesAtNode once an op drained here, and the drain ack once
  // the coordinator asks and it is (still) drained. A data op's report
  // and ack wait for this node's steal in flight: its work may still
  // arrive.
  bool CheckReports(Node& node) {
    const NodeEngine& e = *node.engine;
    const bool steal_settled = node.steal_inflight.load() == 0;
    bool acted = false;
    for (uint32_t op = 0; op < nops; ++op) {
      const bool reported = node.reported[op];
      const bool ack = node.drain_requested[op] && !node.drain_acked[op];
      if (reported && !ack) continue;
      if (!e.Drained(op) || (!e.IsTrigger(op) && !steal_settled)) continue;
      if (!reported) {
        node.reported[op] = true;
        SendToCoordinator(node.id, MsgType::kEndOfQueuesAtNode, op, 0);
        acted = true;
      } else {
        node.drain_acked[op] = true;
        SendToCoordinator(node.id, MsgType::kDrainConfirm, op, 1);
        acted = true;
      }
    }
    return acted;
  }

  bool CheckStarving(Node& node) {
    const NodeEngine& e = *node.engine;
    if (node.steal_in_progress) return false;
    uint32_t want_op = kAnyOp;
    if (opt.strategy == LocalStrategy::kFP) {
      for (uint32_t op : e.probe_ops()) {
        if (node.fp_starving[op].load(std::memory_order_relaxed) &&
            !e.Terminated(op)) {
          want_op = op;
          node.fp_starving[op].store(false, std::memory_order_relaxed);
          break;
        }
      }
      if (want_op == kAnyOp) return false;
    } else {
      if (!node.starving.load(std::memory_order_relaxed)) return false;
      // Only bother when some probe operator is still alive somewhere.
      const auto& probes = e.probe_ops();
      if (std::all_of(probes.begin(), probes.end(),
                      [&](uint32_t op) { return e.Terminated(op); })) {
        return false;
      }
      node.starving.store(false, std::memory_order_relaxed);
    }
    if (opt.nodes < 2) return false;
    node.steal_in_progress = true;
    node.offers_pending = opt.nodes - 1;
    node.best_provider = UINT32_MAX;
    node.best_count = 0;
    node.best_op = kAnyOp;
    node.steal_reqs.fetch_add(1, std::memory_order_relaxed);
    Message m;
    m.type = MsgType::kStarving;
    m.op = want_op;
    m.arg = 0;  // available memory: unconstrained in this build
    fabric.Broadcast(node.id, m).ok();
    return true;
  }

  void SendToCoordinator(uint32_t id, MsgType type, uint32_t op,
                         uint64_t arg) {
    Message m;
    m.type = type;
    m.op = op;
    m.arg = arg;
    if (id == 0) {
      m.from = 0;
      CoordinatorHandle(std::move(m));
    } else {
      fabric.Send(id, 0, std::move(m)).ok();
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

  void HandleMessage(uint32_t id, Message&& m) {
    if (id == 0 && (m.type == MsgType::kEndOfQueuesAtNode ||
                    (m.type == MsgType::kDrainConfirm && m.arg == 1))) {
      CoordinatorHandle(std::move(m));
      return;
    }
    HandleNodeMessage(id, std::move(m));
  }

  void HandleNodeMessage(uint32_t id, Message&& m) {
    Node& node = *nodes[id];
    switch (m.type) {
      case MsgType::kTupleBatch: {
        auto rows = net::DecodeBatch(m.payload);
        if (!rows.ok()) {
          node.engine->Fail();
          return;
        }
        node.engine->Receive(m.op, m.bucket, std::move(rows).value());
        break;
      }
      case MsgType::kDrainConfirm:
        // arg == 0: coordinator requests a drain ack for op.
        if (m.arg == 0) node.drain_requested[m.op] = true;
        break;
      case MsgType::kOpTerminated:
        // Unblocks dependents; a chain terminal freezes this node's share
        // of the chain's intermediate first.
        node.engine->Terminate(m.op);
        break;
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
  void HandleStarving(Node& node, const Message& m) {
    const NodeEngine& e = *node.engine;
    uint32_t best_op = kAnyOp;
    uint64_t best_count = 0;
    for (uint32_t op : e.probe_ops()) {
      if (m.op != kAnyOp && m.op != op) continue;
      if (!e.Consumable(op) || e.Terminated(op)) continue;
      const uint64_t count = e.QueuedCount(op);
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
    fabric.Send(node.id, m.from, std::move(reply)).ok();
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
  void HandleOfferReply(Node& node, const Message& m) {
    if (!node.steal_in_progress) return;
    if (m.type == MsgType::kNoWork && m.arg == 1) {
      // Acquire-stage failure: provider raced empty.
      node.steal_inflight.fetch_sub(1);
      node.steal_in_progress = false;
      return;
    }
    if (node.offers_pending == 0) return;
    --node.offers_pending;
    if (m.type == MsgType::kOffer && m.arg > node.best_count &&
        !node.drain_acked[m.op]) {
      node.best_count = m.arg;
      node.best_provider = m.from;
      node.best_op = m.op;
    }
    if (node.offers_pending == 0) {
      if (node.best_provider == UINT32_MAX || node.drain_acked[node.best_op]) {
        node.steal_in_progress = false;
        return;
      }
      // Acquire from the most loaded provider; list cached buckets so
      // already-copied fragments are not re-shipped (Section 4).
      node.steal_inflight.fetch_add(1);
      Message req;
      req.type = MsgType::kAcquire;
      req.op = node.best_op;
      if (opt.cache_stolen_fragments) {
        const uint32_t g = node.engine->JoinOf(node.best_op);
        for (uint32_t b : node.cached_buckets[g]) {
          net::PutU32(&req.payload, b);
        }
      }
      fabric.Send(node.id, node.best_provider, std::move(req)).ok();
    }
  }

  // Gives the requester up to steal_batch queued activations of `op`. The
  // rows travel split by bucket, merged across the activations taken, so
  // the bundle and the thief's probe stay per bucket; each bucket's build
  // fragment goes along unless the requester cached it. The pending count
  // drops by the activations taken, which the thief counts as stolen.
  void HandleAcquire(Node& node, const Message& m) {
    NodeEngine& e = *node.engine;
    const uint32_t op = m.op;
    const uint32_t g = e.JoinOf(op);
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
    const uint32_t probe_col = e.Join(g).probe_col;
    int64_t taken = 0;
    for (uint32_t t = 0; t < opt.threads && taken < opt.steal_batch; ++t) {
      NodeEngine::Activation act;
      while (taken < opt.steal_batch && e.TakeQueued(op, t, &act)) {
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
      const RowTable* table = bucket % opt.nodes == node.id
                                  ? e.HomeTable(g, bucket)
                                  : node.Fragment(g, bucket);
      if (table == nullptr) {
        // Cannot supply the hash table: keep the rows local.
        e.Receive(op, bucket, std::move(pieces[bucket]));
        continue;
      }
      if (requester_cached.count(bucket)) {
        node.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::kCacheHit;
          ev.node = static_cast<int32_t>(node.id);
          ev.op = static_cast<int32_t>(op);
          ev.start_ns = ev.end_ns = trace->NowNs();
          ev.detail = bucket;
          ev.query = opt.recorder_query;
          trace->Record(ev);
        }
      } else {
        net::RowFragment frag;
        frag.bucket = bucket;
        frag.build_rows = Batch(table->width());
        frag.build_rows.data() = table->pool();
        node.shipped_rows.fetch_add(table->rows());
        bundle.fragments.push_back(std::move(frag));
      }
      net::RowActivation ra;
      ra.bucket = bucket;
      ra.rows = std::move(pieces[bucket]);
      bundle.activations.push_back(std::move(ra));
    }
    e.AddPending(op, -taken);
    Message reply;
    if (bundle.activations.empty()) {
      reply.type = MsgType::kNoWork;
      reply.arg = 1;  // acquire stage
      fabric.Send(node.id, m.from, std::move(reply)).ok();
      return;
    }
    reply.type = MsgType::kWork;
    reply.op = op;
    reply.arg = static_cast<uint64_t>(taken);
    reply.payload = net::EncodeRowWork(bundle);
    fabric.Send(node.id, m.from, std::move(reply)).ok();
  }

  void HandleWork(Node& node, const Message& m) {
    NodeEngine& e = *node.engine;
    auto bundle = net::DecodeRowWork(m.payload);
    if (!bundle.ok()) {
      e.Fail();
      node.steal_inflight.fetch_sub(1);
      node.steal_in_progress = false;
      return;
    }
    const uint32_t op = bundle.value().op;
    const uint32_t g = e.JoinOf(op);
    if (node.drain_acked[op]) {
      node.late_steals.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::unique_lock<std::shared_mutex> lock(*node.stolen_mu[g]);
      for (auto& frag : bundle.value().fragments) {
        if (node.stolen[g].count(frag.bucket)) continue;
        auto table = std::make_unique<RowTable>(frag.build_rows.width(),
                                                e.Join(g).build_col);
        table->InsertBatch(frag.build_rows);
        node.stolen[g][frag.bucket] = std::move(table);
        node.cached_buckets[g].insert(frag.bucket);
      }
    }
    // m.arg: the provider's queued activations this bundle carries.
    node.steals.fetch_add(1, std::memory_order_relaxed);
    node.stolen_acts.fetch_add(m.arg, std::memory_order_relaxed);
    if (opt.recorder != nullptr) {
      opt.recorder->Instant(obs::EventKind::kSteal, opt.recorder_query,
                            m.arg, static_cast<int32_t>(node.id), -1,
                            static_cast<int32_t>(op));
    }
    for (auto& ra : bundle.value().activations) {
      e.Receive(op, ra.bucket, std::move(ra.rows));
    }
    node.steal_inflight.fetch_sub(1);
    node.steal_in_progress = false;
  }

  // ------------------------------------------------------------------
  // Distributed aggregation (runs after the chain DAG terminated).
  //
  // Phase 1 already happened inside the chain run: every worker folded
  // the final-chain rows it produced into its private partial table
  // (NodeEngine::AggPartials), so the join result was never buffered.
  // Phase A here repartitions those partials by group-key hash —
  // partition p is homed at node p % nodes — shipping remote partitions
  // as kTupleBatch messages (partial rows are flat int64 rows, so the
  // join dataflow's encoding carries them verbatim). Phase B (after
  // every node finished sending): each node merges its own partitions
  // plus everything in its mailbox and finalizes the disjoint group set
  // it owns. The SpawnWorkers calls run on the same ExecContext as the
  // main run, so the pool and the stop token cover aggregation
  // unchanged.
  Status RunDistributedAgg(const mt::AggSpec* agg, std::vector<Batch>* agg_out,
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

    for (const auto& node : nodes) {
      for (const mt::AggTable* t : node->engine->AggPartials()) {
        *partial_entries += t->groups();
      }
    }

    ctx->SpawnWorkers(N, [&](uint32_t n) {
      Node& node = *nodes[n];
      const std::vector<const mt::AggTable*> partials =
          node.engine->AggPartials();
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      uint64_t repart = 0;
      for (uint32_t p = 0; p < P; ++p) {
        if (ctx->StopRequested()) {
          agg_cancelled.store(true);
          return;
        }
        Batch part;
        for (const mt::AggTable* t : partials) t->EmitPartials(p, P, &part);
        if (part.rows() == 0) continue;
        uint32_t home = p % N;
        if (home == n) {
          kept[n].push_back(std::move(part));
        } else {
          node.agg_repart_rows.fetch_add(part.rows(),
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
      // One span per node for the repartition phase (the agg sentinel op).
      if (trace != nullptr) {
        obs::TraceEvent ev;
        ev.node = static_cast<int32_t>(n);
        ev.op = static_cast<int32_t>(agg_op);
        ev.start_ns = tr0;
        ev.end_ns = trace->NowNs();
        ev.activations = 1;
        ev.rows_out = repart;
        ev.detail = ev.end_ns - ev.start_ns;
        ev.query = opt.recorder_query;
        trace->Record(ev);
      }
    });
    if (agg_cancelled.load() || ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during aggregation");
    }

    // Every node finished sending (the SpawnWorkers barrier), so each
    // mailbox now holds all partials its node will ever receive.
    ctx->SpawnWorkers(N, [&](uint32_t n) {
      Node& node = *nodes[n];
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
        if (IsDuplicate(node, m)) continue;
        auto rows = net::DecodeBatch(m.payload);
        if (!rows.ok()) {
          node.engine->Fail();
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
        ev.query = opt.recorder_query;
        trace->Record(ev);
      }
    });
    if (agg_cancelled.load() || ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during aggregation");
    }
    return Status::OK();
  }

  bool AnyFailed() const {
    return std::any_of(nodes.begin(), nodes.end(),
                       [](const auto& n) { return n->engine->Failed(); });
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

Result<ResultDigest> ClusterExecutor::Execute(const PlanQuery& query,
                                              ClusterStats* stats,
                                              mt::Batch* materialized) {
  HIERDB_RETURN_NOT_OK(query.Validate(options_.nodes));
  HIERDB_RETURN_NOT_OK(NodeEngine::CheckOptions(options_, query.plan));
  ThreadSpawnContext fallback_ctx;
  ClusterOptions o = options_;
  if (o.ctx == nullptr) o.ctx = &fallback_ctx;
  impl_ = std::make_unique<Impl>(o);
  Impl& im = *impl_;
  im.ctx = o.ctx;
  const uint64_t faults_before = o.injector != nullptr
                                     ? o.injector->counters().total()
                                     : 0;
  im.Setup(query, materialized != nullptr);
  for (auto& node : im.nodes) node->engine->Start();

  // One team of N x T symmetric bodies (Impl::Body).
  im.ctx->SpawnWorkers(o.nodes * o.threads,
                       [&im](uint32_t k) { im.Body(k); });

  // Every body has exited, so the span cells are complete; emitting here
  // covers the cancelled and failed exits below too.
  for (auto& node : im.nodes) node->engine->EmitTraceCells();

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
  if (im.AnyFailed()) {
    impl_.reset();
    return Status::Internal("cluster execution failed");
  }

  // Distributed aggregation over the final chain's partials. Runs before
  // the stats snapshot so its repartition traffic is accounted.
  const mt::AggSpec* agg = query.plan.agg.has_value() ? &*query.plan.agg
                                                      : nullptr;
  std::vector<Batch> agg_out(o.nodes);
  std::vector<ResultDigest> agg_digests(o.nodes);
  uint64_t agg_partial_entries = 0;
  if (agg != nullptr) {
    Status st = im.RunDistributedAgg(agg, &agg_out, &agg_digests,
                                     &agg_partial_entries);
    if (!st.ok()) {
      impl_.reset();
      return st;
    }
    if (im.AnyFailed()) {
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
  for (auto& node : im.nodes) digest.Merge(node->engine->Digest());
  for (const auto& d : agg_digests) digest.Merge(d);
  const uint32_t C = static_cast<uint32_t>(query.plan.chains.size());
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
    stats->rows_per_chain.assign(C, 0);
    for (auto& node : im.nodes) {
      const uint64_t idle_before = stats->idle_waits;
      node->engine->AddStats(stats);
      stats->idle_waits_per_node.push_back(stats->idle_waits - idle_before);
      stats->busy_per_node.push_back(node->engine->Busy());
      stats->steal_requests += node->steal_reqs.load();
      stats->steals += node->steals.load();
      stats->late_steals += node->late_steals.load();
      stats->stolen_activations += node->stolen_acts.load();
      stats->shipped_fragment_rows += node->shipped_rows.load();
      stats->fragment_cache_hits += node->cache_hits.load();
      stats->agg_repartition_rows += node->agg_repart_rows.load();
    }
    if (o.injector != nullptr) stats->faults = o.injector->counters();
    stats->dup_messages_dropped = im.dup_dropped.load();
    stats->build_cache_hits = im.builds.hits;
    stats->build_cache_misses = im.builds.misses;
    stats->chain_reused = im.builds.chain_reused;
    if (agg != nullptr) {
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
    // attributed through the per-op kTupleBatch accounting. The final
    // chain's output is the result, not an intermediate: its entry stays
    // zero.
    stats->per_chain.assign(C, {});
    for (uint32_t c = 0; c < C; ++c) {
      auto& pc = stats->per_chain[c];
      for (auto& node : im.nodes) {
        if (c + 1 < C) {
          pc.intermediate_rows += node->engine->ChainOutput(c).rows();
          pc.intermediate_bytes += node->engine->ChainOutput(c).bytes();
        }
        pc.repartition_rows += node->repart_rows[c].load();
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
    // Aggregated plans gather each node's finalized group rows; others
    // each node's share of the final chain's rows. Plain concatenation:
    // the digest is order-independent.
    std::vector<Batch> parts = std::move(agg_out);
    if (agg == nullptr) {
      for (uint32_t n = 0; n < o.nodes; ++n) {
        parts[n] = im.nodes[n]->engine->TakeChainOutput(C - 1);
      }
    }
    Batch out(agg != nullptr ? agg->OutputWidth() : parts[0].width());
    size_t total = 0;
    for (const Batch& part : parts) total += part.rows();
    out.Reserve(total);
    for (const Batch& part : parts) {
      out.data().insert(out.data().end(), part.data().begin(),
                        part.data().end());
    }
    *materialized = std::move(out);
  }
  // Only a run that no fault touched publishes its builds (~Impl abandons
  // the rest): a faulted run that still returned a digest vouches for its
  // answer, not for a shared entry every later query would read.
  if (o.injector == nullptr ||
      o.injector->counters().total() == faults_before) {
    im.PublishBuilds();
  }
  impl_.reset();
  return digest;
}

}  // namespace hierdb::cluster
