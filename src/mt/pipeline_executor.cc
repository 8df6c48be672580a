#include "mt/pipeline_executor.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "mt/column_batch.h"
#include "mt/row_table.h"

namespace hierdb::mt {

double PipelineStats::Imbalance() const {
  if (busy_per_thread.empty()) return 1.0;
  uint64_t max = 0, sum = 0;
  for (uint64_t b : busy_per_thread) {
    max = std::max(max, b);
    sum += b;
  }
  if (sum == 0) return 1.0;
  double mean = static_cast<double>(sum) / busy_per_thread.size();
  return static_cast<double>(max) / mean;
}

// ---------------------------------------------------------------------
// Compiled-plan structures.

struct PipelineExecutor::Activation {
  uint32_t op = 0;
  uint32_t bucket = 0;
  Batch rows;
};

class PipelineExecutor::BoundedQueue {
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
  bool ApproxEmpty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }

 private:
  mutable std::mutex mu_;
  std::deque<Activation> items_;
};

// Compiled operator kinds. Build ops scatter their source into per-bucket
// insert batches; scan ops forward the chain input to the first probe in
// batch_rows chunks (or straight to the chain output when the chain has no
// joins); probe ops run one join step and forward or finalize.
enum class COp : uint8_t { kScan, kBuild, kProbe };

void ResolvedBuilds::AbandonPending(BuildCache* cache) {
  for (size_t g = 0; g < publish.size(); ++g) {
    if (publish[g] && cache != nullptr) cache->Abandon(keys[g]);
    publish[g] = 0;
  }
}

ResolvedBuilds ResolveBuilds(
    const EngineOptions& options, const PipelinePlan& plan, bool may_wait,
    const std::function<uint32_t(uint32_t)>& build_op) {
  const uint32_t C = static_cast<uint32_t>(plan.chains.size());
  std::vector<uint32_t> join_base(C);
  uint32_t njoins = 0;
  for (uint32_t c = 0; c < C; ++c) {
    join_base[c] = njoins;
    njoins += static_cast<uint32_t>(plan.chains[c].joins.size());
  }
  ResolvedBuilds out;
  out.tables.assign(njoins, nullptr);
  out.publish.assign(njoins, 0);
  out.keys.assign(njoins, BuildKey{});
  out.chain_reused.assign(C, false);
  if (options.build_cache == nullptr || C == 0) return out;

  // runs[c]: chain c's output is needed. The final chain and captured
  // chains always run; an earlier chain runs when a running chain scans
  // it or builds on it without a hit. Sources are earlier chains, so one
  // backward pass settles every chain before it is visited.
  std::vector<bool> runs(C, false);
  runs[C - 1] = true;
  for (const CaptureSink& cs : options.captures) {
    if (cs.chain < C) runs[cs.chain] = true;
  }
  ExecContext* ctx = options.ctx;
  auto cancelled = [ctx] { return ctx != nullptr && ctx->StopRequested(); };
  bool holds_builder = false;
  for (uint32_t c = C; c-- > 0;) {
    const Chain& chain = plan.chains[c];
    if (!runs[c]) {
      out.chain_reused[c] = true;
      continue;
    }
    if (chain.input.kind == Source::Kind::kChain) runs[chain.input.index] = true;
    for (uint32_t j = 0; j < chain.joins.size(); ++j) {
      const JoinStep& js = chain.joins[j];
      const uint32_t g = join_base[c] + j;
      BuildKey key;
      bool hit = false;
      if (BuildCacheKeyFor(options.table_cache_ids, options.cache_seed_skew,
                           plan, options.buckets, js.build, js.build_col,
                           &key)) {
        auto got = options.build_cache->Acquire(key, cancelled,
                                                may_wait && !holds_builder);
        hit = got.tables != nullptr;
        if (hit) {
          out.tables[g] = std::move(got.tables);
          ++out.hits;
        } else {
          ++out.misses;
          if (got.builder) {
            holds_builder = true;
            out.publish[g] = 1;
            out.keys[g] = key;
          }
        }
        const obs::EventKind kind =
            hit ? obs::EventKind::kCacheHit : obs::EventKind::kCacheMiss;
        if (options.trace != nullptr) {
          obs::TraceEvent ev;
          ev.kind = kind;
          ev.op = static_cast<int32_t>(build_op(g));
          ev.start_ns = ev.end_ns = options.trace->NowNs();
          options.trace->RecordShared(ev);
        }
        if (options.recorder != nullptr) {
          options.recorder->Instant(kind, options.recorder_query,
                                    build_op(g));
        }
      }
      if (!hit && js.build.kind == Source::Kind::kChain) {
        runs[js.build.index] = true;
      }
    }
  }
  return out;
}

struct PipelineExecutor::OpState {
  COp kind = COp::kScan;
  uint32_t chain = 0;
  uint32_t step = 0;          // build/probe: join index in the chain
  uint32_t join = 0;          // global join id (table array index)
  std::vector<uint32_t> blockers;
  uint32_t producer = UINT32_MAX;  // op feeding data activations
  uint32_t consumer = UINT32_MAX;  // op consuming our data activations

  // Trigger work (scan/build): morsels over a source batch. The source
  // pointer is resolved when the op unblocks (chain outputs do not exist
  // earlier).
  Source src;
  const Batch* src_batch = nullptr;
  std::atomic<size_t> morsel_cursor{0};
  std::atomic<int64_t> morsels_left{0};
  size_t total_rows = 0;

  std::atomic<int64_t> data_pending{0};  // queued + in-flight batches
  std::atomic<bool> consumable{false};
  std::atomic<bool> scatter_done{false};  // all morsels executed
  std::atomic<bool> ended{false};
  // Nothing to run: a build served by the shared cache, or a trigger of
  // an elided chain.
  bool born_finished = false;

  double cost_estimate = 0.0;  // FP allocation weight
  uint32_t chain_pos = 0;      // scan = 0, probe j = j + 1 (builds = 0)

  OpState() = default;
  OpState(const OpState&) = delete;
};

struct PipelineExecutor::Shared {
  const PipelinePlan* plan = nullptr;
  std::vector<const Table*> tables;

  // Worker provider + cancellation token for this run; never null.
  ExecContext* ctx = nullptr;
  std::atomic<bool> cancelled{false};

  std::vector<std::unique_ptr<OpState>> ops;
  std::vector<uint32_t> chain_terminal;  // terminal op per chain
  std::vector<bool> materialized;        // chain output kept?

  // queues[op * threads + t]
  std::vector<std::unique_ptr<BoundedQueue>> queues;

  // Per-join bucket hash tables and their insert locks.
  // tables_by_join[join][bucket]; join ids are assigned per (chain, step).
  std::vector<std::vector<RowTable>> join_tables;
  std::vector<std::vector<std::unique_ptr<std::mutex>>> bucket_mu;

  // Shared build-side reuse, resolved at compile time: builds.tables[join]
  // set (a cache hit, or a local build published at build end) makes
  // probes read the shared immutable tables instead of join_tables; a
  // builder entry (builds.publish) is published when its build ends.
  ResolvedBuilds builds;

  const BucketTables& JoinTables(uint32_t join) const {
    const auto& sp = builds.tables[join];
    return sp != nullptr ? *sp : join_tables[join];
  }

  // Guest slots for cross-query stealers: per-worker state (busy, outbox,
  // scratch, digests, partials) is sized threads + guests; a foreign
  // thread borrows a free slot for the duration of one activation.
  std::mutex guest_mu;
  std::vector<uint32_t> guest_free;

  // Chain outputs: per-chain per-thread partials merged at chain end.
  std::vector<std::vector<Batch>> chain_partials;    // [chain][thread]
  std::vector<Batch> chain_outputs;                  // merged
  std::vector<ResultDigest> thread_digests;          // final-chain digest

  // Two-phase aggregation (plans with an AggSpec): every slot folds the
  // final-chain rows it produces into a private partial table; phase 2
  // claims group-hash partitions off agg_cursor and merges every slot's
  // share of the partition into one final table (disjoint partitions, so
  // the merge needs no locks).
  const AggSpec* agg = nullptr;
  std::vector<AggTable> agg_partials;     // per slot
  std::atomic<uint32_t> agg_cursor{0};    // next unclaimed partition
  std::vector<AggTable> agg_finals;       // per partition
  std::vector<Batch> agg_rows;            // per partition (materialize)
  std::vector<ResultDigest> agg_digests;  // per partition
  std::atomic<uint64_t> stat_filtered{0};

  // Pipelined row widths per (chain, step boundary).
  std::vector<std::vector<uint32_t>> width_at;  // [chain][0..joins]

  std::mutex state_mu;                 // guards end/unblock transitions
  std::condition_variable work_cv;
  std::atomic<uint32_t> ops_remaining{0};
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  // FP: per-op thread range [lo, hi) packed as (lo << 32) | hi. A thread
  // `t` may run op `i` iff lo <= t < hi. Ranges are disjoint when threads
  // outnumber active operators; otherwise operators share threads
  // round-robin (the paper's configurations always have more processors
  // than operators per stage, so sharing is the degenerate case).
  std::vector<std::atomic<uint64_t>> fp_range;

  // Tracing: null = off (the only cost is this check). Cells are
  // per-(slot, op) aggregates owned exclusively by the slot's holder;
  // they flush into the sink at run end (EmitTraceCells), so cancelled
  // runs still drain. chain_rows is unconditional: the per-chain actual
  // output cardinality (rows produced by each chain's terminal op).
  obs::TraceSink* trace = nullptr;
  uint32_t slots = 0;
  std::vector<obs::OpSpanAgg> trace_cells;  // [slot * nops + op]
  std::vector<uint64_t> chain_rows;         // [chain * slots + slot]

  // Plan-point row captures (options.captures). Empty = the hot paths
  // skip every per-row check behind one `capturing` bool per activation.
  std::vector<CaptureSink> captures;
  void OfferCapture(uint32_t chain, uint32_t point, const int64_t* row,
                    uint32_t width) {
    for (const CaptureSink& cs : captures) {
      if (cs.chain == chain && cs.point == point && cs.sink != nullptr) {
        cs.sink->Offer(row, width);
      }
    }
  }

  // Stats.
  std::vector<uint64_t> busy;  // per thread, padded access is fine here
  std::atomic<uint64_t> stat_morsels{0};
  std::atomic<uint64_t> stat_data{0};
  std::atomic<uint64_t> stat_emitted{0};
  std::atomic<uint64_t> stat_escapes{0};
  std::atomic<uint64_t> stat_nonprimary{0};
  std::atomic<uint64_t> stat_idle{0};
  std::atomic<uint64_t> stat_fp_safety{0};

  // Per-thread outbox: data activations whose destination queue was full.
  // Operator bodies never block — a failed push is staged here and the
  // worker drains it at the top level (the iterative form of the paper's
  // procedure-call suspension; see FlushOutbox).
  std::vector<std::deque<Activation>> outbox;

  // Per-thread scatter scratch, pooled by re-entrancy depth (helping
  // while stuck nests activation executions).
  struct Scratch {
    std::vector<Batch> bucket;
    std::vector<uint32_t> hit;
    // Vectorized data plane: selection vector, hash column and gathered
    // key column reused across activations (mt/column_batch.h kernels).
    SelVec sel;
    std::vector<uint64_t> hashes;
    std::vector<int64_t> keys;
    AggTable::BatchScratch agg;
    // Probe kernel: active-row lists, the match list, and the joined
    // rows of one chunk of it (at most batch_rows rows).
    ProbeScratch probe;
    Matches matches;
    Batch joined;
  };
  std::vector<std::vector<std::unique_ptr<Scratch>>> scratch_pool;
  std::vector<size_t> scratch_depth;

  Scratch& AcquireScratch(uint32_t self, uint32_t buckets) {
    size_t d = scratch_depth[self]++;
    if (d == scratch_pool[self].size()) {
      auto sc = std::make_unique<Scratch>();
      sc->bucket.resize(buckets);
      scratch_pool[self].push_back(std::move(sc));
    }
    return *scratch_pool[self][d];
  }
  void ReleaseScratch(uint32_t self) { --scratch_depth[self]; }
};


PipelineExecutor::PipelineExecutor(const PipelineOptions& options)
    : options_(options) {
  HIERDB_CHECK(options_.threads > 0, "need at least one thread");
  HIERDB_CHECK(options_.buckets > 0, "need at least one bucket");
  HIERDB_CHECK(options_.morsel_rows > 0, "morsel_rows must be positive");
  HIERDB_CHECK(options_.batch_rows > 0, "batch_rows must be positive");
  HIERDB_CHECK(options_.queue_capacity > 0, "queue_capacity must be positive");
}

PipelineExecutor::~PipelineExecutor() = default;

uint32_t PipelineExecutor::CompiledOpCount(const PipelinePlan& plan) {
  uint32_t n = 0;
  for (const Chain& c : plan.chains) {
    n += 1 + 2 * static_cast<uint32_t>(c.joins.size());
  }
  return n;
}

// ---------------------------------------------------------------------
// Compilation: plan -> OpStates with blockers, producers, widths.

Result<ResultDigest> PipelineExecutor::Execute(
    const PipelinePlan& plan, const std::vector<const Table*>& tables,
    PipelineStats* stats, Batch* materialized) {
  HIERDB_RETURN_NOT_OK(plan.Validate(tables));
  if (options_.strategy == LocalStrategy::kSP) {
    return ExecuteSP(plan, tables, stats, materialized);
  }

  // Workers come from the injected context (session pool) or, white-box,
  // from a one-off spawn-per-query context.
  ThreadSpawnContext fallback_ctx;
  ExecContext* ctx = options_.ctx != nullptr ? options_.ctx : &fallback_ctx;

  shared_ = std::make_unique<Shared>();
  Shared& sh = *shared_;
  sh.plan = &plan;
  sh.tables = tables;
  sh.ctx = ctx;
  sh.captures = options_.captures;
  const uint32_t T = options_.threads;
  const uint32_t B = options_.buckets;

  // Assign op ids chain by chain: B(c,0..k-1), S(c), P(c,0..k-1).
  sh.chain_terminal.resize(plan.chains.size());
  sh.materialized = plan.MaterializedChains();
  sh.agg = plan.agg.has_value() ? &*plan.agg : nullptr;
  // Result materialization rides the existing chain-output machinery: treat
  // the final chain as materialized and hand its merged output back. Under
  // aggregation the final chain's rows feed the partial tables instead and
  // the merge phase produces the materialized (aggregate) rows.
  if (materialized != nullptr && sh.agg == nullptr) {
    sh.materialized.back() = true;
  }
  sh.width_at.resize(plan.chains.size());
  uint32_t njoins_total = 0;
  std::vector<uint32_t> scan_of_chain(plan.chains.size());
  std::vector<std::vector<uint32_t>> build_of(plan.chains.size());
  std::vector<std::vector<uint32_t>> probe_of(plan.chains.size());
  std::vector<uint32_t> build_op_of_join;

  auto source_rows = [&](const Source& s) -> double {
    // Estimated rows for FP cost weights; chain outputs are estimated as
    // their input cardinality (the FK-join heuristic). Exact enough for
    // allocation; distortion is injected on top for the error experiments.
    if (s.kind == Source::Kind::kTable) {
      return static_cast<double>(tables[s.index]->rows());
    }
    const Chain& c = plan.chains[s.index];
    if (c.input.kind == Source::Kind::kTable) {
      return static_cast<double>(tables[c.input.index]->rows());
    }
    return 0.0;
  };

  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const Chain& chain = plan.chains[c];
    const uint32_t k = static_cast<uint32_t>(chain.joins.size());
    // Width bookkeeping (a projected table source emits only its kept
    // columns, so the pipelined widths shrink with the plan's pruning).
    auto src_width = [&](const Source& s) -> uint32_t {
      return s.kind == Source::Kind::kTable
                 ? plan.EffectiveTableWidth(s.index, tables[s.index]->width())
                 : plan.OutputWidth(tables, s.index);
    };
    sh.width_at[c].push_back(src_width(chain.input));
    for (const JoinStep& j : chain.joins) {
      sh.width_at[c].push_back(sh.width_at[c].back() + src_width(j.build));
    }

    for (uint32_t j = 0; j < k; ++j) {
      auto op = std::make_unique<OpState>();
      op->kind = COp::kBuild;
      op->chain = c;
      op->step = j;
      op->join = njoins_total + j;
      op->src = chain.joins[j].build;
      op->cost_estimate = source_rows(op->src) + 1.0;
      if (op->src.kind == Source::Kind::kChain) {
        op->blockers.push_back(sh.chain_terminal[op->src.index]);
      }
      build_of[c].push_back(static_cast<uint32_t>(sh.ops.size()));
      build_op_of_join.push_back(build_of[c].back());
      sh.ops.push_back(std::move(op));
    }
    {
      auto op = std::make_unique<OpState>();
      op->kind = COp::kScan;
      op->chain = c;
      op->src = chain.input;
      op->cost_estimate = source_rows(chain.input) + 1.0;
      if (chain.input.kind == Source::Kind::kChain) {
        op->blockers.push_back(sh.chain_terminal[chain.input.index]);
      }
      if (options_.apply_h1) {
        for (uint32_t j = 0; j < k; ++j) {
          op->blockers.push_back(build_of[c][j]);
        }
      }
      if (options_.apply_h2 && c > 0) {
        op->blockers.push_back(sh.chain_terminal[c - 1]);
      }
      scan_of_chain[c] = static_cast<uint32_t>(sh.ops.size());
      sh.ops.push_back(std::move(op));
    }
    for (uint32_t j = 0; j < k; ++j) {
      auto op = std::make_unique<OpState>();
      op->kind = COp::kProbe;
      op->chain = c;
      op->step = j;
      op->join = njoins_total + j;
      op->cost_estimate = source_rows(chain.input) + 1.0;
      op->chain_pos = j + 1;  // scan is position 0
      op->blockers.push_back(build_of[c][j]);  // hash constraint
      op->producer = (j == 0) ? scan_of_chain[c] : probe_of[c][j - 1];
      probe_of[c].push_back(static_cast<uint32_t>(sh.ops.size()));
      sh.ops.push_back(std::move(op));
    }
    // Wire consumers.
    if (k > 0) {
      sh.ops[scan_of_chain[c]]->consumer = probe_of[c][0];
      for (uint32_t j = 0; j + 1 < k; ++j) {
        sh.ops[probe_of[c][j]]->consumer = probe_of[c][j + 1];
      }
      sh.chain_terminal[c] = probe_of[c][k - 1];
    } else {
      sh.chain_terminal[c] = scan_of_chain[c];
    }
    njoins_total += k;
  }

  // Apply FP cost distortions.
  if (!options_.fp_cost_distortion.empty()) {
    if (options_.fp_cost_distortion.size() != sh.ops.size()) {
      return Status::InvalidArgument(
          "fp_cost_distortion size != compiled op count");
    }
    for (size_t i = 0; i < sh.ops.size(); ++i) {
      sh.ops[i]->cost_estimate *= options_.fp_cost_distortion[i];
    }
  }

  // Shared build-side reuse: resolve every cacheable build against the
  // session cache (ResolveBuilds). A hit makes the build op born
  // finished; an elided chain's ops are all born finished, with no
  // blockers. The first misser of a key becomes its builder and publishes
  // the finished tables; a concurrent misser waits for that publish
  // instead of duplicating the build.
  sh.builds = ResolveBuilds(options_, plan, /*may_wait=*/true,
                            [&](uint32_t g) { return build_op_of_join[g]; });
  for (uint32_t i = 0; i < sh.ops.size(); ++i) {
    OpState& op = *sh.ops[i];
    if (sh.builds.chain_reused[op.chain]) {
      op.blockers.clear();
      op.born_finished = op.kind != COp::kProbe;
    } else if (op.kind == COp::kBuild &&
               sh.builds.tables[op.join] != nullptr) {
      op.born_finished = true;
    }
  }

  // Shared structures. Per-worker state is sized threads + guest slots so
  // cross-query stealers get private scratch/digest/outbox slots.
  const uint32_t nops = static_cast<uint32_t>(sh.ops.size());
  const uint32_t slots = T + ctx->GuestSlots();
  for (uint32_t g = T; g < slots; ++g) sh.guest_free.push_back(g);
  sh.queues.reserve(static_cast<size_t>(nops) * T);
  for (uint32_t i = 0; i < nops * T; ++i) {
    sh.queues.push_back(std::make_unique<BoundedQueue>());
  }
  sh.join_tables.resize(njoins_total);
  sh.bucket_mu.resize(njoins_total);
  uint32_t join_id = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    for (uint32_t j = 0; j < plan.chains[c].joins.size(); ++j, ++join_id) {
      // Shared tables, or a join of an elided chain: nothing to build.
      if (sh.builds.tables[join_id] != nullptr ||
          sh.builds.chain_reused[c]) {
        continue;
      }
      const Source& b = plan.chains[c].joins[j].build;
      uint32_t bw = b.kind == Source::Kind::kTable
                        ? plan.EffectiveTableWidth(b.index,
                                                   tables[b.index]->width())
                        : plan.OutputWidth(tables, b.index);
      sh.join_tables[join_id].resize(B);
      sh.bucket_mu[join_id].resize(B);
      for (uint32_t bb = 0; bb < B; ++bb) {
        sh.join_tables[join_id][bb].Init(bw,
                                         plan.chains[c].joins[j].build_col);
        sh.bucket_mu[join_id][bb] = std::make_unique<std::mutex>();
      }
    }
  }
  sh.chain_partials.assign(plan.chains.size(), {});
  for (auto& partials : sh.chain_partials) {
    partials.resize(slots);
  }
  sh.chain_outputs.resize(plan.chains.size());
  sh.thread_digests.assign(slots, {});
  if (sh.agg != nullptr) {
    sh.agg_partials.resize(slots);
    for (AggTable& t : sh.agg_partials) t.Init(sh.agg);
  }
  sh.busy.assign(slots, 0);
  sh.outbox.resize(slots);
  sh.scratch_pool.resize(slots);
  sh.scratch_depth.assign(slots, 0);
  sh.slots = slots;
  sh.chain_rows.assign(plan.chains.size() * slots, 0);
  if (options_.trace != nullptr) {
    sh.trace = options_.trace;
    sh.trace->EnsureSlots(slots);
    sh.trace_cells.assign(static_cast<size_t>(slots) * nops,
                          obs::OpSpanAgg{});
  }
  sh.fp_range = std::vector<std::atomic<uint64_t>>(nops);
  for (auto& a : sh.fp_range) a.store(0);
  sh.ops_remaining.store(nops);

  // Unblock initially runnable ops.
  {
    std::lock_guard<std::mutex> lock(sh.state_mu);
    for (uint32_t i = 0; i < nops; ++i) {
      OpState& op = *sh.ops[i];
      if (op.blockers.empty()) {
        op.consumable.store(true);
        if (op.kind != COp::kProbe) ResolveSourceLocked(op);
      }
    }
    if (options_.strategy == LocalStrategy::kFP) RecomputeFpAssignment();
  }
  // Ops that are born finished (empty sources, cache hits, elided chains)
  // must end before workers start so the dependency cascade is primed.
  for (uint32_t i = 0; i < nops; ++i) {
    OpState& op = *sh.ops[i];
    if (op.consumable.load() && !op.ended.load() && op.scatter_done.load() &&
        op.kind != COp::kProbe && op.data_pending.load() == 0) {
      OnOpEnded(i);
    }
  }

  // Run: rent workers from the context (or spawn, white-box). The steal
  // hook lets idle threads of other executions run our activations; FP
  // pins threads to operators, so only DP publishes one.
  if (options_.strategy == LocalStrategy::kDP) {
    ctx->SetStealHook([this] { return RunOneForeign(); });
  }
  ctx->SpawnWorkers(T, [this](uint32_t t) { WorkerLoop(t); });
  ctx->ClearStealHook();

  if (sh.cancelled.load()) {
    AbandonPendingOffers();
    EmitTraceCells();
    shared_.reset();
    return Status::Cancelled("query cancelled during execution");
  }
  if (sh.failed.load()) {
    AbandonPendingOffers();
    EmitTraceCells();
    return Status::Internal("pipeline execution failed");
  }

  // Phase 2 of aggregation: merge the per-slot partial tables, one
  // group-hash partition per claim, on workers rented through the same
  // context (pooled stealing and the stop token apply unchanged).
  uint64_t agg_groups = 0, agg_partial_entries = 0;
  if (sh.agg != nullptr) {
    for (const AggTable& t : sh.agg_partials) agg_partial_entries += t.groups();
    // Merge partitions: enough for parallelism (a few per worker), but
    // clamped below the join fragmentation degree — every partition
    // re-scans every slot's partial table, so the scan work grows with P.
    const uint32_t P = std::min(options_.buckets, std::max(16u, 4 * T));
    sh.agg_finals.resize(P);
    for (AggTable& t : sh.agg_finals) t.Init(sh.agg);
    sh.agg_rows.assign(P, Batch());
    sh.agg_digests.assign(P, {});
    sh.agg_cursor.store(0);
    const bool want_rows = materialized != nullptr;
    ctx->SpawnWorkers(T, [this, want_rows](uint32_t) {
      AggMergeWorker(want_rows);
    });
    if (sh.cancelled.load()) {
      EmitTraceCells();
      shared_.reset();
      return Status::Cancelled("query cancelled during aggregation");
    }
    for (const AggTable& t : sh.agg_finals) agg_groups += t.groups();
  }

  ResultDigest digest;
  for (const auto& d : sh.thread_digests) digest.Merge(d);
  if (sh.agg != nullptr) {
    for (const auto& d : sh.agg_digests) digest.Merge(d);
    if (materialized != nullptr) {
      Batch out(sh.agg->OutputWidth());
      size_t total = 0;
      for (const Batch& part : sh.agg_rows) total += part.rows();
      out.Reserve(total);
      for (Batch& part : sh.agg_rows) {
        out.data().insert(out.data().end(), part.data().begin(),
                          part.data().end());
        part.Clear();
      }
      *materialized = std::move(out);
    }
  } else if (materialized != nullptr) {
    *materialized = std::move(sh.chain_outputs.back());
  }

  if (stats != nullptr) {
    stats->morsels = sh.stat_morsels.load();
    stats->data_activations = sh.stat_data.load();
    stats->batches_emitted = sh.stat_emitted.load();
    stats->escapes = sh.stat_escapes.load();
    stats->nonprimary = sh.stat_nonprimary.load();
    stats->idle_waits = sh.stat_idle.load();
    stats->fp_safety_escapes = sh.stat_fp_safety.load();
    stats->build_cache_hits = sh.builds.hits;
    stats->build_cache_misses = sh.builds.misses;
    stats->chain_reused = sh.builds.chain_reused;
    stats->rows_filtered = sh.stat_filtered.load();
    stats->agg_groups = agg_groups;
    stats->agg_partials = agg_partial_entries;
    // Guest slots (cross-query helpers) are excluded: busy_per_thread
    // drives the per-worker imbalance measure of this query's rental.
    stats->busy_per_thread.assign(sh.busy.begin(), sh.busy.begin() + T);
    stats->rows_per_chain.assign(plan.chains.size(), 0);
    for (uint32_t c = 0; c < plan.chains.size(); ++c) {
      for (uint32_t s = 0; s < slots; ++s) {
        stats->rows_per_chain[c] += sh.chain_rows[c * slots + s];
      }
    }
  }
  EmitTraceCells();
  shared_.reset();
  return digest;
}

void PipelineExecutor::TraceActivation(uint32_t self, uint32_t op_id,
                                       uint64_t t0, uint64_t rows_in,
                                       uint64_t rows_out) {
  Shared& sh = *shared_;
  const size_t nops = sh.ops.size();
  sh.trace_cells[self * nops + op_id].Add(t0, sh.trace->NowNs(), rows_in,
                                          rows_out);
}

void PipelineExecutor::EmitTraceCells() {
  Shared& sh = *shared_;
  if (sh.trace == nullptr) return;
  const size_t nops = sh.ops.size();
  for (uint32_t s = 0; s < sh.slots; ++s) {
    for (size_t i = 0; i < nops; ++i) {
      const obs::OpSpanAgg& c = sh.trace_cells[s * nops + i];
      if (c.empty()) continue;
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      // A guest slot (cross-query helper, s >= threads) folds onto lane
      // s % threads; the kSteal instant it recorded there marks the help.
      ev.worker = static_cast<int32_t>(s % options_.threads);
      ev.op = static_cast<int32_t>(i);
      ev.start_ns = c.first_ns;
      ev.end_ns = c.last_ns;
      ev.activations = c.activations;
      ev.rows_in = c.rows_in;
      ev.rows_out = c.rows_out;
      ev.detail = c.busy_ns;
      sh.trace->Record(s, ev);
    }
  }
}

void PipelineExecutor::AggMergeWorker(bool want_rows) {
  Shared& sh = *shared_;
  const uint32_t P = static_cast<uint32_t>(sh.agg_finals.size());
  for (;;) {
    if (sh.ctx->StopRequested()) {
      sh.cancelled.store(true);
      return;
    }
    uint32_t p = sh.agg_cursor.fetch_add(1, std::memory_order_relaxed);
    if (p >= P) return;
    AggTable& dst = sh.agg_finals[p];
    for (const AggTable& part : sh.agg_partials) {
      part.ForEachPartial(p, P, [&](const int64_t* row) {
        dst.MergePartial(row);
      });
    }
    dst.EmitFinal(want_rows ? &sh.agg_rows[p] : nullptr, &sh.agg_digests[p]);
  }
}

void PipelineExecutor::AbandonPendingOffers() {
  shared_->builds.AbandonPending(options_.build_cache);
}

size_t PipelineExecutor::ResolveSourceLocked(OpState& op) {
  Shared& sh = *shared_;
  if (op.born_finished) {
    // A build satisfied from the shared cache (probes read the cached
    // tables) or a trigger of an elided chain: nothing to scatter or
    // insert.
    op.total_rows = 0;
    op.morsels_left.store(0);
    op.scatter_done.store(true);
    return 0;
  }
  op.src_batch = op.src.kind == Source::Kind::kTable
                     ? &sh.tables[op.src.index]->batch
                     : &sh.chain_outputs[op.src.index];
  op.total_rows = op.src_batch->rows();
  size_t morsels =
      (op.total_rows + options_.morsel_rows - 1) / options_.morsel_rows;
  op.morsels_left.store(static_cast<int64_t>(morsels));
  if (morsels == 0) op.scatter_done.store(true);
  return morsels;
}

// Cross-query steal hook: a foreign thread (idle pool worker or a parked
// worker of another execution) borrows a guest slot and runs at most one
// activation of this query — the paper's consumption hierarchy extended
// past the query boundary.
bool PipelineExecutor::RunOneForeign() {
  Shared* shp = shared_.get();
  if (shp == nullptr) return false;
  Shared& sh = *shp;
  if (sh.done.load(std::memory_order_acquire)) return false;
  uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(sh.guest_mu);
    if (sh.guest_free.empty()) return false;
    slot = sh.guest_free.back();
    sh.guest_free.pop_back();
  }
  bool ran = RunOne(slot);
  if (ran) FlushOutbox(slot);
  if (ran && sh.trace != nullptr) {
    // Cross-query help is the session-level steal event.
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kSteal;
    ev.worker = static_cast<int32_t>(slot % options_.threads);
    ev.start_ns = ev.end_ns = sh.trace->NowNs();
    ev.detail = 1;
    sh.trace->Record(slot, ev);
  }
  if (ran && options_.recorder != nullptr) {
    options_.recorder->Instant(obs::EventKind::kSteal, options_.recorder_query,
                               1, 0, static_cast<int32_t>(slot));
  }
  {
    std::lock_guard<std::mutex> lock(sh.guest_mu);
    sh.guest_free.push_back(slot);
  }
  return ran;
}

// ---------------------------------------------------------------------
// Scheduling transitions.

void PipelineExecutor::OnOpEnded(uint32_t op_id) {
  Shared& sh = *shared_;
  std::unique_lock<std::mutex> lock(sh.state_mu);
  OpState& op = *sh.ops[op_id];
  if (op.ended.load()) return;
  op.ended.store(true);
  sh.ops_remaining.fetch_sub(1);

  // A finished cacheable build publishes its bucket tables: moved into a
  // shared entry (probes of this run read it via JoinTable) and inserted
  // into the session cache for overlapping/later queries. Safe under
  // state_mu — probes of this join only become consumable in the cascade
  // below, after the move.
  if (op.kind == COp::kBuild && sh.builds.publish[op.join]) {
    sh.builds.publish[op.join] = 0;
    auto published =
        std::make_shared<BucketTables>(std::move(sh.join_tables[op.join]));
    sh.join_tables[op.join] = BucketTables{};
    sh.builds.tables[op.join] = published;
    options_.build_cache->Publish(sh.builds.keys[op.join],
                                  std::move(published));
  }

  // Merge chain partials when a terminal op ends.
  if (sh.chain_terminal[op.chain] == op_id) {
    if (sh.materialized[op.chain]) {
      uint32_t width = sh.width_at[op.chain].back();
      Batch merged(width);
      size_t total = 0;
      for (const Batch& part : sh.chain_partials[op.chain]) {
        total += part.rows();
      }
      merged.Reserve(total);
      for (Batch& part : sh.chain_partials[op.chain]) {
        merged.data().insert(merged.data().end(), part.data().begin(),
                             part.data().end());
        part.Clear();
      }
      sh.chain_outputs[op.chain] = std::move(merged);
    }
  }

  // Cascade: unblock dependents, resolve their sources, end empty ops.
  std::vector<uint32_t> newly_ended;
  for (uint32_t i = 0; i < sh.ops.size(); ++i) {
    OpState& other = *sh.ops[i];
    if (other.ended.load() || other.consumable.load()) continue;
    bool ready = true;
    for (uint32_t b : other.blockers) {
      if (!sh.ops[b]->ended.load()) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    if (other.kind != COp::kProbe) {
      // Resolve the source BEFORE publishing consumable: workers read
      // src_batch/total_rows right after observing consumable == true
      // (the seq_cst store below is the release edge they synchronize
      // with), so these plain fields must be complete first.
      size_t morsels = ResolveSourceLocked(other);
      other.consumable.store(true);
      if (morsels == 0 && other.data_pending.load() == 0) {
        newly_ended.push_back(i);
      }
    } else {
      other.consumable.store(true);
      // A probe unblocked after its producer already ended with nothing
      // pending is itself finished.
      if (sh.ops[other.producer]->ended.load() &&
          other.data_pending.load() == 0) {
        newly_ended.push_back(i);
      }
    }
  }
  // A consumer probe whose producer just ended may already be drained.
  if (op.consumer != UINT32_MAX) {
    OpState& consumer = *sh.ops[op.consumer];
    if (!consumer.ended.load() && consumer.consumable.load() &&
        consumer.data_pending.load() == 0) {
      newly_ended.push_back(op.consumer);
    }
  }

  if (options_.strategy == LocalStrategy::kFP) RecomputeFpAssignment();

  if (sh.ops_remaining.load() == 0) {
    sh.done.store(true);
  }
  lock.unlock();
  sh.work_cv.notify_all();

  for (uint32_t e : newly_ended) OnOpEnded(e);
}

// FP: apportion threads across consumable, un-ended operators in
// proportion to cost estimates (largest remainder; every such op gets at
// least one thread when possible). Called under state_mu.
void PipelineExecutor::RecomputeFpAssignment() {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  std::vector<uint32_t> active;
  double total_cost = 0.0;
  for (uint32_t i = 0; i < sh.ops.size(); ++i) {
    OpState& op = *sh.ops[i];
    if (op.consumable.load() && !op.ended.load()) {
      active.push_back(i);
      total_cost += op.cost_estimate;
    }
  }
  for (auto& a : sh.fp_range) a.store(0);  // empty range
  if (active.empty()) return;
  auto pack = [](uint32_t lo, uint32_t hi) {
    return (static_cast<uint64_t>(lo) << 32) | hi;
  };
  if (active.size() >= T) {
    // More operators than threads: operator k shares thread k mod T.
    for (size_t k = 0; k < active.size(); ++k) {
      uint32_t t = static_cast<uint32_t>(k) % T;
      sh.fp_range[active[k]].store(pack(t, t + 1));
    }
    return;
  }
  // Largest-remainder apportionment with a floor of one thread per op.
  const uint32_t rest = T - static_cast<uint32_t>(active.size());
  std::vector<double> share(active.size());
  std::vector<uint32_t> extra(active.size(), 0);
  for (size_t k = 0; k < active.size(); ++k) {
    share[k] = total_cost > 0
                   ? sh.ops[active[k]]->cost_estimate / total_cost * rest
                   : static_cast<double>(rest) / active.size();
    extra[k] = static_cast<uint32_t>(share[k]);
  }
  uint32_t used = 0;
  for (uint32_t e : extra) used += e;
  std::vector<size_t> order(active.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (share[a] - extra[a]) > (share[b] - extra[b]);
  });
  for (size_t k = 0; k < order.size() && used < rest; ++k, ++used) {
    ++extra[order[k]];
  }
  uint32_t t = 0;
  for (size_t k = 0; k < active.size(); ++k) {
    uint32_t width = 1 + extra[k];
    sh.fp_range[active[k]].store(pack(t, t + width));
    t += width;
  }
}

uint32_t PipelineExecutor::QueueColumn(uint32_t dst_op,
                                       uint32_t bucket) const {
  const uint32_t T = options_.threads;
  if (options_.strategy == LocalStrategy::kFP &&
      shared_->ops[dst_op]->kind == COp::kProbe) {
    // The producer's column may belong to a thread that never runs the
    // probe: queue on one of the probe's own threads instead.
    uint64_t packed =
        shared_->fp_range[dst_op].load(std::memory_order_relaxed);
    uint32_t lo = static_cast<uint32_t>(packed >> 32);
    uint32_t hi = static_cast<uint32_t>(packed);
    if (hi > lo) return lo + bucket % (hi - lo);
  }
  return bucket % T;
}

bool PipelineExecutor::ThreadMayRun(uint32_t self, uint32_t op_id) const {
  if (options_.strategy != LocalStrategy::kFP) return true;
  uint64_t packed =
      shared_->fp_range[op_id].load(std::memory_order_relaxed);
  uint32_t lo = static_cast<uint32_t>(packed >> 32);
  uint32_t hi = static_cast<uint32_t>(packed);
  return lo <= self && self < hi;
}

// ---------------------------------------------------------------------
// Worker loop and activation selection.

void PipelineExecutor::WorkerLoop(uint32_t self) {
  Shared& sh = *shared_;
  ExecContext* ctx = sh.ctx;
  while (!sh.done.load(std::memory_order_acquire)) {
    // Cooperative cancellation, checked once per activation: the first
    // observer halts the whole run (Execute returns Status::Cancelled).
    if (ctx->StopRequested()) {
      sh.cancelled.store(true);
      {
        std::lock_guard<std::mutex> lock(sh.state_mu);
        sh.done.store(true);
      }
      sh.work_cv.notify_all();
      break;
    }
    if (!sh.outbox[self].empty()) FlushOutbox(self);
    if (RunOne(self)) {
      FlushOutbox(self);
    } else {
      sh.stat_idle.fetch_add(1, std::memory_order_relaxed);
      // Nothing runnable here: lend this beat to another in-flight query
      // (cross-query steal) before napping.
      if (ctx->Park()) continue;
      std::unique_lock<std::mutex> lock(sh.state_mu);
      sh.work_cv.wait_for(lock, std::chrono::microseconds(200));
    }
  }
}

// Selects and executes one activation. Returns false if no runnable work
// was found. Selection order implements the paper's priority scheme:
// primary queues first, then trigger work, then other threads' queues.
bool PipelineExecutor::RunOne(uint32_t self) {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  const uint32_t nops = static_cast<uint32_t>(sh.ops.size());
  // Queues only exist for the T rented workers; a guest slot (self >= T,
  // cross-query stealer) adopts a column as its primary.
  const uint32_t primary = self % T;

  // Pass 1: primary queues (this thread's column), then morsel claims.
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = (self + k) % nops;  // stagger start positions
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load()) continue;
    if (!ThreadMayRun(self, op_id)) continue;
    Activation act;
    if (sh.queues[op_id * T + primary]->TryPopFront(&act)) {
      ExecuteData(self, std::move(act));
      return true;
    }
  }
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = (self + k) % nops;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load()) continue;
    if (!ThreadMayRun(self, op_id)) continue;
    if (op.kind != COp::kProbe && ClaimMorsel(self, op_id)) {
      return true;
    }
  }
  // Pass 2: steal from other threads' queues (back pop).
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = (self + k) % nops;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load()) continue;
    if (!ThreadMayRun(self, op_id)) continue;
    for (uint32_t d = 1; d < T; ++d) {
      uint32_t t = (primary + d) % T;
      Activation act;
      if (sh.queues[op_id * T + t]->TryPopBack(&act)) {
        sh.stat_nonprimary.fetch_add(1, std::memory_order_relaxed);
        ExecuteData(self, std::move(act));
        return true;
      }
    }
  }
  return false;
}

bool PipelineExecutor::ClaimMorsel(uint32_t self, uint32_t op_id) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[op_id];
  size_t begin = op.morsel_cursor.fetch_add(options_.morsel_rows,
                                            std::memory_order_relaxed);
  if (begin >= op.total_rows) return false;
  size_t end = std::min<size_t>(begin + options_.morsel_rows, op.total_rows);
  ExecuteMorsel(self, op_id, begin, end);
  sh.stat_morsels.fetch_add(1, std::memory_order_relaxed);
  ++sh.busy[self];
  if (op.morsels_left.fetch_sub(1) == 1) {
    op.scatter_done.store(true);
    if (op.data_pending.load() == 0) OnOpEnded(op_id);
  }
  return true;
}

// ---------------------------------------------------------------------
// Operator bodies.

void PipelineExecutor::ExecuteMorsel(uint32_t self, uint32_t op_id,
                                     size_t begin, size_t end) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[op_id];
  const Batch& src = *op.src_batch;
  const uint32_t B = options_.buckets;
  const PipelinePlan& plan = *sh.plan;
  const Chain& chain = plan.chains[op.chain];
  const uint64_t tr0 = sh.trace != nullptr ? sh.trace->NowNs() : 0;
  const bool capturing = !sh.captures.empty();
  uint64_t rows_out = 0;

  // Scan-level predicates: a base table's rows are filtered where they
  // enter the pipeline, so rejected rows never cost a queue operation.
  const std::vector<Predicate>* preds =
      op.src.kind == Source::Kind::kTable ? plan.FiltersFor(op.src.index)
                                          : nullptr;
  // Column pruning: a table source with a projection emits only its kept
  // columns. Plan column references are already in projected coordinates,
  // so key columns map back to source coordinates while reading the
  // unprojected rows; chain sources were emitted pruned and need no map.
  const std::vector<uint32_t>* proj =
      op.src.kind == Source::Kind::kTable ? plan.ProjectionFor(op.src.index)
                                          : nullptr;
  const uint32_t out_w =
      proj != nullptr ? static_cast<uint32_t>(proj->size()) : src.width();
  auto src_col = [&](uint32_t col) {
    return proj != nullptr ? (*proj)[col] : col;
  };
  auto append = [&](Batch& b, const int64_t* row) {
    if (proj != nullptr) {
      b.AppendRowProjected(row, *proj);
    } else {
      b.AppendRow(row);
    }
  };
  // Front end shared by the branches below: one selection
  // vector over the morsel (per-predicate compare loops), then one hash
  // column over the survivors' key values. Leaves sc.sel/sc.hashes set;
  // returns the survivor count.
  auto select_and_hash = [&](auto& sc, uint32_t key_col,
                             bool want_hash) -> size_t {
    const size_t n = end - begin;
    size_t m = n;
    const uint32_t* selp = nullptr;
    if (preds != nullptr) {
      m = FilterBatch(src, begin, n, *preds, &sc.sel);
      sh.stat_filtered.fetch_add(n - m, std::memory_order_relaxed);
      selp = sc.sel.data();
    }
    if (want_hash) {
      sc.hashes.resize(m);
      HashStrided(src.data().data() + begin * src.width() + key_col,
                  src.width(), selp, m, sc.hashes.data());
    }
    return m;
  };

  if (op.kind == COp::kBuild) {
    // Scatter build rows into per-bucket insert batches.
    const JoinStep& js = chain.joins[op.step];
    auto& sc = sh.AcquireScratch(self, B);
    auto& scratch = sc.bucket;
    auto& hit = sc.hit;
    const size_t m = select_and_hash(sc, src_col(js.build_col), true);
    const uint32_t* selp = preds != nullptr ? sc.sel.data() : nullptr;
    for (size_t i = 0; i < m; ++i) {
      const int64_t* row = src.row(begin + (selp != nullptr ? selp[i] : i));
      uint32_t bucket = static_cast<uint32_t>(sc.hashes[i] % B);
      Batch& b = scratch[bucket];
      if (b.width() == 0) b = Batch(out_w);
      if (b.empty()) hit.push_back(bucket);
      append(b, row);
    }
    rows_out = m;
    for (uint32_t bucket : hit) {
      Emit(self, op_id, bucket, std::move(scratch[bucket]));
      scratch[bucket] = Batch();
    }
    hit.clear();
    sh.ReleaseScratch(self);
    if (sh.trace != nullptr) {
      TraceActivation(self, op_id, tr0, end - begin, rows_out);
    }
    return;
  }

  // Scan: pure-scan chains finalize directly; otherwise scatter into the
  // first probe's buckets.
  if (chain.joins.empty()) {
    const bool final_chain = op.chain + 1 == plan.chains.size();
    const bool to_agg = final_chain && sh.agg != nullptr;
    auto& sc = sh.AcquireScratch(self, B);
    const size_t m = select_and_hash(sc, 0, false);
    const uint32_t* selp = preds != nullptr ? sc.sel.data() : nullptr;
    rows_out = m;
    // Row pass over the (projected) chain-output rows: capture points
    // always, digest and materialized partials unless they aggregate.
    if (capturing || !to_agg) {
      std::vector<int64_t> buf;
      for (size_t i = 0; i < m; ++i) {
        const int64_t* row =
            src.row(begin + (selp != nullptr ? selp[i] : i));
        if (proj != nullptr) {
          buf.clear();
          for (uint32_t cc : *proj) buf.push_back(row[cc]);
          row = buf.data();
        }
        if (capturing) sh.OfferCapture(op.chain, 0, row, out_w);
        if (to_agg) continue;
        if (final_chain) sh.thread_digests[self].Add(row, out_w);
        if (sh.materialized[op.chain]) {
          Batch& part = sh.chain_partials[op.chain][self];
          if (part.width() == 0) part = Batch(out_w);
          part.AppendRow(row);
        }
      }
    }
    if (to_agg) {
      // Phase 1 of the two-phase aggregation, batched: one GroupHash
      // column plus column-at-a-time key gathers; the projection (if
      // any) maps the spec's pruned coordinates back to source ones.
      sh.agg_partials[self].AccumulateBatch(
          src, begin, selp, m, proj != nullptr ? proj->data() : nullptr,
          &sc.agg);
    }
    sh.ReleaseScratch(self);
    // A join-less chain's scan is its terminal op: the passing rows are
    // the chain's actual output cardinality.
    sh.chain_rows[op.chain * sh.slots + self] += rows_out;
    if (sh.trace != nullptr) {
      TraceActivation(self, op_id, tr0, end - begin, rows_out);
    }
    return;
  }
  // Scan feeding a probe: gather the selected (projected) rows into
  // pre-sized chunks of at most batch_rows rows and forward each; the
  // probe finds each row's bucket itself.
  auto& sc = sh.AcquireScratch(self, B);
  const size_t m = select_and_hash(sc, 0, false);
  const uint32_t* selp = preds != nullptr ? sc.sel.data() : nullptr;
  const uint32_t src_w = src.width();
  for (size_t at = 0; at < m; at += options_.batch_rows) {
    const size_t rows = std::min<size_t>(options_.batch_rows, m - at);
    Batch out(out_w);
    out.data().resize(rows * out_w);
    int64_t* dst = out.data().data();
    for (size_t i = at; i < at + rows; ++i, dst += out_w) {
      const int64_t* row = src.row(begin + (selp != nullptr ? selp[i] : i));
      if (proj != nullptr) {
        for (uint32_t c = 0; c < out_w; ++c) dst[c] = row[(*proj)[c]];
      } else {
        std::copy(row, row + src_w, dst);
      }
    }
    // Scan output = capture point 0 (the projected rows, which is what
    // the reference executor's scan batch holds).
    if (capturing) {
      for (size_t r = 0; r < rows; ++r) {
        sh.OfferCapture(op.chain, 0, out.row(r), out_w);
      }
    }
    Emit(self, op.consumer, self, std::move(out));
  }
  sh.ReleaseScratch(self);
  rows_out = m;
  if (sh.trace != nullptr) {
    TraceActivation(self, op_id, tr0, end - begin, rows_out);
  }
}

void PipelineExecutor::ExecuteData(uint32_t self, Activation&& act) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[act.op];
  const uint32_t B = options_.buckets;
  const PipelinePlan& plan = *sh.plan;
  const Chain& chain = plan.chains[op.chain];
  sh.stat_data.fetch_add(1, std::memory_order_relaxed);
  ++sh.busy[self];
  const uint64_t tr0 = sh.trace != nullptr ? sh.trace->NowNs() : 0;
  const bool capturing = !sh.captures.empty();
  const uint64_t rows_in = act.rows.rows();

  if (op.kind == COp::kBuild) {
    {
      RowTable& table = sh.join_tables[op.join][act.bucket];
      std::lock_guard<std::mutex> lock(*sh.bucket_mu[op.join][act.bucket]);
      table.InsertBatch(act.rows);
    }
    if (sh.trace != nullptr) {
      TraceActivation(self, act.op, tr0, rows_in, rows_in);
    }
    FinishActivation(act.op);
    return;
  }

  // Probe step: each row looks up its own bucket's table,
  // JoinTables(join)[hash % B] (shared cached tables or locally built).
  // Gather the key column, hash it in one pass, and turn the whole batch
  // into one match list (ProbeMatches); the consumers below work on that
  // list in bulk.
  const JoinStep& js = chain.joins[op.step];
  const BucketTables& tables = sh.JoinTables(op.join);
  const uint32_t in_width = act.rows.width();
  const uint32_t out_width = sh.width_at[op.chain][op.step + 1];
  const uint32_t build_width = out_width - in_width;
  const bool last_step = op.step + 1 == chain.joins.size();
  const bool final_chain = op.chain + 1 == plan.chains.size();
  auto& sc = sh.AcquireScratch(self, B);
  const size_t n = act.rows.rows();
  sc.keys.resize(n);
  sc.hashes.resize(n);
  GatherStrided(act.rows.data().data() + js.probe_col, in_width, nullptr, n,
                sc.keys.data());
  HashStrided(sc.keys.data(), 1, nullptr, n, sc.hashes.data());
  ProbeMatches(tables.data(), B, sc.keys.data(), sc.hashes.data(), n,
               &sc.probe, &sc.matches);
  const Matches& matches = sc.matches;
  const uint64_t produced = matches.size();
  // Output of probe step s (0-based) = capture point s + 1; the last
  // probe's output is the chain output (point J).
  auto offer = [&](const Batch& rows) {
    if (!capturing) return;
    for (size_t r = 0; r < rows.rows(); ++r) {
      sh.OfferCapture(op.chain, op.step + 1, rows.row(r), out_width);
    }
  };

  if (last_step) {
    // Join the matches into this slot's scratch batch, batch_rows rows
    // at a time, and fold each chunk into the slot's aggregate partial,
    // or into the digest and the materialized partial.
    AggTable* agg_part =
        final_chain && sh.agg != nullptr ? &sh.agg_partials[self] : nullptr;
    Batch* part = nullptr;
    if (agg_part == nullptr && sh.materialized[op.chain]) {
      part = &sh.chain_partials[op.chain][self];
      if (part->width() == 0) *part = Batch(out_width);
    }
    ResultDigest digest;
    ForEachJoinedChunk(
        act.rows, matches, 0, matches.size(), build_width,
        options_.batch_rows, &sc.joined, [&](Batch& chunk) {
          offer(chunk);
          if (agg_part != nullptr) {
            // Phase 1 of the two-phase aggregation.
            agg_part->AccumulateBatch(chunk, 0, nullptr, chunk.rows(),
                                      nullptr, &sc.agg);
            return;
          }
          if (final_chain) {
            digest.AddRows(chunk.data().data(), chunk.rows(), out_width);
          }
          if (part != nullptr) {
            part->AppendRows(chunk.data().data(), chunk.rows());
          }
        });
    sh.thread_digests[self].Merge(digest);
    // The last probe is its chain's terminal op: its output rows are the
    // chain's actual cardinality (pre-aggregation on agg plans).
    sh.chain_rows[op.chain * sh.slots + self] += produced;
  } else {
    // A non-final probe forwards its matches to the next probe in
    // batches of at most batch_rows rows.
    ForEachJoinedChunk(act.rows, matches, 0, matches.size(), build_width,
                       options_.batch_rows, &sc.joined, [&](Batch& chunk) {
                         offer(chunk);
                         Emit(self, op.consumer, self, std::move(chunk));
                       });
  }
  sh.ReleaseScratch(self);
  if (sh.trace != nullptr) {
    TraceActivation(self, act.op, tr0, rows_in, produced);
  }
  FinishActivation(act.op);
}

void PipelineExecutor::FinishActivation(uint32_t op_id) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[op_id];
  if (op.data_pending.fetch_sub(1) == 1) {
    bool producer_finished =
        op.kind == COp::kBuild
            ? op.scatter_done.load()
            : sh.ops[op.producer]->ended.load();
    if (producer_finished && op.consumable.load()) OnOpEnded(op_id);
  }
}

// Emits one data activation toward `dst_op`, queued on QueueColumn. A
// build insert passes its bucket; a probe batch, whose rows may span
// buckets, passes the producer's slot, so it lands on the producer's own
// column (under FP, on one of the probe's threads), where idle threads
// steal it. Operator bodies never block:
// if the destination queue is full, the activation is staged in the
// producing thread's outbox and FlushOutbox drains it at the top level —
// the iterative equivalent of the paper's procedure-call suspension
// (Section 3.1: a thread in a waiting situation suspends its current
// execution and processes another activation; here the suspended frame is
// the staged push rather than a nested stack frame, so the thread's stack
// stays bounded regardless of how long the pipeline is).
void PipelineExecutor::Emit(uint32_t self, uint32_t dst_op, uint32_t bucket,
                            Batch&& rows) {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  OpState& dst = *sh.ops[dst_op];
  dst.data_pending.fetch_add(1);
  sh.stat_emitted.fetch_add(1, std::memory_order_relaxed);
  Activation act;
  act.op = dst_op;
  act.bucket = bucket;
  act.rows = std::move(rows);
  uint32_t target = QueueColumn(dst_op, bucket);
  if (!sh.queues[dst_op * T + target]->TryPush(std::move(act),
                                               options_.queue_capacity)) {
    sh.stat_escapes.fetch_add(1, std::memory_order_relaxed);
    sh.outbox[self].push_back(std::move(act));
  }
}

// Drains this thread's outbox. While pushes are stuck the thread helps by
// executing other activations, subject to the flow-control rule that it
// never runs an operator *upstream* of a stuck destination in the same
// chain (that would only produce more input for the congested queue —
// the paper's "will not consume activations of the same operator" rule,
// generalized to whole upstream segments). Build operators are always
// allowed: they emit only to themselves. If nothing allowed is runnable
// for a long stretch (every remaining op is upstream of a stuck
// destination — possible only in degenerate schedules), the restriction
// is lifted so global progress is guaranteed; the outbox absorbs the
// overflow.
void PipelineExecutor::FlushOutbox(uint32_t self) {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  auto& outbox = sh.outbox[self];
  uint32_t stalls = 0;
  while (!outbox.empty()) {
    // A cancelled run abandons staged activations (the whole execution
    // is being torn down); normal completion never reaches done with a
    // non-empty outbox (pending activations keep their op alive).
    if (sh.cancelled.load(std::memory_order_relaxed)) return;
    // Try to push every staged activation once.
    size_t n = outbox.size();
    bool progressed = false;
    for (size_t i = 0; i < n;) {
      Activation& act = outbox[i];
      uint32_t target = QueueColumn(act.op, act.bucket);
      if (sh.queues[act.op * T + target]->TryPush(std::move(act),
                                                  options_.queue_capacity)) {
        outbox.erase(outbox.begin() + static_cast<long>(i));
        --n;
        progressed = true;
      } else {
        ++i;
      }
    }
    if (outbox.empty()) return;
    if (progressed) {
      stalls = 0;
      continue;
    }
    if (RunAllowedWhileStuck(self, /*unrestricted=*/stalls > 10000)) {
      stalls = 0;
      continue;
    }
    ++stalls;
    std::this_thread::yield();
  }
}

// Executes one activation (or build morsel) permitted while this thread
// has stuck pushes. Allowed: destination operators of stuck pushes (the
// most useful — draining them frees queue slots), any operator not
// upstream of a stuck destination in its chain, and all build operators.
// `unrestricted` lifts the upstream exclusion (progress valve).
bool PipelineExecutor::RunAllowedWhileStuck(uint32_t self,
                                            bool unrestricted) {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  const uint32_t nops = static_cast<uint32_t>(sh.ops.size());
  const bool fp = options_.strategy == LocalStrategy::kFP;

  // Per-chain minimum stuck position: ops of that chain strictly before
  // this position are forbidden (they would feed the congested queue).
  std::vector<uint32_t> min_stuck_pos(sh.chain_terminal.size(), UINT32_MAX);
  for (const Activation& act : sh.outbox[self]) {
    OpState& dst = *sh.ops[act.op];
    if (dst.kind == COp::kBuild) continue;  // self-feeding, nothing upstream
    uint32_t& cur = min_stuck_pos[dst.chain];
    cur = std::min(cur, dst.chain_pos);
  }

  auto allowed = [&](uint32_t op_id) {
    OpState& op = *sh.ops[op_id];
    if (op.kind == COp::kBuild || unrestricted) return true;
    return op.chain_pos >= min_stuck_pos[op.chain] ||
           min_stuck_pos[op.chain] == UINT32_MAX;
  };

  // Deepest operators first: executing the terminal op always shrinks the
  // backlog, so helping downstream-first keeps the outbox bounded.
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = nops - 1 - k;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load() || !allowed(op_id)) continue;
    if (fp) {
      // FP threads drain only destinations of their own stuck pushes.
      bool is_stuck_dst = false;
      for (const Activation& a : sh.outbox[self]) {
        if (a.op == op_id) {
          is_stuck_dst = true;
          break;
        }
      }
      if (!is_stuck_dst) continue;
    }
    for (uint32_t d = 0; d < T; ++d) {
      uint32_t t = (self + d) % T;
      Activation act;
      if (sh.queues[op_id * T + t]->TryPopFront(&act)) {
        if (fp) sh.stat_fp_safety.fetch_add(1, std::memory_order_relaxed);
        if (d != 0 && !fp) {
          sh.stat_nonprimary.fetch_add(1, std::memory_order_relaxed);
        }
        ExecuteData(self, std::move(act));
        return true;
      }
    }
  }
  if (fp) return false;
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = nops - 1 - k;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load() || !allowed(op_id)) continue;
    if (op.kind != COp::kProbe && ClaimMorsel(self, op_id)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Synchronous pipelining (SP).

Result<ResultDigest> PipelineExecutor::ExecuteSP(
    const PipelinePlan& plan, const std::vector<const Table*>& tables,
    PipelineStats* stats, Batch* out_rows) {
  ThreadSpawnContext fallback_ctx;
  ExecContext* ctx = options_.ctx != nullptr ? options_.ctx : &fallback_ctx;
  const uint32_t T = options_.threads;
  const uint32_t B = options_.buckets;
  const AggSpec* agg = plan.agg.has_value() ? &*plan.agg : nullptr;
  std::vector<bool> materialized = plan.MaterializedChains();
  if (out_rows != nullptr && agg == nullptr) materialized.back() = true;
  std::vector<Batch> chain_outputs(plan.chains.size());
  std::vector<ResultDigest> digests(T);
  std::vector<AggTable> agg_partials;
  if (agg != nullptr) {
    agg_partials.resize(T);
    for (AggTable& t : agg_partials) t.Init(agg);
  }
  std::vector<uint64_t> busy(T, 0);
  uint64_t morsel_count = 0;
  std::atomic<uint64_t> filtered{0};
  const bool capturing = !options_.captures.empty();

  // Tracing: SP has no per-activation queues, so spans are coarse — one
  // per (thread, phase): build phases on the build op's id, the fused
  // scan+probe walk on the scan op's id, using the same compiled-op
  // numbering as DP/FP (B(c,*), S(c), P(c,*)).
  obs::TraceSink* trace = options_.trace;
  if (trace != nullptr) trace->EnsureSlots(T);
  std::vector<uint32_t> op_base(plan.chains.size());
  {
    uint32_t base = 0;
    for (uint32_t c = 0; c < plan.chains.size(); ++c) {
      op_base[c] = base;
      base += 1 + 2 * static_cast<uint32_t>(plan.chains[c].joins.size());
    }
  }
  std::vector<uint64_t> chain_rows(plan.chains.size() * T, 0);

  // Build-side reuse, resolved up front so that an elided chain never
  // runs: a hit's tables come shared from the session cache, a builder's
  // are published as soon as they are built, and a concurrent query
  // already building a key is waited on instead of duplicated (see
  // BuildCache::Acquire).
  std::vector<uint32_t> build_op_of_join;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    for (uint32_t j = 0; j < plan.chains[c].joins.size(); ++j) {
      build_op_of_join.push_back(op_base[c] + j);
    }
  }
  ResolvedBuilds builds = ResolveBuilds(
      options_, plan, /*may_wait=*/true,
      [&](uint32_t g) { return build_op_of_join[g]; });
  auto cancelled = [&] {
    builds.AbandonPending(options_.build_cache);
    return Status::Cancelled("query cancelled during execution");
  };

  auto batch_of = [&](const Source& s) -> const Batch& {
    return s.kind == Source::Kind::kTable ? tables[s.index]->batch
                                          : chain_outputs[s.index];
  };
  auto filters_of = [&](const Source& s) -> const std::vector<Predicate>* {
    return s.kind == Source::Kind::kTable ? plan.FiltersFor(s.index)
                                          : nullptr;
  };
  uint32_t join_base = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const Chain& chain = plan.chains[c];
    const bool final_chain = c + 1 == plan.chains.size();
    const uint32_t g0 = join_base;
    join_base += static_cast<uint32_t>(chain.joins.size());
    if (builds.chain_reused[c]) continue;

    // Build phase: every join's bucket tables are either shared from the
    // session cache or built cooperatively (threads claim morsels, insert
    // under per-bucket locks) and, by a builder, published.
    std::vector<std::shared_ptr<const BucketTables>> join_tables(
        chain.joins.size());
    for (size_t j = 0; j < chain.joins.size(); ++j) {
      const uint32_t g = g0 + static_cast<uint32_t>(j);
      if (builds.tables[g] != nullptr) {
        join_tables[j] = builds.tables[g];
        continue;
      }
      const std::vector<Predicate>* build_preds =
          filters_of(chain.joins[j].build);
      const Batch& build = batch_of(chain.joins[j].build);
      // A pruned table build stores only its kept columns; the plan's
      // build_col indexes the projected row, so map it back to the source
      // coordinate for hashing the unprojected rows.
      const std::vector<uint32_t>* bproj =
          chain.joins[j].build.kind == Source::Kind::kTable
              ? plan.ProjectionFor(chain.joins[j].build.index)
              : nullptr;
      const uint32_t bw = bproj != nullptr
                              ? static_cast<uint32_t>(bproj->size())
                              : build.width();
      const uint32_t key_src = bproj != nullptr
                                   ? (*bproj)[chain.joins[j].build_col]
                                   : chain.joins[j].build_col;
      auto built = std::make_shared<BucketTables>(B);
      std::vector<std::unique_ptr<std::mutex>> bucket_mu(B);
      for (uint32_t b = 0; b < B; ++b) {
        (*built)[b].Init(bw, chain.joins[j].build_col);
        bucket_mu[b] = std::make_unique<std::mutex>();
      }
      std::atomic<size_t> cursor{0};
      ctx->SpawnWorkers(T, [&](uint32_t t) {
        // Scatter each morsel into local per-bucket batches, then take
        // each bucket lock once per morsel (amortized locking).
        std::vector<Batch> local(B);
        std::vector<uint32_t> touched;
        SelVec sel;
        std::vector<uint64_t> hashes;
        const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
        uint64_t acts = 0, rin = 0, rout = 0;
        auto scatter = [&](const int64_t* row, uint32_t bucket) {
          Batch& b = local[bucket];
          if (b.width() == 0) b = Batch(bw);
          if (b.empty()) touched.push_back(bucket);
          if (bproj != nullptr) {
            b.AppendRowProjected(row, *bproj);
          } else {
            b.AppendRow(row);
          }
          ++rout;
        };
        while (!ctx->StopRequested()) {
          size_t begin = cursor.fetch_add(options_.morsel_rows);
          if (begin >= build.rows()) break;
          size_t end =
              std::min<size_t>(begin + options_.morsel_rows, build.rows());
          const size_t n = end - begin;
          size_t m = n;
          const uint32_t* selp = nullptr;
          if (build_preds != nullptr) {
            m = FilterBatch(build, begin, n, *build_preds, &sel);
            filtered.fetch_add(n - m, std::memory_order_relaxed);
            selp = sel.data();
          }
          hashes.resize(m);
          HashStrided(build.data().data() + begin * build.width() + key_src,
                      build.width(), selp, m, hashes.data());
          for (size_t i = 0; i < m; ++i) {
            scatter(build.row(begin + (selp != nullptr ? selp[i] : i)),
                    static_cast<uint32_t>(hashes[i] % B));
          }
          for (uint32_t bucket : touched) {
            std::lock_guard<std::mutex> lock(*bucket_mu[bucket]);
            (*built)[bucket].InsertBatch(local[bucket]);
            local[bucket].Clear();
          }
          touched.clear();
          ++busy[t];
          ++acts;
          rin += end - begin;
        }
        if (trace != nullptr && acts > 0) {
          obs::TraceEvent ev;
          ev.worker = static_cast<int32_t>(t);
          ev.op = static_cast<int32_t>(op_base[c] + j);
          ev.start_ns = tr0;
          ev.end_ns = trace->NowNs();
          ev.activations = acts;
          ev.rows_in = rin;
          ev.rows_out = rout;
          ev.detail = ev.end_ns - ev.start_ns;
          trace->Record(t, ev);
        }
      });
      if (ctx->StopRequested()) return cancelled();
      if (builds.publish[g]) {
        builds.publish[g] = 0;
        options_.build_cache->Publish(builds.keys[g], built);
      }
      join_tables[j] = std::move(built);
      morsel_count +=
          (build.rows() + options_.morsel_rows - 1) / options_.morsel_rows;
    }

    // Probe phase: every thread drives scan morsels through the whole
    // chain with nested procedure calls.
    const std::vector<Predicate>* input_preds = filters_of(chain.input);
    const Batch& input = batch_of(chain.input);
    const std::vector<uint32_t>* iproj =
        chain.input.kind == Source::Kind::kTable
            ? plan.ProjectionFor(chain.input.index)
            : nullptr;
    const uint32_t in_w = iproj != nullptr
                              ? static_cast<uint32_t>(iproj->size())
                              : input.width();
    const uint32_t out_width = plan.OutputWidth(tables, c);
    const bool to_agg = final_chain && agg != nullptr;
    std::vector<Batch> partials(T);
    std::atomic<size_t> cursor{0};
    // Plan-point captures: row_buf's prefix at walk level `step` IS the
    // output of plan point `step` (0 = scan output, J = chain output), so
    // offering at each level covers every point exactly once per row.
    auto offer_capture = [&](uint32_t point, const int64_t* row,
                             uint32_t width) {
      for (const CaptureSink& cs : options_.captures) {
        if (cs.chain == c && cs.point == point && cs.sink != nullptr) {
          cs.sink->Offer(row, width);
        }
      }
    };
    ctx->SpawnWorkers(T, [&](uint32_t t) {
      std::vector<int64_t> row_buf(out_width);
      SelVec sel;
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      uint64_t acts = 0, rin = 0;
      uint64_t produced = 0;
      // Recursive pipeline walker: step j consumes the prefix of
      // row_buf filled so far.
      auto walk = [&](auto&& self_fn, size_t step,
                      uint32_t filled) -> void {
        if (capturing) {
          offer_capture(static_cast<uint32_t>(step), row_buf.data(), filled);
        }
        if (step == chain.joins.size()) {
          ++produced;
          if (to_agg) {
            agg_partials[t].Accumulate(row_buf.data());
            return;
          }
          if (final_chain) digests[t].Add(row_buf.data(), filled);
          if (materialized[c]) {
            Batch& part = partials[t];
            if (part.width() == 0) part = Batch(out_width);
            part.AppendRow(row_buf.data());
          }
          return;
        }
        const JoinStep& js = chain.joins[step];
        uint32_t bucket = static_cast<uint32_t>(
            HashKey(row_buf[js.probe_col]) % B);
        const RowTable& table = (*join_tables[step])[bucket];
        table.ForEachMatch(row_buf[js.probe_col], [&](const int64_t* brow) {
          std::copy(brow, brow + table.width(),
                    row_buf.begin() + filled);
          self_fn(self_fn, step + 1, filled + table.width());
        });
      };
      while (!ctx->StopRequested()) {
        size_t begin = cursor.fetch_add(options_.morsel_rows);
        if (begin >= input.rows()) break;
        size_t end =
            std::min<size_t>(begin + options_.morsel_rows, input.rows());
        const size_t n = end - begin;
        size_t m = n;
        const uint32_t* selp = nullptr;
        if (input_preds != nullptr) {
          m = FilterBatch(input, begin, n, *input_preds, &sel);
          filtered.fetch_add(n - m, std::memory_order_relaxed);
          selp = sel.data();
        }
        for (size_t k = 0; k < m; ++k) {
          const int64_t* row = input.row(begin + (selp != nullptr ? selp[k] : k));
          if (iproj != nullptr) {
            for (uint32_t cc = 0; cc < in_w; ++cc) {
              row_buf[cc] = row[(*iproj)[cc]];
            }
          } else {
            std::copy(row, row + in_w, row_buf.begin());
          }
          walk(walk, 0, in_w);
        }
        ++busy[t];
        ++acts;
        rin += end - begin;
      }
      chain_rows[c * T + t] += produced;
      if (trace != nullptr && acts > 0) {
        // The fused scan+probe walk reports on the chain's scan op.
        obs::TraceEvent ev;
        ev.worker = static_cast<int32_t>(t);
        ev.op = static_cast<int32_t>(
            op_base[c] + static_cast<uint32_t>(chain.joins.size()));
        ev.start_ns = tr0;
        ev.end_ns = trace->NowNs();
        ev.activations = acts;
        ev.rows_in = rin;
        ev.rows_out = produced;
        ev.detail = ev.end_ns - ev.start_ns;
        trace->Record(t, ev);
      }
    });
    if (ctx->StopRequested()) return cancelled();
    morsel_count +=
        (input.rows() + options_.morsel_rows - 1) / options_.morsel_rows;

    if (materialized[c]) {
      Batch merged(out_width);
      for (Batch& part : partials) {
        merged.data().insert(merged.data().end(), part.data().begin(),
                             part.data().end());
      }
      chain_outputs[c] = std::move(merged);
    }
  }

  // Phase 2 of aggregation, mirroring the DP/FP merge: workers claim
  // group-hash partitions and merge every thread's share of them.
  uint64_t agg_groups = 0, agg_partial_entries = 0;
  std::vector<ResultDigest> agg_digests;
  std::vector<Batch> agg_rows;
  if (agg != nullptr) {
    for (const AggTable& t : agg_partials) agg_partial_entries += t.groups();
    // Same partition clamp as the DP/FP merge (see Execute).
    const uint32_t P = std::min(B, std::max(16u, 4 * T));
    std::vector<AggTable> finals(P);
    for (AggTable& t : finals) t.Init(agg);
    agg_digests.assign(P, {});
    agg_rows.assign(P, Batch());
    const bool want_rows = out_rows != nullptr;
    std::atomic<uint32_t> part_cursor{0};
    std::atomic<bool> merge_cancelled{false};
    ctx->SpawnWorkers(T, [&](uint32_t) {
      for (;;) {
        if (ctx->StopRequested()) {
          merge_cancelled.store(true);
          return;
        }
        uint32_t p = part_cursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= P) return;
        for (const AggTable& part : agg_partials) {
          part.ForEachPartial(p, P, [&](const int64_t* row) {
            finals[p].MergePartial(row);
          });
        }
        finals[p].EmitFinal(want_rows ? &agg_rows[p] : nullptr,
                            &agg_digests[p]);
      }
    });
    if (merge_cancelled.load()) {
      return Status::Cancelled("query cancelled during aggregation");
    }
    for (const AggTable& t : finals) agg_groups += t.groups();
  }

  ResultDigest digest;
  for (const auto& d : digests) digest.Merge(d);
  for (const auto& d : agg_digests) digest.Merge(d);
  if (out_rows != nullptr) {
    if (agg != nullptr) {
      Batch out(agg->OutputWidth());
      for (Batch& part : agg_rows) {
        out.data().insert(out.data().end(), part.data().begin(),
                          part.data().end());
      }
      *out_rows = std::move(out);
    } else {
      *out_rows = std::move(chain_outputs.back());
    }
  }
  if (stats != nullptr) {
    *stats = PipelineStats{};
    stats->morsels = morsel_count;
    stats->build_cache_hits = builds.hits;
    stats->build_cache_misses = builds.misses;
    stats->chain_reused = builds.chain_reused;
    stats->rows_filtered = filtered.load();
    stats->agg_groups = agg_groups;
    stats->agg_partials = agg_partial_entries;
    stats->busy_per_thread = busy;
    stats->rows_per_chain.assign(plan.chains.size(), 0);
    for (uint32_t c = 0; c < plan.chains.size(); ++c) {
      for (uint32_t t = 0; t < T; ++t) {
        stats->rows_per_chain[c] += chain_rows[c * T + t];
      }
    }
  }
  return digest;
}

}  // namespace hierdb::mt
