#include "mt/node_engine.h"

#include <algorithm>
#include <chrono>

namespace hierdb::mt {

uint32_t CompiledOpCount(const PipelinePlan& plan) {
  uint32_t n = 0;
  for (const Chain& c : plan.chains) {
    n += 3 * static_cast<uint32_t>(c.joins.size()) + 1;
  }
  return n;
}

std::vector<uint32_t> ChainOpBases(const PipelinePlan& plan) {
  std::vector<uint32_t> bases;
  uint32_t base = 0;
  for (const Chain& c : plan.chains) {
    bases.push_back(base);
    base += 3 * static_cast<uint32_t>(c.joins.size()) + 1;
  }
  return bases;
}

double MaxOverMean(const std::vector<uint64_t>& busy) {
  uint64_t max = 0, sum = 0;
  for (uint64_t b : busy) {
    max = std::max(max, b);
    sum += b;
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(max) * static_cast<double>(busy.size()) /
         static_cast<double>(sum);
}

void ResolvedBuilds::AbandonPending(BuildCache* cache) {
  for (size_t g = 0; g < publish.size(); ++g) {
    if (publish[g] && cache != nullptr) cache->Abandon(keys[g]);
    publish[g] = 0;
  }
}

ResolvedBuilds ResolveBuilds(const EngineOptions& options,
                             const PipelinePlan& plan, bool may_wait) {
  const uint32_t C = static_cast<uint32_t>(plan.chains.size());
  const std::vector<uint32_t> op_base = ChainOpBases(plan);
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
    if (chain.input.kind == Source::Kind::kChain) {
      runs[chain.input.index] = true;
    }
    const uint32_t k = static_cast<uint32_t>(chain.joins.size());
    for (uint32_t j = 0; j < k; ++j) {
      const JoinStep& js = chain.joins[j];
      const uint32_t g = join_base[c] + j;
      const uint32_t build_op = op_base[c] + k + j;
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
        if (options.recorder != nullptr) {
          options.recorder->Instant(kind, options.recorder_query, 0, 0, -1,
                                    static_cast<int32_t>(build_op));
        }
      }
      if (!hit && js.build.kind == Source::Kind::kChain) {
        runs[js.build.index] = true;
      }
    }
  }
  return out;
}

Status MergeAggPartitions(ExecContext* ctx, uint32_t workers,
                          uint32_t buckets, const AggSpec* spec,
                          const std::vector<const AggTable*>& partials,
                          ResultDigest* digest, uint64_t* groups,
                          Batch* rows) {
  // Enough partitions for parallelism (a few per worker), but clamped
  // below the join fragmentation degree: every partition re-scans every
  // partial table, so the scan work grows with P.
  const uint32_t P = std::min(buckets, std::max(16u, 4 * workers));
  std::vector<AggTable> finals(P);
  for (AggTable& t : finals) t.Init(spec);
  std::vector<Batch> part_rows(P);
  std::vector<ResultDigest> part_digests(P);
  std::atomic<uint32_t> cursor{0};
  std::atomic<bool> cancelled{false};
  ctx->SpawnWorkers(workers, [&](uint32_t) {
    for (;;) {
      if (ctx->StopRequested()) {
        cancelled.store(true);
        return;
      }
      const uint32_t p = cursor.fetch_add(1, std::memory_order_relaxed);
      if (p >= P) return;
      for (const AggTable* part : partials) {
        part->ForEachPartial(p, P, [&](const int64_t* row) {
          finals[p].MergePartial(row);
        });
      }
      finals[p].EmitFinal(rows != nullptr ? &part_rows[p] : nullptr,
                          &part_digests[p]);
    }
  });
  if (cancelled.load()) {
    return Status::Cancelled("query cancelled during aggregation");
  }
  for (uint32_t p = 0; p < P; ++p) {
    *groups += finals[p].groups();
    digest->Merge(part_digests[p]);
  }
  if (rows != nullptr) {
    Batch out(spec->OutputWidth());
    size_t total = 0;
    for (const Batch& part : part_rows) total += part.rows();
    out.Reserve(total);
    for (const Batch& part : part_rows) {
      out.data().insert(out.data().end(), part.data().begin(),
                        part.data().end());
    }
    *rows = std::move(out);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Engine state.

class NodeEngine::Queue {
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

struct NodeEngine::Op {
  Kind kind = Kind::kScan;
  uint32_t chain = 0;
  uint32_t step = 0;  // buildscan/build/probe: join index in the chain
  uint32_t join = 0;  // global join id
  std::vector<uint32_t> blockers;
  uint32_t producer = UINT32_MAX;  // op feeding our data activations
  uint32_t consumer = UINT32_MAX;  // op consuming our output
  uint32_t chain_pos = 0;          // scan = 0, probe j = j + 1
  double cost = 0.0;               // FP allocation weight

  // Trigger work: morsels over a source batch, resolved when the op
  // unblocks (a chain output is complete only then).
  Source src;
  const Batch* src_batch = nullptr;
  size_t total_rows = 0;
  std::atomic<size_t> cursor{0};
  std::atomic<int64_t> morsels_left{0};

  std::atomic<int64_t> pending{0};  // queued + staged + running batches
  std::atomic<bool> consumable{false};
  std::atomic<bool> terminated{false};
};

// Per-slot scratch, pooled by re-entrancy depth (SP's inline hand-offs
// nest activation executions, at most one level per join).
struct NodeEngine::Scratch {
  std::vector<Batch> bucket;  // buildscan: per-bucket insert batches
  std::vector<uint32_t> hit;
  // Vectorized data plane: selection vector, hash column and gathered
  // key column reused across activations (mt/column_batch.h kernels).
  SelVec sel;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> keys;
  AggTable::Scratch agg;
  // Destination split: per row its node, the rows (or matches) grouped
  // by node, and each node's run bounds.
  std::vector<uint32_t> dest;
  std::vector<uint32_t> order;
  std::vector<size_t> start;
  std::vector<size_t> at;
  // Probe kernel: active-row lists, the match list, its copy grouped by
  // destination node, and the joined rows of one chunk.
  ProbeScratch probe;
  Matches matches;
  Matches routed;
  Batch joined;
};

Status NodeEngine::CheckOptions(const EngineOptions& options,
                                const PipelinePlan& plan) {
  if (!options.fp_cost_distortion.empty() &&
      options.fp_cost_distortion.size() != CompiledOpCount(plan)) {
    return Status::InvalidArgument(
        "fp_cost_distortion size != compiled op count");
  }
  return Status::OK();
}

NodeEngine::NodeEngine(const EngineOptions& options, const PipelinePlan& plan,
                       std::vector<const Batch*> table_rows,
                       const std::vector<uint32_t>& table_widths,
                       const ResolvedBuilds* builds, Config config,
                       Link* link, IdleSignal* idle)
    : opt_(options),
      plan_(plan),
      table_rows_(std::move(table_rows)),
      builds_(builds),
      cfg_(config),
      link_(link),
      ctx_(options.ctx),
      sp_(options.strategy == LocalStrategy::kSP),
      agg_(plan.agg.has_value() ? &*plan.agg : nullptr),
      slots_(options.threads + config.guests),
      idle_(idle) {
  const uint32_t C = static_cast<uint32_t>(plan.chains.size());
  const uint32_t T = opt_.threads;
  const uint32_t B = opt_.buckets;
  const std::vector<uint32_t> op_base = ChainOpBases(plan);
  const uint32_t nops = CompiledOpCount(plan);
  ops_.resize(nops);
  for (auto& op : ops_) op = std::make_unique<Op>();
  chain_terminal_.resize(C);
  width_at_.resize(C);
  materialized_ = plan.MaterializedChains();
  if (cfg_.keep_final && agg_ == nullptr && C > 0) materialized_.back() = true;

  // Source widths (a projected table emits only its kept columns) and
  // row estimates for FP: exact for base tables; a chain intermediate,
  // unknown until it runs, stands in with its own input's estimate.
  auto src_width = [&](const Source& s) -> uint32_t {
    return s.kind == Source::Kind::kTable
               ? plan.EffectiveTableWidth(s.index, table_widths[s.index])
               : width_at_[s.index].back();
  };
  auto est_rows = [&](auto&& self, const Source& s) -> double {
    if (s.kind == Source::Kind::kTable) {
      return static_cast<double>(table_rows_[s.index]->rows());
    }
    return self(self, plan.chains[s.index].input);
  };

  for (uint32_t c = 0; c < C; ++c) {
    const Chain& chain = plan.chains[c];
    const uint32_t k = static_cast<uint32_t>(chain.joins.size());
    const uint32_t base = op_base[c];
    const uint32_t scan = base + 2 * k;
    width_at_[c].push_back(src_width(chain.input));
    for (const JoinStep& js : chain.joins) {
      width_at_[c].push_back(width_at_[c].back() + src_width(js.build));
      join_steps_.push_back(&js);
    }
    std::vector<uint32_t> stage_gate;  // H2: the previous chain
    if (opt_.apply_h2 && c > 0) stage_gate.push_back(chain_terminal_[c - 1]);
    const double input_cost = est_rows(est_rows, chain.input) + 1.0;
    for (uint32_t j = 0; j < k; ++j) {
      const Source& bsrc = chain.joins[j].build;
      std::vector<uint32_t> gates = stage_gate;
      if (bsrc.kind == Source::Kind::kChain) {
        gates.push_back(chain_terminal_[bsrc.index]);
      }
      const double cost = est_rows(est_rows, bsrc) + 1.0;
      Op& bs = *ops_[base + j];
      bs.kind = Kind::kBuildScan;
      bs.src = bsrc;
      bs.consumer = base + k + j;
      Op& b = *ops_[base + k + j];
      b.kind = Kind::kBuild;
      b.producer = base + j;
      for (Op* o : {&bs, &b}) {
        o->chain = c;
        o->step = j;
        o->join = njoins_ + j;
        o->blockers = gates;
        o->cost = cost;
      }
    }
    Op& s = *ops_[scan];
    s.kind = Kind::kScan;
    s.chain = c;
    s.src = chain.input;
    s.cost = input_cost;
    s.blockers = stage_gate;
    if (chain.input.kind == Source::Kind::kChain) {
      s.blockers.push_back(chain_terminal_[chain.input.index]);
    }
    if (opt_.apply_h1 || sp_) {
      for (uint32_t j = 0; j < k; ++j) s.blockers.push_back(base + k + j);
    }
    if (k > 0) s.consumer = scan + 1;
    for (uint32_t j = 0; j < k; ++j) {
      Op& p = *ops_[scan + 1 + j];
      p.kind = Kind::kProbe;
      p.chain = c;
      p.step = j;
      p.join = njoins_ + j;
      p.chain_pos = j + 1;
      p.cost = input_cost;
      p.blockers = {base + k + j};  // the hash constraint
      p.producer = scan + j;
      if (j + 1 < k) p.consumer = scan + 2 + j;
      probe_ops_.push_back(scan + 1 + j);
    }
    chain_terminal_[c] = scan + k;
    njoins_ += k;
  }
  // CheckOptions: empty, or one factor per op.
  for (size_t i = 0; i < opt_.fp_cost_distortion.size(); ++i) {
    ops_[i]->cost *= opt_.fp_cost_distortion[i];
  }

  // Build reuse: a hit join's buildscan and build, and every op of an
  // elided chain, start terminated.
  for (uint32_t i = 0; i < nops; ++i) {
    Op& op = *ops_[i];
    const bool born =
        builds_->chain_reused[op.chain] ||
        ((op.kind == Kind::kBuildScan || op.kind == Kind::kBuild) &&
         builds_->tables[op.join] != nullptr);
    op.terminated.store(born);
    if (!born) ++ops_remaining_;
  }

  queues_.reserve(static_cast<size_t>(nops) * T);
  for (uint32_t i = 0; i < nops * T; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  // Tables span all B buckets, so that the probe kernel indexes them by
  // hash % B; only this node's home buckets are initialized and filled.
  tables_.resize(njoins_);
  bucket_mu_.resize(njoins_);
  const uint32_t home_buckets = (B + cfg_.nodes - 1) / cfg_.nodes;
  for (uint32_t c = 0; c < C; ++c) {
    const uint32_t k = static_cast<uint32_t>(plan.chains[c].joins.size());
    for (uint32_t j = 0; j < k; ++j) {
      const Op& build = *ops_[op_base[c] + k + j];
      if (build.terminated.load()) continue;  // shared or elided
      const uint32_t g = build.join;
      tables_[g].resize(B);
      bucket_mu_[g] = std::make_unique<std::mutex[]>(home_buckets);
      for (uint32_t b = cfg_.node; b < B; b += cfg_.nodes) {
        tables_[g][b].Init(width_at_[c][j + 1] - width_at_[c][j],
                           plan.chains[c].joins[j].build_col);
      }
    }
  }
  // A hit published by another node count carries no index for this
  // node's home buckets: check them for this run (Start unblocks the
  // probe). A local build gets its index when its build op terminates.
  dense_.resize(njoins_);
  for (uint32_t g = 0; g < njoins_; ++g) {
    const auto& shared = builds_->tables[g];
    if (shared != nullptr && shared->dense.size() != cfg_.nodes) {
      dense_[g].Build(shared->tables.data(), B, cfg_.node, cfg_.nodes);
    }
  }

  for (uint32_t g = T; g < slots_; ++g) guest_free_.push_back(g);
  outbox_.resize(slots_);
  scratch_pool_.resize(slots_);
  scratch_depth_.assign(slots_, 0);
  digests_.assign(slots_, {});
  if (agg_ != nullptr) {
    agg_partials_.resize(slots_);
    for (AggTable& t : agg_partials_) t.Init(agg_);
  }
  chain_partials_.assign(C, std::vector<Batch>(slots_));
  chain_outputs_.resize(C);
  busy_.assign(slots_, 0);
  chain_rows_.assign(static_cast<size_t>(C) * slots_, 0);
  if (opt_.recorder != nullptr &&
      opt_.recorder->Tracing(opt_.recorder_query)) {
    trace_ = opt_.recorder;
    trace_cells_.assign(static_cast<size_t>(slots_) * nops, obs::OpSpanAgg{});
    traced_ns_.assign(slots_, 0);
  }
  fp_range_ = std::vector<std::atomic<uint64_t>>(nops);
  for (auto& r : fp_range_) r.store(0);
}

NodeEngine::~NodeEngine() = default;

NodeEngine::Kind NodeEngine::kind(uint32_t op) const { return ops_[op]->kind; }
uint32_t NodeEngine::JoinOf(uint32_t op) const { return ops_[op]->join; }
bool NodeEngine::Terminated(uint32_t op) const {
  return ops_[op]->terminated.load(std::memory_order_acquire);
}
bool NodeEngine::Consumable(uint32_t op) const {
  return ops_[op]->consumable.load(std::memory_order_acquire);
}
void NodeEngine::AddPending(uint32_t op, int64_t delta) {
  ops_[op]->pending.fetch_add(delta);
}

const RowTable* NodeEngine::JoinTables(uint32_t join) const {
  const auto& shared = builds_->tables[join];
  return shared != nullptr ? shared->tables.data() : tables_[join].data();
}

const DenseIndex& NodeEngine::JoinIndex(uint32_t join) const {
  const auto& shared = builds_->tables[join];
  return shared != nullptr && shared->dense.size() == cfg_.nodes
             ? shared->dense[cfg_.node]
             : dense_[join];
}

BucketTables NodeEngine::TakeTables(uint32_t join) {
  BucketTables out = std::move(tables_[join]);
  tables_[join] = BucketTables{};
  return out;
}

DenseIndex NodeEngine::TakeIndex(uint32_t join) {
  DenseIndex out = std::move(dense_[join]);
  dense_[join] = DenseIndex{};
  return out;
}

// ---------------------------------------------------------------------
// Unblocking and termination.

void NodeEngine::ResolveSourceLocked(Op& op) {
  op.src_batch = op.src.kind == Source::Kind::kTable
                     ? table_rows_[op.src.index]
                     : &chain_outputs_[op.src.index];
  op.total_rows = op.src_batch->rows();
  op.morsels_left.store(static_cast<int64_t>(
      (op.total_rows + opt_.morsel_rows - 1) / opt_.morsel_rows));
}

// Ops are published consumable in reverse id order: a consumer follows
// its producer in the op space, so a worker that sees a trigger
// consumable sees every consumer unblocked in the same pass too (SP's
// inline hand-offs rely on it).
void NodeEngine::UnblockLocked() {
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    Op& op = **it;
    if (op.terminated.load() || op.consumable.load()) continue;
    bool ready = true;
    for (uint32_t b : op.blockers) ready &= ops_[b]->terminated.load();
    if (!ready) continue;
    // Resolve the source BEFORE publishing consumable: workers read
    // src_batch/total_rows right after observing consumable == true.
    if (op.kind == Kind::kBuildScan || op.kind == Kind::kScan) {
      ResolveSourceLocked(op);
    }
    op.consumable.store(true);
  }
}

void NodeEngine::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    UnblockLocked();
    if (opt_.strategy == LocalStrategy::kFP) RecomputeFpLocked();
    if (ops_remaining_ == 0) done_.store(true);
  }
  for (uint32_t i = 0; i < nops(); ++i) MaybeDrained(i);
}

bool NodeEngine::Drained(uint32_t op) const {
  const Op& o = *ops_[op];
  if (!o.consumable.load()) return false;
  if (o.kind == Kind::kBuildScan || o.kind == Kind::kScan) {
    return o.morsels_left.load() == 0;
  }
  return ops_[o.producer]->terminated.load() && o.pending.load() == 0;
}

void NodeEngine::MaybeDrained(uint32_t op) {
  if (!Terminated(op) && Drained(op)) link_->OnDrained(op);
}

void NodeEngine::Terminate(uint32_t op_id) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    Op& op = *ops_[op_id];
    if (op.terminated.load()) return;
    // A chain terminal freezes this node's share of the chain output.
    if (chain_terminal_[op.chain] == op_id && materialized_[op.chain]) {
      Batch merged(width_at_[op.chain].back());
      size_t total = 0;
      for (const Batch& part : chain_partials_[op.chain]) total += part.rows();
      merged.Reserve(total);
      for (Batch& part : chain_partials_[op.chain]) {
        merged.data().insert(merged.data().end(), part.data().begin(),
                             part.data().end());
        part = Batch();
      }
      chain_outputs_[op.chain] = std::move(merged);
    }
    // A completed build is checked for a unique, dense key over this
    // node's home buckets before its probe can unblock (and before the
    // link may publish the index with the tables).
    if (op.kind == Kind::kBuild) {
      dense_[op.join].Build(tables_[op.join].data(), opt_.buckets, cfg_.node,
                            cfg_.nodes);
    }
    link_->OnTerminating(op_id);
    op.terminated.store(true);
    --ops_remaining_;
    UnblockLocked();
    if (opt_.strategy == LocalStrategy::kFP) RecomputeFpLocked();
    if (ops_remaining_ == 0) done_.store(true);
  }
  idle_->SignalAll();
  for (uint32_t i = 0; i < nops(); ++i) MaybeDrained(i);
}

void NodeEngine::Cancel() {
  cancelled_.store(true);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    done_.store(true);
  }
  idle_->SignalAll();
}

// FP: apportion threads across the consumable, unterminated ops in
// proportion to cost estimates (largest remainder; every such op gets at
// least one thread when possible).
void NodeEngine::RecomputeFpLocked() {
  const uint32_t T = opt_.threads;
  std::vector<uint32_t> active;
  double total_cost = 0.0;
  for (uint32_t i = 0; i < nops(); ++i) {
    const Op& op = *ops_[i];
    if (op.consumable.load() && !op.terminated.load()) {
      active.push_back(i);
      total_cost += op.cost;
    }
  }
  for (auto& r : fp_range_) r.store(0);  // empty range
  if (active.empty()) return;
  auto pack = [](uint32_t lo, uint32_t hi) {
    return (static_cast<uint64_t>(lo) << 32) | hi;
  };
  if (active.size() >= T) {
    // More operators than threads: operator k shares thread k mod T.
    for (size_t k = 0; k < active.size(); ++k) {
      const uint32_t t = static_cast<uint32_t>(k) % T;
      fp_range_[active[k]].store(pack(t, t + 1));
    }
    return;
  }
  const uint32_t rest = T - static_cast<uint32_t>(active.size());
  std::vector<double> share(active.size());
  std::vector<uint32_t> extra(active.size(), 0);
  uint32_t used = 0;
  for (size_t k = 0; k < active.size(); ++k) {
    share[k] = total_cost > 0
                   ? ops_[active[k]]->cost / total_cost * rest
                   : static_cast<double>(rest) / active.size();
    extra[k] = static_cast<uint32_t>(share[k]);
    used += extra[k];
  }
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
    fp_range_[active[k]].store(pack(t, t + 1 + extra[k]));
    t += 1 + extra[k];
  }
}

bool NodeEngine::MayRun(uint32_t slot, uint32_t op) const {
  if (opt_.strategy != LocalStrategy::kFP) return true;
  const uint64_t packed = fp_range_[op].load(std::memory_order_relaxed);
  const uint32_t lo = static_cast<uint32_t>(packed >> 32);
  const uint32_t hi = static_cast<uint32_t>(packed);
  return lo <= slot && slot < hi;
}

// `hint` mod T: the bucket of a build insert or of a stolen piece, the
// producing slot of a mixed batch (a round-robin count for one that
// arrived from another node). Under FP a probe activation goes to one of
// the probe's own threads instead, so that it is not stranded on a
// column whose thread never runs the probe.
uint32_t NodeEngine::QueueColumn(uint32_t op, uint32_t hint) const {
  if (opt_.strategy == LocalStrategy::kFP && kind(op) == Kind::kProbe) {
    const uint64_t packed = fp_range_[op].load(std::memory_order_relaxed);
    const uint32_t lo = static_cast<uint32_t>(packed >> 32);
    const uint32_t hi = static_cast<uint32_t>(packed);
    if (hi > lo) return lo + hint % (hi - lo);
  }
  return hint % opt_.threads;
}

size_t NodeEngine::QueuedCount(uint32_t op) const {
  size_t n = 0;
  for (uint32_t t = 0; t < opt_.threads; ++t) {
    n += queues_[op * opt_.threads + t]->ApproxSize();
  }
  return n;
}

void NodeEngine::Receive(uint32_t op, uint32_t bucket, Batch&& rows) {
  ops_[op]->pending.fetch_add(1);
  const uint32_t hint = bucket == kMixed ? rx_hint_++ : bucket;
  Activation act{op, bucket, QueueColumn(op, hint), std::move(rows)};
  if (queues_[op * opt_.threads + act.column]->TryPush(
          std::move(act), opt_.queue_capacity)) {
    idle_->Signal();
  } else {
    inbox_.push_back(std::move(act));
  }
}

bool NodeEngine::FlushInbox() {
  bool moved = false;
  for (size_t i = 0; i < inbox_.size();) {
    Activation& act = inbox_[i];
    if (queues_[act.op * opt_.threads + act.column]->TryPush(
            std::move(act), opt_.queue_capacity)) {
      inbox_.erase(inbox_.begin() + static_cast<long>(i));
      idle_->Signal();
      moved = true;
    } else {
      ++i;
    }
  }
  return moved;
}

bool NodeEngine::TakeQueued(uint32_t op, uint32_t column, Activation* out) {
  return queues_[op * opt_.threads + column]->TryPopBack(out);
}

// ---------------------------------------------------------------------
// Workers.

bool NodeEngine::Pass(uint32_t slot) {
  if (done_.load(std::memory_order_acquire)) return false;
  // Cooperative cancellation, checked once per activation: the first
  // observer halts the whole run.
  if (ctx_->StopRequested()) {
    link_->Stop();
    return false;
  }
  // A slot whose staged pushes are still stuck takes no new work.
  if (!outbox_[slot].empty() && !FlushOutbox(slot)) return false;
  const bool ran = RunOne(slot);
  if (ran) FlushOutbox(slot);
  link_->AfterPass(slot, ran);
  if (!ran) stat_idle_.fetch_add(1, std::memory_order_relaxed);
  return ran;
}

void NodeEngine::WorkerLoop(uint32_t slot) {
  while (!done_.load(std::memory_order_acquire)) {
    const uint64_t seen = idle_->Epoch();
    if (!Pass(slot)) IdleWait(seen);
  }
}

void NodeEngine::IdleWait(uint64_t seen) {
  // Nothing runnable here: lend this beat to another in-flight query
  // (cross-query steal) before waiting.
  if (ctx_->Park()) return;
  if (!idle_->Wait(seen, std::chrono::microseconds(kIdleNetUs))) {
    stat_idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
}

// A foreign thread (idle pool worker or a parked worker of another
// execution) borrows a guest slot and runs at most one activation of this
// query — the paper's consumption hierarchy extended past the query
// boundary.
bool NodeEngine::RunForeign() {
  if (done_.load(std::memory_order_acquire)) return false;
  uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(guest_mu_);
    if (guest_free_.empty()) return false;
    slot = guest_free_.back();
    guest_free_.pop_back();
  }
  const bool ran = RunOne(slot);
  if (ran) FlushOutbox(slot);
  if (ran && opt_.recorder != nullptr) {
    // Cross-query help is the session-level steal event, on the lane the
    // guest slot's spans fold onto (EmitTraceCells).
    opt_.recorder->Instant(obs::EventKind::kSteal, opt_.recorder_query, 1,
                           static_cast<int32_t>(cfg_.node),
                           static_cast<int32_t>(slot % opt_.threads));
  }
  {
    std::lock_guard<std::mutex> lock(guest_mu_);
    guest_free_.push_back(slot);
  }
  return ran;
}

// Selects and executes one activation; false if nothing was runnable.
// The paper's priority scheme: primary queues first, then trigger work,
// then other threads' queues of this node.
bool NodeEngine::RunOne(uint32_t slot) {
  const uint32_t T = opt_.threads;
  const uint32_t n = nops();
  // Queues exist for the T workers; a guest slot (cross-query helper)
  // adopts a column as its primary.
  const uint32_t primary = slot % T;
  auto runnable = [&](uint32_t op) {
    const Op& o = *ops_[op];
    return o.consumable.load() && !o.terminated.load() && MayRun(slot, op);
  };
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t op = (slot + k) % n;  // stagger start positions
    if (IsTrigger(op) || !runnable(op)) continue;
    Activation act;
    if (queues_[op * T + primary]->TryPopFront(&act)) {
      ExecuteData(slot, std::move(act));
      return true;
    }
  }
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t op = (slot + k) % n;
    if (!IsTrigger(op) || !runnable(op)) continue;
    if (ClaimMorsel(slot, op)) return true;
  }
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t op = (slot + k) % n;
    if (IsTrigger(op) || !runnable(op)) continue;
    for (uint32_t d = 1; d < T; ++d) {
      Activation act;
      if (queues_[op * T + (primary + d) % T]->TryPopBack(&act)) {
        stat_nonprimary_.fetch_add(1, std::memory_order_relaxed);
        ExecuteData(slot, std::move(act));
        return true;
      }
    }
  }
  return false;
}

bool NodeEngine::ClaimMorsel(uint32_t slot, uint32_t op_id) {
  Op& op = *ops_[op_id];
  const size_t begin =
      op.cursor.fetch_add(opt_.morsel_rows, std::memory_order_relaxed);
  if (begin >= op.total_rows) return false;
  const size_t end = std::min<size_t>(begin + opt_.morsel_rows, op.total_rows);
  ExecuteMorsel(slot, op_id, begin, end);
  stat_morsels_.fetch_add(1, std::memory_order_relaxed);
  ++busy_[slot];
  if (op.morsels_left.fetch_sub(1) == 1) MaybeDrained(op_id);
  return true;
}

NodeEngine::Scratch& NodeEngine::AcquireScratch(uint32_t slot) {
  const size_t d = scratch_depth_[slot]++;
  if (d == scratch_pool_[slot].size()) {
    auto sc = std::make_unique<Scratch>();
    sc->bucket.resize(opt_.buckets);
    scratch_pool_[slot].push_back(std::move(sc));
  }
  return *scratch_pool_[slot][d];
}

void NodeEngine::TraceActivation(uint32_t slot, uint32_t op,
                                 const SpanStart& start, uint64_t rows_in,
                                 uint64_t rows_out) {
  const uint64_t t1 = trace_->NowNs();
  const uint64_t own = t1 - start.t0 - (traced_ns_[slot] - start.traced0);
  traced_ns_[slot] += own;
  trace_cells_[static_cast<size_t>(slot) * nops() + op].Add(
      start.t0, t1, own, rows_in, rows_out);
}

bool NodeEngine::Captured(uint32_t chain, uint32_t point) const {
  for (const CaptureSink& cs : opt_.captures) {
    if (cs.chain == chain && cs.point == point && cs.sink != nullptr) {
      return true;
    }
  }
  return false;
}

void NodeEngine::Offer(uint32_t chain, uint32_t point,
                       const Batch& rows) const {
  for (const CaptureSink& cs : opt_.captures) {
    if (cs.chain != chain || cs.point != point || cs.sink == nullptr) continue;
    for (size_t r = 0; r < rows.rows(); ++r) {
      cs.sink->Offer(rows.row(r), rows.width());
    }
  }
}

// ---------------------------------------------------------------------
// Operator bodies.

// Groups the `n` items whose destination nodes are sc.dest[0..n) by node:
// sc.order lists them node by node (stable), node d's run is
// [sc.start[d], sc.start[d + 1]).
static void GroupByNode(uint32_t nodes, size_t n, std::vector<uint32_t>& dest,
                        std::vector<uint32_t>& order,
                        std::vector<size_t>& start, std::vector<size_t>& at) {
  start.assign(nodes + 1, 0);
  for (size_t i = 0; i < n; ++i) ++start[dest[i] + 1];
  for (uint32_t d = 0; d < nodes; ++d) start[d + 1] += start[d];
  at.assign(start.begin(), start.end() - 1);
  order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    order[at[dest[i]]++] = static_cast<uint32_t>(i);
  }
}

// One morsel of a trigger op: the source rows pass the scan-level
// predicates and the projection; a buildscan scatters them into
// per-bucket insert batches bound for each bucket's home node, a scan
// splits them by the first join key's home node into mixed probe batches
// (a join-less chain's scan is its own terminal).
void NodeEngine::ExecuteMorsel(uint32_t slot, uint32_t op_id, size_t begin,
                               size_t end) {
  const Op& op = *ops_[op_id];
  const Batch& src = *op.src_batch;
  const Chain& chain = plan_.chains[op.chain];
  const uint32_t B = opt_.buckets;
  const SpanStart span = trace_ != nullptr ? BeginSpan(slot) : SpanStart{};
  // Predicates and projection apply to base tables as their rows enter
  // the pipeline; chain sources were filtered and pruned when produced.
  // Plan column references are in projected coordinates.
  const bool from_table = op.src.kind == Source::Kind::kTable;
  const std::vector<Predicate>* preds =
      from_table ? plan_.FiltersFor(op.src.index) : nullptr;
  const std::vector<uint32_t>* proj =
      from_table ? plan_.ProjectionFor(op.src.index) : nullptr;
  const uint32_t src_w = src.width();
  const uint32_t out_w =
      proj != nullptr ? static_cast<uint32_t>(proj->size()) : src_w;
  auto src_col = [&](uint32_t col) {
    return proj != nullptr ? (*proj)[col] : col;
  };
  Scratch& sc = AcquireScratch(slot);
  const size_t n = end - begin;
  size_t m = n;
  const uint32_t* selp = nullptr;
  if (preds != nullptr) {
    m = FilterBatch(src, begin, n, *preds, &sc.sel);
    stat_filtered_.fetch_add(n - m, std::memory_order_relaxed);
    selp = sc.sel.data();
  }
  auto row_at = [&](size_t i) {
    return src.row(begin + (selp != nullptr ? selp[i] : i));
  };
  auto hash_key = [&](uint32_t col) {
    sc.hashes.resize(m);
    HashStrided(src.data().data() + begin * src_w + src_col(col), src_w,
                selp, m, sc.hashes.data());
  };

  if (op.kind == Kind::kBuildScan) {
    hash_key(chain.joins[op.step].build_col);
    auto flush = [&](uint32_t bucket) {
      Emit(slot, HomeOf(bucket), op.consumer, bucket,
           std::move(sc.bucket[bucket]));
      sc.bucket[bucket] = Batch();
    };
    for (size_t i = 0; i < m; ++i) {
      const uint32_t bucket = static_cast<uint32_t>(sc.hashes[i] % B);
      Batch& b = sc.bucket[bucket];
      if (b.width() == 0) b = Batch(out_w);
      if (b.empty()) sc.hit.push_back(bucket);
      if (proj != nullptr) {
        b.AppendRowProjected(row_at(i), *proj);
      } else {
        b.AppendRow(row_at(i));
      }
      if (b.rows() >= opt_.batch_rows) flush(bucket);
    }
    for (uint32_t bucket : sc.hit) {
      if (sc.bucket[bucket].width() != 0 && !sc.bucket[bucket].empty()) {
        flush(bucket);
      }
    }
    sc.hit.clear();
  } else {
    // Scan: one run per destination node (a single run on one node or for
    // a join-less chain), cut into pre-sized chunks of at most batch_rows
    // projected rows.
    const bool terminal = chain.joins.empty();
    const bool split = cfg_.nodes > 1 && !terminal;
    const uint32_t* order = nullptr;
    if (split) {
      hash_key(chain.joins[0].probe_col);
      sc.dest.resize(m);
      for (size_t i = 0; i < m; ++i) {
        sc.dest[i] = HomeOf(static_cast<uint32_t>(sc.hashes[i] % B));
      }
      GroupByNode(cfg_.nodes, m, sc.dest, sc.order, sc.start, sc.at);
      order = sc.order.data();
    }
    for (uint32_t d = 0; d < (split ? cfg_.nodes : 1); ++d) {
      const size_t lo = split ? sc.start[d] : 0;
      const size_t hi = split ? sc.start[d + 1] : m;
      for (size_t at = lo; at < hi; at += opt_.batch_rows) {
        const size_t rows = std::min<size_t>(opt_.batch_rows, hi - at);
        Batch out(out_w);
        out.data().resize(rows * out_w);
        int64_t* dst = out.data().data();
        if (proj == nullptr && selp == nullptr && order == nullptr) {
          // Unfiltered, unsplit, unprojected: the rows are contiguous.
          std::copy_n(row_at(at), rows * src_w, dst);
        } else {
          for (size_t i = at; i < at + rows; ++i, dst += out_w) {
            const int64_t* row = row_at(order != nullptr ? order[i] : i);
            if (proj != nullptr) {
              for (uint32_t c = 0; c < out_w; ++c) dst[c] = row[(*proj)[c]];
            } else {
              for (uint32_t c = 0; c < src_w; ++c) dst[c] = row[c];
            }
          }
        }
        // Scan output = capture point 0.
        Offer(op.chain, 0, out);
        if (terminal) {
          ConsumeTerminal(slot, op.chain, JoinedRows::Of(out), sc);
        } else {
          Emit(slot, split ? d : cfg_.node, op.consumer, kMixed,
               std::move(out));
        }
      }
    }
  }
  ReleaseScratch(slot);
  if (trace_ != nullptr) TraceActivation(slot, op_id, span, n, m);
}

void NodeEngine::ConsumeTerminal(uint32_t slot, uint32_t chain,
                                 const JoinedRows& rows, Scratch& sc) {
  const bool final_chain = chain + 1 == plan_.chains.size();
  chain_rows_[static_cast<size_t>(chain) * slots_ + slot] += rows.n;
  if (final_chain && agg_ != nullptr) {
    // Phase 1 of the two-phase aggregation.
    agg_partials_[slot].AccumulateJoined(rows, &sc.agg);
    return;
  }
  if (final_chain) {
    ResultDigest digest;
    digest.AddJoined(rows);
    digests_[slot].Merge(digest);
  }
  if (materialized_[chain]) {
    // The one place a terminal stores rows: join them onto the slot's
    // share of the chain output.
    Batch& part = chain_partials_[chain][slot];
    const uint32_t w = rows.width();
    if (part.width() == 0) part = Batch(w);
    std::vector<int64_t>& data = part.data();
    const size_t at = data.size();
    data.resize(at + rows.n * w);
    rows.Write(0, rows.n, data.data() + at);
  }
}

void NodeEngine::ExecuteData(uint32_t slot, Activation&& act) {
  const Op& op = *ops_[act.op];
  stat_data_.fetch_add(1, std::memory_order_relaxed);
  ++busy_[slot];
  const SpanStart span = trace_ != nullptr ? BeginSpan(slot) : SpanStart{};
  const uint64_t rows_in = act.rows.rows();

  if (op.kind == Kind::kBuild) {
    {
      std::lock_guard<std::mutex> lock(
          bucket_mu_[op.join][act.bucket / cfg_.nodes]);
      tables_[op.join][act.bucket].InsertBatch(act.rows);
    }
    if (trace_ != nullptr) {
      TraceActivation(slot, act.op, span, rows_in, rows_in);
    }
    FinishActivation(act.op);
    return;
  }

  // Probe. A mixed batch looks its keys up in the join's direct-address
  // index when the build proved one, else each row in its own bucket's
  // table; a stolen piece uses the one table of its bucket (homed here,
  // or a fragment acquired with it).
  const RowTable* tables = JoinTables(op.join);
  const DenseIndex* dense = nullptr;
  uint32_t ntables = opt_.buckets;
  if (act.bucket == kMixed) {
    dense = &JoinIndex(op.join);
  } else {
    tables = HomeOf(act.bucket) == cfg_.node
                 ? tables + act.bucket
                 : link_->Fragment(op.join, act.bucket);
    ntables = 1;
    if (tables == nullptr) {
      failed_.store(true);
      FinishActivation(act.op);
      return;
    }
  }
  const Chain& chain = plan_.chains[op.chain];
  const JoinStep& js = chain.joins[op.step];
  const uint32_t in_w = act.rows.width();
  const uint32_t build_w = width_at_[op.chain][op.step + 1] - in_w;
  Scratch& sc = AcquireScratch(slot);
  // Gather the key column and turn the whole batch into one match list;
  // the consumers below work on that list in bulk.
  const size_t n = act.rows.rows();
  sc.keys.resize(n);
  GatherStrided(act.rows.data().data() + js.probe_col, in_w, nullptr, n,
                sc.keys.data());
  const bool direct = ProbeBatch(dense, tables, ntables, sc.keys.data(), n,
                                 &sc.probe, &sc.matches);
  (direct ? stat_direct_ : stat_chained_)
      .fetch_add(1, std::memory_order_relaxed);
  const Matches& matches = sc.matches;
  const uint64_t produced = matches.size();
  // Output of probe step s (0-based) = capture point s + 1.
  const uint32_t point = op.step + 1;

  if (op.consumer != UINT32_MAX) {
    // A non-final probe sends each match to the home node of the next
    // join key (a stolen piece's output included, so it returns to the
    // buckets' homes), in mixed batches of at most batch_rows rows.
    const Matches* routed = &matches;
    sc.start.assign(2, 0);
    sc.start[1] = matches.size();
    if (cfg_.nodes > 1) {
      const uint32_t next_col = chain.joins[op.step + 1].probe_col;
      sc.dest.resize(matches.size());
      for (size_t i = 0; i < matches.size(); ++i) {
        const int64_t key =
            next_col < in_w ? act.rows.at(matches.probe[i], next_col)
                            : matches.build[i][next_col - in_w];
        sc.dest[i] = HomeOf(static_cast<uint32_t>(HashKey(key) % opt_.buckets));
      }
      GroupByNode(cfg_.nodes, matches.size(), sc.dest, sc.order, sc.start,
                  sc.at);
      sc.routed.probe.resize(matches.size());
      sc.routed.build.resize(matches.size());
      sc.routed.count = matches.size();
      for (size_t i = 0; i < matches.size(); ++i) {
        sc.routed.probe[i] = matches.probe[sc.order[i]];
        sc.routed.build[i] = matches.build[sc.order[i]];
      }
      routed = &sc.routed;
    }
    for (uint32_t d = 0; d + 1 < sc.start.size(); ++d) {
      const uint32_t dest = cfg_.nodes > 1 ? d : cfg_.node;
      ForEachJoinedChunk(act.rows, *routed, sc.start[d], sc.start[d + 1],
                         build_w, opt_.batch_rows, &sc.joined,
                         [&](Batch& chunk) {
                           Offer(op.chain, point, chunk);
                           Emit(slot, dest, op.consumer, kMixed,
                                std::move(chunk));
                         });
    }
  } else {
    // The terminal probe's consumers read the match list in place; rows
    // are joined only for a capture point bound here.
    if (Captured(op.chain, point)) {
      ForEachJoinedChunk(act.rows, matches, 0, matches.size(), build_w,
                         opt_.batch_rows, &sc.joined, [&](Batch& chunk) {
                           Offer(op.chain, point, chunk);
                         });
    }
    ConsumeTerminal(slot, op.chain, JoinedMatches(act.rows, matches, build_w),
                    sc);
  }
  ReleaseScratch(slot);
  if (trace_ != nullptr) {
    TraceActivation(slot, act.op, span, rows_in, produced);
  }
  FinishActivation(act.op);
}

void NodeEngine::FinishActivation(uint32_t op) {
  if (ops_[op]->pending.fetch_sub(1) == 1) MaybeDrained(op);
}

// Under SP a local hand-off is a procedure call: the consumer runs now,
// in this slot, and its buffer returns to the producer for the next
// chunk. Otherwise operator bodies never block: if the destination queue
// is full, the activation is staged in the producing slot's outbox and
// FlushOutbox drains it at the top level — the iterative form of the
// paper's procedure-call suspension (Section 3.1), which keeps the stack
// bounded however long the pipeline is.
void NodeEngine::Emit(uint32_t slot, uint32_t dest, uint32_t op,
                      uint32_t bucket, Batch&& rows) {
  if (dest != cfg_.node) {
    link_->Ship(dest, op, bucket, std::move(rows));
    return;
  }
  ops_[op]->pending.fetch_add(1);
  if (sp_) {
    Activation act{op, bucket, slot % opt_.threads, std::move(rows)};
    ExecuteData(slot, std::move(act));
    rows = std::move(act.rows);  // ExecuteData only read them
    return;
  }
  stat_emitted_.fetch_add(1, std::memory_order_relaxed);
  Activation act{op, bucket, QueueColumn(op, bucket == kMixed ? slot : bucket),
                 std::move(rows)};
  if (queues_[op * opt_.threads + act.column]->TryPush(
          std::move(act), opt_.queue_capacity)) {
    idle_->Signal();
  } else {
    stat_escapes_.fetch_add(1, std::memory_order_relaxed);
    outbox_[slot].push_back(std::move(act));
  }
}

// Drains the slot's outbox. While pushes are stuck the slot helps by
// executing other activations (RunAllowedWhileStuck); when nothing allowed
// is runnable the link decides whether to keep waiting (WhileStuck); if
// that lasts a long stretch the restriction is lifted so global progress
// is guaranteed (the outbox absorbs the overflow).
bool NodeEngine::FlushOutbox(uint32_t slot) {
  auto& outbox = outbox_[slot];
  uint32_t stalls = 0;
  while (!outbox.empty()) {
    // A cancelled run abandons staged activations; normal completion
    // never ends with a non-empty outbox (pending keeps its op alive).
    if (cancelled_.load(std::memory_order_relaxed)) return false;
    bool progressed = false;
    for (size_t i = 0; i < outbox.size();) {
      Activation& act = outbox[i];
      if (queues_[act.op * opt_.threads + act.column]->TryPush(
              std::move(act), opt_.queue_capacity)) {
        outbox.erase(outbox.begin() + static_cast<long>(i));
        idle_->Signal();
        progressed = true;
      } else {
        ++i;
      }
    }
    if (outbox.empty()) return true;
    if (progressed ||
        RunAllowedWhileStuck(slot, /*unrestricted=*/stalls > 10000)) {
      stalls = 0;
      continue;
    }
    ++stalls;
    if (!link_->WhileStuck(slot)) return false;
  }
  return true;
}

// Executes one activation (or morsel) permitted while this slot has stuck
// pushes: destination ops of stuck pushes (draining them frees queue
// slots), any op not upstream of a stuck destination in its chain (the
// paper's "will not consume activations of the same operator" rule,
// generalized to whole upstream segments), and the build side, which
// feeds no probe queue. Deepest ops first: the terminal op only shrinks
// the backlog. `unrestricted` lifts the upstream exclusion (progress
// valve). An FP thread drains only destinations of its own stuck pushes.
bool NodeEngine::RunAllowedWhileStuck(uint32_t slot, bool unrestricted) {
  const uint32_t T = opt_.threads;
  const uint32_t n = nops();
  const bool fp = opt_.strategy == LocalStrategy::kFP;
  const auto& outbox = outbox_[slot];
  // Per chain: the minimum stuck position; ops of that chain strictly
  // before it would feed the congested queue.
  std::vector<uint32_t> min_stuck_pos(plan_.chains.size(), UINT32_MAX);
  for (const Activation& act : outbox) {
    const Op& dst = *ops_[act.op];
    if (dst.kind == Kind::kBuild) continue;
    uint32_t& cur = min_stuck_pos[dst.chain];
    cur = std::min(cur, dst.chain_pos);
  }
  auto allowed = [&](uint32_t op_id) {
    const Op& op = *ops_[op_id];
    if (!op.consumable.load() || op.terminated.load()) return false;
    if (unrestricted || op.kind == Kind::kBuild ||
        op.kind == Kind::kBuildScan) {
      return true;
    }
    return min_stuck_pos[op.chain] == UINT32_MAX ||
           op.chain_pos >= min_stuck_pos[op.chain];
  };
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t op_id = n - 1 - k;
    if (IsTrigger(op_id) || !allowed(op_id)) continue;
    auto stuck_here = [&](const Activation& a) { return a.op == op_id; };
    if (fp && std::none_of(outbox.begin(), outbox.end(), stuck_here)) {
      continue;
    }
    for (uint32_t d = 0; d < T; ++d) {
      Activation act;
      if (queues_[op_id * T + (slot + d) % T]->TryPopFront(&act)) {
        if (fp) {
          stat_fp_safety_.fetch_add(1, std::memory_order_relaxed);
        } else if (d != 0) {
          stat_nonprimary_.fetch_add(1, std::memory_order_relaxed);
        }
        ExecuteData(slot, std::move(act));
        return true;
      }
    }
  }
  if (fp) return false;
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t op_id = n - 1 - k;
    if (IsTrigger(op_id) && allowed(op_id) && ClaimMorsel(slot, op_id)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Results.

ResultDigest NodeEngine::Digest() const {
  ResultDigest d;
  for (const ResultDigest& s : digests_) d.Merge(s);
  return d;
}

std::vector<const AggTable*> NodeEngine::AggPartials() const {
  std::vector<const AggTable*> out;
  for (const AggTable& t : agg_partials_) out.push_back(&t);
  return out;
}

void NodeEngine::AddStats(EngineStats* s) const {
  s->morsels += stat_morsels_.load();
  s->data_activations += stat_data_.load();
  s->batches_emitted += stat_emitted_.load();
  s->escapes += stat_escapes_.load();
  s->nonprimary += stat_nonprimary_.load();
  s->idle_waits += stat_idle_.load();
  s->idle_timeouts += stat_idle_timeouts_.load();
  s->fp_safety_escapes += stat_fp_safety_.load();
  s->rows_filtered += stat_filtered_.load();
  s->direct_probes += stat_direct_.load();
  s->chained_probes += stat_chained_.load();
  for (size_t c = 0; c < s->rows_per_chain.size(); ++c) {
    for (uint32_t slot = 0; slot < slots_; ++slot) {
      s->rows_per_chain[c] += chain_rows_[c * slots_ + slot];
    }
  }
}

std::vector<uint64_t> NodeEngine::BusyPerSlot(uint32_t n) const {
  return std::vector<uint64_t>(busy_.begin(), busy_.begin() + n);
}

uint64_t NodeEngine::Busy() const {
  uint64_t sum = 0;
  for (uint64_t b : busy_) sum += b;
  return sum;
}

void NodeEngine::EmitTraceCells() {
  if (trace_ == nullptr) return;
  const uint32_t n = nops();
  for (uint32_t s = 0; s < slots_; ++s) {
    for (uint32_t op = 0; op < n; ++op) {
      const obs::OpSpanAgg& c = trace_cells_[static_cast<size_t>(s) * n + op];
      if (c.empty()) continue;
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      ev.node = static_cast<int32_t>(cfg_.node);
      // A guest slot (cross-query helper, s >= threads) folds onto lane
      // s % threads; the kSteal instant it recorded there marks the help.
      ev.worker = static_cast<int32_t>(s % opt_.threads);
      ev.op = static_cast<int32_t>(op);
      ev.start_ns = c.first_ns;
      ev.end_ns = c.last_ns;
      ev.activations = c.activations;
      ev.rows_in = c.rows_in;
      ev.rows_out = c.rows_out;
      ev.detail = c.busy_ns;
      ev.query = opt_.recorder_query;
      trace_->Record(ev);
    }
  }
}

}  // namespace hierdb::mt
