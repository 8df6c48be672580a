#include "mt/pipeline_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "mt/column_batch.h"
#include "mt/row_table.h"

namespace hierdb::mt {

namespace {

// The one-node boundary: a drained op terminates at once, and a build
// this run owns in the build cache is published as it terminates — before
// its probes unblock — so probes read the shared entry and overlapping or
// later queries find it.
class OneNodeLink final : public NodeEngine::Link {
 public:
  OneNodeLink(ResolvedBuilds* builds, BuildCache* cache)
      : builds_(builds), cache_(cache) {}

  void Attach(NodeEngine* engine) { engine_ = engine; }

  void OnDrained(uint32_t op) override { engine_->Terminate(op); }

  void OnTerminating(uint32_t op) override {
    if (engine_->kind(op) != NodeEngine::Kind::kBuild) return;
    const uint32_t g = engine_->JoinOf(op);
    if (!builds_->publish[g]) return;
    builds_->publish[g] = 0;
    auto published = std::make_shared<BucketTables>(engine_->TakeTables(g));
    builds_->tables[g] = published;
    cache_->Publish(builds_->keys[g], std::move(published));
  }

  void Stop() override { engine_->Cancel(); }

 private:
  ResolvedBuilds* builds_;
  BuildCache* cache_;
  NodeEngine* engine_ = nullptr;
};

}  // namespace

PipelineExecutor::PipelineExecutor(const PipelineOptions& options)
    : options_(options) {
  HIERDB_CHECK(options_.threads > 0, "need at least one thread");
  HIERDB_CHECK(options_.buckets > 0, "need at least one bucket");
  HIERDB_CHECK(options_.morsel_rows > 0, "morsel_rows must be positive");
  HIERDB_CHECK(options_.batch_rows > 0, "batch_rows must be positive");
  HIERDB_CHECK(options_.queue_capacity > 0, "queue_capacity must be positive");
}

Result<ResultDigest> PipelineExecutor::Execute(
    const PipelinePlan& plan, const std::vector<const Table*>& tables,
    PipelineStats* stats, Batch* materialized) {
  HIERDB_RETURN_NOT_OK(plan.Validate(tables));
  // Workers come from the injected context (session pool) or, white-box,
  // from a one-off spawn-per-query context.
  ThreadSpawnContext fallback_ctx;
  PipelineOptions o = options_;
  if (o.ctx == nullptr) o.ctx = &fallback_ctx;
  ExecContext* ctx = o.ctx;
  if (o.strategy == LocalStrategy::kSP) {
    return ExecuteSP(plan, tables, ctx, stats, materialized);
  }
  HIERDB_RETURN_NOT_OK(NodeEngine::CheckOptions(o, plan));
  const uint32_t T = o.threads;
  const uint32_t C = static_cast<uint32_t>(plan.chains.size());

  // A concurrent misser of a build waits for its builder's publish
  // instead of duplicating the build (BuildCache::Acquire).
  ResolvedBuilds builds = ResolveBuilds(o, plan, /*may_wait=*/true);
  std::vector<const Batch*> rows;
  std::vector<uint32_t> widths;
  for (const Table* t : tables) {
    rows.push_back(&t->batch);
    widths.push_back(t->width());
  }
  NodeEngine::Config cfg;
  cfg.guests = ctx->GuestSlots();
  cfg.keep_final = materialized != nullptr;
  OneNodeLink link(&builds, o.build_cache);
  NodeEngine engine(o, plan, std::move(rows), widths, &builds, cfg, &link);
  link.Attach(&engine);
  if (o.trace != nullptr) o.trace->EnsureSlots(T + cfg.guests);
  engine.Start();

  // Rent workers. The steal hook lets idle threads of other executions
  // run our activations; FP pins threads to operators, so only DP
  // publishes one.
  if (o.strategy == LocalStrategy::kDP) {
    ctx->SetStealHook([&engine] { return engine.RunForeign(); });
  }
  ctx->SpawnWorkers(T, [&engine](uint32_t t) { engine.WorkerLoop(t); });
  ctx->ClearStealHook();

  auto fail = [&](Status st) {
    builds.AbandonPending(o.build_cache);
    engine.EmitTraceCells();
    return st;
  };
  if (engine.Cancelled()) {
    return fail(Status::Cancelled("query cancelled during execution"));
  }
  if (engine.Failed()) {
    return fail(Status::Internal("pipeline execution failed"));
  }

  ResultDigest digest = engine.Digest();
  uint64_t agg_groups = 0, agg_partials = 0;
  if (plan.agg.has_value()) {
    const std::vector<const AggTable*> partials = engine.AggPartials();
    for (const AggTable* t : partials) agg_partials += t->groups();
    Status st = MergeAggPartitions(ctx, T, o.buckets, &*plan.agg, partials,
                                   &digest, &agg_groups, materialized);
    if (!st.ok()) return fail(st);
  } else if (materialized != nullptr) {
    *materialized = engine.TakeChainOutput(C - 1);
  }

  if (stats != nullptr) {
    *stats = PipelineStats{};
    stats->rows_per_chain.assign(C, 0);
    engine.AddStats(stats);
    stats->build_cache_hits = builds.hits;
    stats->build_cache_misses = builds.misses;
    stats->chain_reused = builds.chain_reused;
    stats->agg_groups = agg_groups;
    stats->agg_partials = agg_partials;
    // Guest slots (cross-query helpers) are excluded: busy_per_thread
    // drives the per-worker imbalance measure of this query's rental.
    stats->busy_per_thread = engine.BusyPerSlot(T);
  }
  engine.EmitTraceCells();
  return digest;
}

// ---------------------------------------------------------------------
// Synchronous pipelining (SP).

Result<ResultDigest> PipelineExecutor::ExecuteSP(
    const PipelinePlan& plan, const std::vector<const Table*>& tables,
    ExecContext* ctx, PipelineStats* stats, Batch* out_rows) {
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
  // scan+probe walk on the scan op's id, in the compiled op space DP/FP
  // use (mt/node_engine.h).
  obs::TraceSink* trace = options_.trace;
  if (trace != nullptr) trace->EnsureSlots(T);
  const std::vector<uint32_t> op_base = ChainOpBases(plan);
  std::vector<uint64_t> chain_rows(plan.chains.size() * T, 0);

  // Build-side reuse, resolved up front so that an elided chain never
  // runs: a hit's tables come shared from the session cache, a builder's
  // are published as soon as they are built, and a concurrent query
  // already building a key is waited on instead of duplicated (see
  // BuildCache::Acquire).
  ResolvedBuilds builds = ResolveBuilds(options_, plan, /*may_wait=*/true);
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
          ev.op = static_cast<int32_t>(op_base[c] + chain.joins.size() + j);
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
            op_base[c] + 2 * static_cast<uint32_t>(chain.joins.size()));
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

  ResultDigest digest;
  for (const auto& d : digests) digest.Merge(d);
  uint64_t agg_groups = 0, agg_partial_entries = 0;
  if (agg != nullptr) {
    std::vector<const AggTable*> partials;
    for (const AggTable& t : agg_partials) {
      agg_partial_entries += t.groups();
      partials.push_back(&t);
    }
    HIERDB_RETURN_NOT_OK(MergeAggPartitions(ctx, T, B, agg, partials, &digest,
                                            &agg_groups, out_rows));
  } else if (out_rows != nullptr) {
    *out_rows = std::move(chain_outputs.back());
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
