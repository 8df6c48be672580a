#include "mt/pipeline_executor.h"

#include <memory>
#include <utility>

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
    auto published = std::make_shared<JoinBuild>();
    published->tables = engine_->TakeTables(g);
    published->dense.push_back(engine_->TakeIndex(g));
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
  IdleSignal idle;
  NodeEngine engine(o, plan, std::move(rows), widths, &builds, cfg, &link,
                    &idle);
  link.Attach(&engine);
  engine.Start();

  // Rent workers. The steal hook lets idle threads of other executions
  // run our activations; FP pins threads to operators and SP queues
  // nothing to steal, so only DP publishes one.
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

}  // namespace hierdb::mt
