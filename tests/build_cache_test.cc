// Tests for the session build cache: concurrent-miss deduplication
// (promise-based entries), the LRU byte budget, chain-source keys, and
// cross-query reuse on both real backends (branch chains elided when
// every build consuming them hits).

#include "mt/build_cache.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/session.h"
#include "cluster/cluster_executor.h"
#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "mt/plan.h"
#include "mt/row.h"

namespace hierdb::mt {
namespace {

BuildKey Key(uint64_t table) {
  BuildKey k;
  k.table = table;
  k.column = 0;
  k.buckets = 4;
  return k;
}

/// Bucket tables holding `rows` two-column rows (known, nonzero bytes).
std::shared_ptr<const BucketTables> MakeTables(size_t rows) {
  auto out = std::make_shared<BucketTables>(4);
  for (RowTable& t : *out) t.Init(2, 0);
  for (size_t i = 0; i < rows; ++i) {
    int64_t row[2] = {static_cast<int64_t>(i), 1};
    (*out)[i % 4].Insert(row);
  }
  return out;
}

TEST(BuildCacheDedup, SecondMisserWaitsForTheBuilder) {
  BuildCache cache;
  auto first = cache.Acquire(Key(1));
  ASSERT_TRUE(first.builder);
  ASSERT_EQ(first.tables, nullptr);

  std::atomic<bool> waiter_done{false};
  BuildCache::Acquired second;
  std::thread waiter([&] {
    second = cache.Acquire(Key(1));
    waiter_done.store(true);
  });
  // The waiter must block while the build is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waiter_done.load());

  cache.Publish(Key(1), MakeTables(16));
  waiter.join();
  ASSERT_NE(second.tables, nullptr);
  EXPECT_FALSE(second.builder);
  EXPECT_TRUE(second.waited);

  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.dedup_waits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(BuildCacheDedup, AbandonPromotesAWaiterToBuilder) {
  BuildCache cache;
  auto first = cache.Acquire(Key(2));
  ASSERT_TRUE(first.builder);

  BuildCache::Acquired second;
  std::thread waiter([&] { second = cache.Acquire(Key(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Abandon(Key(2));
  waiter.join();
  EXPECT_TRUE(second.builder);
  EXPECT_EQ(second.tables, nullptr);
  EXPECT_TRUE(second.waited);
}

TEST(BuildCacheDedup, CancelledWaiterProceedsSolo) {
  BuildCache cache;
  auto first = cache.Acquire(Key(3));
  ASSERT_TRUE(first.builder);
  auto second = cache.Acquire(Key(3), [] { return true; });
  EXPECT_FALSE(second.builder);
  EXPECT_EQ(second.tables, nullptr);
  EXPECT_TRUE(second.waited);
  // The original builder still owns the entry.
  cache.Publish(Key(3), MakeTables(4));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(BuildCacheLru, ByteBudgetEvictsLeastRecentlyHit) {
  BuildCache cache;
  auto tables = MakeTables(64);
  uint64_t one = 0;
  for (const RowTable& t : *tables) one += t.bytes();
  cache.SetByteBudget(one * 2 + one / 2);  // room for two entries

  auto a = cache.Acquire(Key(10));
  ASSERT_TRUE(a.builder);
  cache.Publish(Key(10), tables);
  auto b = cache.Acquire(Key(11));
  ASSERT_TRUE(b.builder);
  cache.Publish(Key(11), MakeTables(64));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch key 10 so key 11 is the least recently hit, then overflow.
  EXPECT_NE(cache.Acquire(Key(10)).tables, nullptr);
  auto c = cache.Acquire(Key(12));
  ASSERT_TRUE(c.builder);
  cache.Publish(Key(12), MakeTables(64));

  auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, one * 2 + one / 2);
  EXPECT_NE(cache.Acquire(Key(10)).tables, nullptr);  // survivor
  EXPECT_NE(cache.Acquire(Key(12)).tables, nullptr);  // newest
  EXPECT_TRUE(cache.Acquire(Key(11)).builder);        // evicted
}

TEST(BuildCacheLru, OversizedEntryIsKeptAlone) {
  BuildCache cache;
  cache.SetByteBudget(1);  // smaller than any real entry
  auto a = cache.Acquire(Key(20));
  ASSERT_TRUE(a.builder);
  cache.Publish(Key(20), MakeTables(32));
  // The just-published entry is never evicted by its own publish.
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_NE(cache.Acquire(Key(20)).tables, nullptr);
  // The next publish displaces it.
  auto b = cache.Acquire(Key(21));
  ASSERT_TRUE(b.builder);
  cache.Publish(Key(21), MakeTables(32));
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GE(s.evictions, 1u);
}

TEST(BuildCacheDedup, ClearWakesWaitersAsBuilders) {
  BuildCache cache;
  auto first = cache.Acquire(Key(30));
  ASSERT_TRUE(first.builder);
  BuildCache::Acquired second;
  std::thread waiter([&] { second = cache.Acquire(Key(30)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Clear();
  waiter.join();
  EXPECT_TRUE(second.builder);
}

// Session-level integration: concurrent identical queries across a
// 4-way stream deduplicate their builds — the three dimension builds are
// published exactly once, every other acquisition is a hit.
TEST(BuildCacheSession, ConcurrentStreamsDeduplicateMisses) {
  api::SessionOptions so;
  so.max_concurrent_queries = 4;
  so.pool_threads = 4;
  api::Session db(so);
  auto fact = db.AddTable(MakeTable("fact", 20000, 4, 500, 7));
  auto d1 = db.AddTable(MakeTable("d1", 500, 2, 50, 8));
  auto d2 = db.AddTable(MakeTable("d2", 500, 2, 50, 9));
  auto d3 = db.AddTable(MakeTable("d3", 500, 2, 50, 10));
  api::Query q = db.NewQuery()
                     .Scan(fact)
                     .Probe(d1, 1, 0)
                     .Probe(d2, 2, 0)
                     .Probe(d3, 3, 0)
                     .Build();
  api::ExecOptions o;
  o.backend = api::Backend::kThreads;
  o.threads_per_node = 2;
  o.reuse_builds = true;
  std::vector<api::Query> queries(4, q);
  api::StreamReport sr = db.RunStream(queries, o);
  ASSERT_EQ(sr.succeeded, 4u);

  auto s = db.build_cache_stats();
  // 4 queries x 3 cacheable builds; exactly one build per key runs.
  EXPECT_EQ(s.hits + s.misses, 12u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.entries, 3u);
}

// Session-level LRU: a tiny byte budget keeps a long stream of distinct
// (buckets) configurations bounded.
TEST(BuildCacheSession, ByteBudgetBoundsASession) {
  api::SessionOptions so;
  so.build_cache_bytes = 8 * 1024;
  api::Session db(so);
  auto fact = db.AddTable(MakeTable("fact", 4000, 2, 200, 3));
  auto dim = db.AddTable(MakeTable("dim", 200, 2, 20, 4));
  api::Query q = db.NewQuery().Scan(fact).Probe(dim, 1, 0).Build();
  for (uint32_t buckets : {16u, 32u, 48u, 64u, 80u, 96u}) {
    api::ExecOptions o;
    o.backend = api::Backend::kThreads;
    o.threads_per_node = 2;
    o.buckets = buckets;  // distinct cache key per run
    auto r = db.Execute(q, o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto s = db.build_cache_stats();
  // The cache never holds more than the newest entry plus whatever fits
  // the budget (an oversized newest entry may stand alone above it).
  EXPECT_LE(s.entries, 2u);
  EXPECT_GE(s.evictions, 4u);
}

// ---------------------------------------------------------------------
// Chain-source keys.

TEST(BuildCacheKey, ChainKeysFollowTheWholeSubtree) {
  Fig2Plan f = MakeFig2BushyPlan(0, 1, 0, 1, 0, 2);
  const std::vector<uint64_t> ids = {11, 12, 13, 14};
  const Source chain0 = Source::OfChain(0);
  BuildKey base;
  ASSERT_TRUE(BuildCacheKeyFor(ids, 0, f.plan, 16, chain0, 0, &base));
  EXPECT_TRUE(base.chain);

  // Same subtree, same key; a table outside the subtree does not matter.
  std::vector<uint64_t> other_u = ids;
  other_u[3] = 99;
  BuildKey same;
  ASSERT_TRUE(BuildCacheKeyFor(other_u, 0, f.plan, 16, chain0, 0, &same));
  EXPECT_EQ(same, base);

  // Each part of the subtree's identity moves the key.
  auto differs = [&](const PipelinePlan& plan,
                     const std::vector<uint64_t>& table_ids,
                     uint64_t seed_skew, uint32_t buckets) {
    BuildKey k;
    EXPECT_TRUE(
        BuildCacheKeyFor(table_ids, seed_skew, plan, buckets, chain0, 0, &k));
    return !(k == base);
  };
  std::vector<uint64_t> other_r = ids;
  other_r[0] = 98;
  EXPECT_TRUE(differs(f.plan, other_r, 0, 16));   // a leaf's contents
  EXPECT_TRUE(differs(f.plan, ids, 7, 16));       // synthesis identity
  EXPECT_TRUE(differs(f.plan, ids, 0, 32));       // fragmentation
  PipelinePlan filtered = f.plan;
  filtered.table_filters.resize(4);
  filtered.table_filters[0].push_back({1, CmpOp::kLt, 5});
  EXPECT_TRUE(differs(filtered, ids, 0, 16));     // a filter in the subtree
  PipelinePlan pruned = f.plan;
  pruned.table_projections.resize(4);
  pruned.table_projections[0] = {0};
  EXPECT_TRUE(differs(pruned, ids, 0, 16));       // a projection in it
  PipelinePlan recolumned = f.plan;
  recolumned.chains[0].joins[0].probe_col = 0;
  EXPECT_TRUE(differs(recolumned, ids, 0, 16));   // a join column

  // A chain key never equals the table key of the same hash.
  BuildKey table_key;
  ASSERT_TRUE(
      BuildCacheKeyFor(ids, 0, f.plan, 16, Source::OfTable(0), 0, &table_key));
  EXPECT_FALSE(table_key.chain);
  table_key.table = base.table;
  table_key.column = base.column;
  EXPECT_FALSE(table_key == base);

  // A table without an identity makes the whole chain uncacheable.
  std::vector<uint64_t> unknown_s = ids;
  unknown_s[1] = 0;
  BuildKey none;
  EXPECT_FALSE(BuildCacheKeyFor(unknown_s, 0, f.plan, 16, chain0, 0, &none));
}

// ---------------------------------------------------------------------
// Cross-query reuse on the real backends. Every case runs on kThreads
// (DP) and kCluster (DP and FP), and every run is validated against the
// single-threaded reference.

struct Backend {
  api::Backend backend;
  Strategy strategy;
  const char* name;
};
const Backend kBackends[] = {
    {api::Backend::kThreads, Strategy::kDP, "threads-DP"},
    {api::Backend::kCluster, Strategy::kDP, "cluster-DP"},
    {api::Backend::kCluster, Strategy::kFP, "cluster-FP"},
};

api::ExecOptions Opts(const Backend& b) {
  api::ExecOptions o;
  o.backend = b.backend;
  o.strategy = b.strategy;
  o.nodes = b.backend == api::Backend::kCluster ? 2 : 1;
  o.threads_per_node = 2;
  o.validate = true;
  return o;
}

// A three-chain snowflake: chain0 = B ⋈ A, chain1 = D ⋈ C, and the final
// chain scans F and probes both branch outputs.
struct Snowflake {
  api::Session db;
  catalog::RelId a, b, c, d, f;

  explicit Snowflake(const api::SessionOptions& so = {}) : db(so) {
    a = db.AddTable(MakeTable("A", 100, 3, 10, 61));
    b = db.AddTable(MakeTable("B", 300, 2, 100, 62));
    c = db.AddTable(MakeTable("C", 80, 2, 10, 63));
    d = db.AddTable(MakeTable("D", 300, 2, 80, 64));
    f = db.AddTable(MakeTable("F", 8000, 3, 300, 65));
  }

  /// The graph-form query over leaf `leaf_a` (a refreshed A has a new
  /// id), planned as the three chains above.
  api::QueryBuilder Builder(catalog::RelId leaf_a) const {
    plan::JoinTree tree;
    int32_t jab = tree.AddJoin(tree.AddLeaf(b, 300), tree.AddLeaf(leaf_a, 100),
                               300);
    int32_t jcd = tree.AddJoin(tree.AddLeaf(d, 300), tree.AddLeaf(c, 80), 300);
    int32_t jf = tree.AddJoin(tree.AddLeaf(f, 8000), jab, 8000);
    tree.AddJoin(jf, jcd, 8000);
    auto qb = db.NewQuery()
                  .JoinOn(b, 1, leaf_a, 0)
                  .JoinOn(d, 1, c, 0)
                  .JoinOn(f, 1, b, 0)
                  .JoinOn(f, 2, d, 0);
    qb.Tree(tree);
    return qb;
  }
  api::Query Query() const { return Builder(a).Build(); }
};

/// Runs `q` and requires success with the reference digest.
api::ExecutionReport RunMatching(api::Session& db, const api::Query& q,
                                 const api::ExecOptions& o,
                                 const std::string& what) {
  auto r = db.Execute(q, o);
  EXPECT_TRUE(r.ok()) << what << ": " << r.status().ToString();
  if (!r.ok()) return {};
  EXPECT_TRUE(r.value().validated) << what;
  EXPECT_TRUE(r.value().reference_match) << what << ": "
                                         << r.value().ToString();
  return r.value();
}

TEST(BuildCacheReuse, RepeatedBushyQueryElidesItsBranches) {
  for (const Backend& be : kBackends) {
    SCOPED_TRACE(be.name);
    Snowflake s;
    const api::Query q = s.Query();
    const api::ExecOptions o = Opts(be);
    const bool cluster = be.backend == api::Backend::kCluster;

    api::ExecutionReport first = RunMatching(s.db, q, o, "first");
    EXPECT_EQ(first.chains_reused, 0u);
    EXPECT_GT(first.build_cache_misses, 0u);
    EXPECT_EQ(first.build_cache_hits, 0u);
    if (cluster) {
      EXPECT_EQ(first.intermediate_rows, 600u);
    }
    ASSERT_EQ(first.chain_cards.size(), 3u);
    for (const auto& cc : first.chain_cards) EXPECT_TRUE(cc.has_actual);

    api::ExecutionReport again = RunMatching(s.db, q, o, "again");
    EXPECT_EQ(again.result_rows, first.result_rows);
    EXPECT_EQ(again.result_checksum, first.result_checksum);
    // The final chain's two branch builds hit; the branches never ran, so
    // their own builds were not even looked up.
    EXPECT_EQ(again.build_cache_hits, 2u);
    EXPECT_EQ(again.build_cache_misses, 0u);
    EXPECT_EQ(again.chains_reused, 2u);
    ASSERT_EQ(again.chain_cards.size(), 3u);
    EXPECT_FALSE(again.chain_cards[0].has_actual);
    EXPECT_FALSE(again.chain_cards[1].has_actual);
    EXPECT_TRUE(again.chain_cards[2].has_actual);
    EXPECT_NE(again.ToString().find("chains_reused=2"), std::string::npos)
        << again.ToString();
    if (cluster) {
      ASSERT_TRUE(again.cluster.has_value());
      ASSERT_EQ(again.cluster->per_chain.size(), 3u);
      for (uint32_t c = 0; c < 2; ++c) {
        EXPECT_EQ(again.cluster->per_chain[c].repartition_bytes, 0u);
        EXPECT_EQ(again.cluster->per_chain[c].intermediate_rows, 0u);
      }
      EXPECT_EQ(again.intermediate_rows, 0u);
    }
  }
}

TEST(BuildCacheReuse, RefreshedLeafChangesTheDigest) {
  for (const Backend& be : kBackends) {
    SCOPED_TRACE(be.name);
    Snowflake s;
    const api::ExecOptions o = Opts(be);
    api::ExecutionReport before = RunMatching(s.db, s.Query(), o, "before");
    RunMatching(s.db, s.Query(), o, "before, reused");

    const catalog::RelId a2 = s.db.AddTable(MakeTable("A", 100, 3, 10, 71));
    const api::Query refreshed = s.Builder(a2).Build();
    api::ExecutionReport after = RunMatching(s.db, refreshed, o, "after");
    EXPECT_NE(after.result_checksum, before.result_checksum);
    EXPECT_EQ(after.build_cache_hits, 0u);  // AddTable cleared the cache
    api::ExecutionReport reused =
        RunMatching(s.db, refreshed, o, "after, reused");
    EXPECT_EQ(reused.result_checksum, after.result_checksum);
    EXPECT_EQ(reused.chains_reused, 2u);
  }
}

// Queries that differ in one thing a shared build could alias on: a
// filter inside chain0, the GROUP BY column (A's projection, so chain0's
// columns: A.{0,1}, A.{0,2} or A.{0}), the fragmentation, and (cluster)
// the placement. Each run is validated, so a build served across the
// difference would show as a wrong digest.
TEST(BuildCacheReuse, NoAliasingAcrossFiltersProjectionsBucketsPlacement) {
  for (const Backend& be : kBackends) {
    SCOPED_TRACE(be.name);
    Snowflake s;
    const api::ExecOptions o = Opts(be);
    const api::Query plain = s.Query();
    const api::Query filtered =
        s.Builder(s.a).Where(s.b, 1, api::CmpOp::kLt, 40).Build();
    const api::Query group_a1 = s.Builder(s.a).GroupBy(s.a, 1).Count().Build();
    const api::Query group_a2 = s.Builder(s.a).GroupBy(s.a, 2).Count().Build();
    const api::Query group_c = s.Builder(s.a).GroupBy(s.c, 1).Count().Build();

    api::ExecutionReport p = RunMatching(s.db, plain, o, "plain");
    api::ExecutionReport w = RunMatching(s.db, filtered, o, "filtered");
    EXPECT_LT(w.result_rows, p.result_rows);
    RunMatching(s.db, plain, o, "plain again");
    RunMatching(s.db, filtered, o, "filtered again");

    RunMatching(s.db, group_a1, o, "group by A.1");
    RunMatching(s.db, group_a2, o, "group by A.2");
    RunMatching(s.db, group_c, o, "group by C");
    RunMatching(s.db, group_a1, o, "group by A.1 again");

    for (uint32_t buckets : {16u, 32u, 16u}) {
      api::ExecOptions ob = o;
      ob.buckets = buckets;
      api::ExecutionReport r =
          RunMatching(s.db, plain, ob, "buckets " + std::to_string(buckets));
      EXPECT_EQ(r.result_checksum, p.result_checksum);
    }

    // Placement changes where rows live, not what a build holds: the
    // entries are shared across it.
    for (uint64_t seed : {3u, 9u}) {
      api::ExecOptions os = o;
      os.placement_theta = be.backend == api::Backend::kCluster ? 0.8 : 0.0;
      os.seed = seed;
      api::ExecutionReport r =
          RunMatching(s.db, plain, os, "seed " + std::to_string(seed));
      EXPECT_EQ(r.result_checksum, p.result_checksum);
      EXPECT_GT(r.build_cache_hits, 0u);
    }
  }
}

// Executor level (the session's capture points live on single-chain
// queries): a capture point on chain0 keeps chain0 running even when the
// build consuming it hits, and the capture still matches the reference.
TEST(BuildCacheReuse, CapturedChainKeepsRunning) {
  // R = 0, S = 1, T = 2, U = 3; chain0 = S ⋈ R, chain1 = U ⋈ T ⋈ chain0.
  Fig2Plan f = MakeFig2BushyPlan(0, 1, 0, 1, 0, 2);
  std::vector<Table> tables;
  tables.push_back(MakeTable("R", 200, 2, 10, 81));
  tables.push_back(MakeTable("S", 600, 2, 200, 82));
  tables.push_back(MakeTable("T", 100, 2, 10, 83));
  tables.push_back(MakeTable("U", 3000, 3, 100, 84));
  std::vector<const Table*> ptrs;
  std::vector<uint64_t> ids;
  for (const Table& t : tables) {
    ptrs.push_back(&t);
    ids.push_back(TableContentHash(t.batch));
  }
  auto ref = ReferenceExecute(f.plan, ptrs);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const uint32_t point = 1;  // chain0's output
  obs::RowCapture ref_sink(64);
  ASSERT_TRUE(ReferenceExecute(f.plan, ptrs, {{0, point, &ref_sink}}).ok());
  const obs::CaptureResult want = ref_sink.Take("c0", 0, point);
  ASSERT_GT(want.offered, 0u);

  std::vector<cluster::PartitionedTable> parts;
  for (const Table& t : tables) {
    parts.push_back(cluster::PartitionRoundRobin(t, 2));
  }
  cluster::PlanQuery query;
  query.plan = f.plan;
  for (const auto& pt : parts) query.tables.push_back(&pt);

  for (bool on_cluster : {false, true}) {
    SCOPED_TRACE(on_cluster ? "cluster" : "threads");
    BuildCache cache;
    // One run: the result digest, the per-chain reuse flags, and (when
    // `sink` is set) a capture on chain0's output.
    auto run = [&](obs::RowCapture* sink, std::vector<bool>* reused) {
      PipelineOptions po;
      cluster::ClusterOptions co;
      co.nodes = 2;
      EngineOptions& eo = on_cluster ? static_cast<EngineOptions&>(co)
                                     : static_cast<EngineOptions&>(po);
      eo.threads = 2;
      eo.build_cache = &cache;
      eo.table_cache_ids = ids;
      if (sink != nullptr) eo.captures.push_back({0, point, sink});
      if (on_cluster) {
        cluster::ClusterStats st;
        auto got = cluster::ClusterExecutor(co).Execute(query, &st);
        *reused = st.chain_reused;
        return got;
      }
      PipelineStats st;
      auto got = PipelineExecutor(po).Execute(f.plan, ptrs, &st);
      *reused = st.chain_reused;
      return got;
    };
    std::vector<bool> reused;
    auto first = run(nullptr, &reused);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value(), ref.value());
    EXPECT_EQ(reused, (std::vector<bool>{false, false}));
    auto elided = run(nullptr, &reused);
    ASSERT_TRUE(elided.ok()) << elided.status().ToString();
    EXPECT_EQ(elided.value(), ref.value());
    EXPECT_EQ(reused, (std::vector<bool>{true, false}));

    obs::RowCapture sink(64);
    auto captured = run(&sink, &reused);
    ASSERT_TRUE(captured.ok()) << captured.status().ToString();
    EXPECT_EQ(captured.value(), ref.value());
    EXPECT_EQ(reused, (std::vector<bool>{false, false}));
    const obs::CaptureResult got = sink.Take("c0", 0, point);
    EXPECT_EQ(got.offered, want.offered);
    EXPECT_TRUE(got.SameRows(want));
  }
}

// Four concurrent streams, kCluster and kThreads interleaved at the same
// fragmentation, so every key is shared across backends: no hang, and
// every answer is the reference's.
TEST(BuildCacheReuse, ConcurrentClusterAndThreadsStreamsShareKeys) {
  api::SessionOptions so;
  so.max_concurrent_queries = 4;
  so.pool_threads = 4;
  Snowflake s(so);
  const api::Query q = s.Query();
  std::vector<api::QueryHandle> handles;
  for (uint32_t i = 0; i < 12; ++i) {
    api::ExecOptions o = Opts(kBackends[i % 3]);
    o.buckets = 32;
    handles.push_back(s.db.Submit(q, o));
  }
  uint64_t checksum = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].WaitFor(std::chrono::seconds(60)))
        << "query " << i << " did not finish";
    auto r = handles[i].Take();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().report.reference_match) << i;
    if (i == 0) checksum = r.value().report.result_checksum;
    EXPECT_EQ(r.value().report.result_checksum, checksum) << i;
  }
  EXPECT_GT(s.db.build_cache_stats().hits, 0u);
}

// A faulted cluster attempt publishes nothing — neither one that fails
// nor one that survives its faults — and leaves no in-flight entry
// behind: the next clean query builds fresh and publishes, and the one
// after it reuses.
TEST(BuildCacheReuse, FaultedClusterAttemptPublishesNothing) {
  Snowflake s;
  const api::Query q = s.Query();
  api::ExecOptions o = Opts(kBackends[1]);

  api::ExecOptions crash = o;
  fault::FaultPlan plan;
  plan.seed = 1;
  plan.crash_node = 1;
  plan.crash_after_polls = 5;
  crash.fault_plan = plan;
  crash.liveness_timeout_ms = 150;
  auto failed = s.db.Execute(q, crash);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.db.build_cache_stats().insertions, 0u);

  api::ExecOptions dup = o;
  fault::FaultPlan dups;
  dups.seed = 2;
  dups.dup_prob = 1.0;
  dup.fault_plan = dups;
  auto survived = s.db.Execute(q, dup);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_TRUE(survived.value().reference_match);
  EXPECT_GT(survived.value().faults_injected, 0u);
  EXPECT_EQ(s.db.build_cache_stats().insertions, 0u);

  api::ExecutionReport fresh = RunMatching(s.db, q, o, "fresh");
  EXPECT_EQ(fresh.build_cache_hits, 0u);
  EXPECT_EQ(fresh.chains_reused, 0u);
  EXPECT_GT(s.db.build_cache_stats().insertions, 0u);
  api::ExecutionReport reused = RunMatching(s.db, q, o, "reused");
  EXPECT_EQ(reused.chains_reused, 2u);
  EXPECT_EQ(reused.result_checksum, fresh.result_checksum);
}

}  // namespace
}  // namespace hierdb::mt
