// Shared build-side reuse across queries.
//
// Concurrent queries probing the same dimension/fact tables each used to
// scatter and hash the build side independently — pure repeated work (FDB
// [Bakibayev12] makes the general case for factoring repeated computation
// out of a query engine). The BuildCache keys a completed per-bucket hash
// table set on
//
//     (source, column, buckets, seed/skew, filters, projection)
//
// where `source` identifies the rows the build consumes:
//
//   a base table   a content hash of the relation's rows (so the key is
//                  valid independent of registration order or table
//                  storage), with `filters` hashing the scan-level
//                  predicates applied to the build rows and `projection`
//                  the column pruning (a filtered or pruned build never
//                  aliases a plain one);
//
//   a chain        (BuildKey::chain set) a recursive identity of the
//                  pipeline chain whose output the build consumes: its
//                  input's identity, each join's (build identity, probe
//                  column, build column), and the filter and projection
//                  hashes of every table in the subtree. A bushy query
//                  whose branch joins are unchanged thus finds the
//                  branch's hash tables without re-running the branch.
//
// `seed/skew` folds in the synthesis parameters for catalog-only
// relations bound at plan time (two queries share a synthesized build
// only when seed, skew and bind scale all match). BuildCacheKeyFor is the
// one definition of both key kinds.
//
// An entry (JoinBuild) holds all `buckets` tables whichever backend built
// it: the threads executor builds them in one address space, the cluster
// executor publishes its nodes' home buckets as one entry and each node
// reads only its home buckets of a hit. Beside the tables it holds, per
// node of the layout that published it, that node's direct-address index
// over its home buckets (mt/row_table.h: DenseIndex; unbuilt where the
// build did not prove its key unique and dense). A hit from the same node
// count probes through those indexes and builds nothing; a hit from
// another node count builds its own per query and does not store it, so
// an entry never changes after Publish.
//
// A session owns one cache; both real executors (mt::PipelineExecutor,
// cluster::ClusterExecutor) consult it through mt::ResolveBuilds
// (mt/pipeline_executor.h) with a promise-based protocol:
//
//   Acquire   returns the published tables (hit), marks the caller the
//             *builder* of a fresh in-flight entry (first miss), or —
//             when another query's build of the same key is already in
//             flight — waits for that build to publish instead of
//             duplicating the work (counted in Stats::dedup_waits). A
//             waiter whose query is cancelled, or that waits out the
//             safety timeout, proceeds solo: it builds locally and does
//             not publish. The cluster never waits (allow_wait = false).
//
//   Publish   installs the builder's finished bucket tables; every waiter
//             wakes with a hit. The threads executor publishes each build
//             as it finishes; the cluster publishes after a successful
//             run.
//
//   Abandon   removes an in-flight entry whose builder will never publish
//             (cancelled, failed or faulted execution); the next waiter
//             to wake becomes the new builder.
//
// Capacity is bounded by an optional byte budget (SetByteBudget,
// SessionOptions::build_cache_bytes): published entries are kept on an
// LRU list ordered by last hit, and publishing evicts least-recently-hit
// entries until the resident bytes (every entry's tables and indexes,
// JoinBuild::bytes) fit the budget again (the
// newest entry itself is never evicted, so a single oversized build still
// serves its own stream). Session::AddTable clears the cache
// (conservative invalidation; content-hash keys would stay correct,
// clearing bounds memory and keeps the documented contract simple).
// In-flight executions hold shared_ptr references, so Clear and eviction
// never free tables under a running probe.

#ifndef HIERDB_MT_BUILD_CACHE_H_
#define HIERDB_MT_BUILD_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mt/hash.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "mt/row_table.h"

namespace hierdb::mt {

/// Order-sensitive content hash of a batch (identical rows in identical
/// order => identical hash). Computed once per registered table and once
/// per synthesized table at plan time.
uint64_t TableContentHash(const Batch& batch);

struct BuildKey {
  /// Content hash of the build relation, or (chain) the identity of the
  /// chain whose output the build consumes.
  uint64_t table = 0;
  /// `table` is a chain identity: a chain key never equals a table key,
  /// whatever the two hashes are.
  bool chain = false;
  uint32_t column = 0;     ///< build (key) column
  uint32_t buckets = 0;    ///< degree of fragmentation
  uint64_t seed_skew = 0;  ///< synthesis identity; 0 for registered tables
  uint64_t filters = 0;    ///< PredicatesHash of the build's scan filters
  /// Identity of the build's column projection (0 = all columns): a
  /// pruned build stores narrowed rows with remapped key columns, so it
  /// must never alias an unpruned build of the same table.
  uint64_t projection = 0;

  bool operator==(const BuildKey&) const = default;
};

struct BuildKeyHash {
  size_t operator()(const BuildKey& k) const {
    uint64_t h = k.table ^ (k.chain ? 0xC3A5C85C97CB3127ULL : 0);
    h = HashCombine(h, static_cast<uint64_t>(k.column) << 32 | k.buckets);
    h = HashCombine(h, k.seed_skew);
    h = HashCombine(h, k.filters);
    h = HashCombine(h, k.projection);
    return static_cast<size_t>(h);
  }
};

/// One join's per-bucket hash tables, sized to BuildKey::buckets.
using BucketTables = std::vector<RowTable>;

/// One join's completed build as the cache shares it (see the header
/// comment): the bucket tables and, per node of the publishing layout,
/// that node's index over its home buckets.
struct JoinBuild {
  BucketTables tables;
  std::vector<DenseIndex> dense;  ///< [node]

  /// Resident bytes: every table and every index.
  uint64_t bytes() const {
    uint64_t b = 0;
    for (const RowTable& t : tables) b += t.bytes();
    for (const DenseIndex& d : dense) b += d.bytes();
    return b;
  }
};

/// The one definition of which builds are cacheable and what they key on
/// (see the header comment), shared by every executor path: they must stay
/// field-for-field identical or they stop sharing entries. `table_ids`
/// holds each base table's content hash, aligned with the plan's table
/// indexes (0 = uncacheable); `seed_skew` is the synthesis identity.
/// Returns false when a table the build reads, directly or through a
/// chain, has no identity.
bool BuildCacheKeyFor(const std::vector<uint64_t>& table_ids,
                      uint64_t seed_skew, const PipelinePlan& plan,
                      uint32_t buckets, const Source& build,
                      uint32_t build_col, BuildKey* key);

class BuildCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;  ///< Clear() calls
    uint64_t dedup_waits = 0;    ///< acquisitions served by waiting on an
                                 ///< in-flight build instead of rebuilding
    uint64_t evictions = 0;      ///< entries dropped by the byte budget
    uint64_t entries = 0;        ///< snapshot: published entries
    uint64_t bytes = 0;          ///< snapshot: resident JoinBuild bytes
  };

  /// What Acquire resolved the key to.
  struct Acquired {
    /// Non-null: a published entry (hit — possibly after waiting out
    /// another query's in-flight build).
    std::shared_ptr<const JoinBuild> tables;
    /// True: the caller owns the in-flight entry and must Publish or
    /// Abandon it. False with null tables: build solo, do not publish
    /// (the wait was cancelled or timed out).
    bool builder = false;
    bool waited = false;  ///< blocked behind another query's build
  };

  /// Resolves `key` per the protocol above. `cancelled` (optional) is
  /// polled while waiting so a cancelled query stops blocking promptly.
  /// `allow_wait = false` turns an in-flight entry into an immediate solo
  /// miss instead of waiting — callers that already hold an unpublished
  /// builder entry MUST pass false, or two queries acquiring overlapping
  /// key sets in different orders stall on each other (hold-and-wait:
  /// neither can publish before it starts executing).
  Acquired Acquire(const BuildKey& key,
                   const std::function<bool()>& cancelled = nullptr,
                   bool allow_wait = true);

  /// Publishes a builder's completed build and wakes the key's waiters.
  void Publish(const BuildKey& key, std::shared_ptr<const JoinBuild> tables);

  /// Drops an in-flight entry whose builder will not publish; the next
  /// waiter becomes the builder. No-op once the key is published.
  void Abandon(const BuildKey& key);

  /// LRU byte budget over published entries (0 = unbounded, the default).
  void SetByteBudget(uint64_t bytes);

  /// Drops every entry (in-flight readers keep their shared_ptrs alive;
  /// waiters on in-flight builds re-acquire as builders).
  void Clear();

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const JoinBuild> tables;  ///< null while building
    bool building = true;
    uint64_t bytes = 0;
    std::list<BuildKey>::iterator lru;  ///< valid once published
  };

  /// Pre: lock held. Evicts least-recently-hit entries (never `keep`)
  /// until resident bytes fit the budget.
  void EvictLocked(const BuildKey& keep);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<BuildKey, Entry, BuildKeyHash> map_;
  std::list<BuildKey> lru_;  ///< published keys, most recently hit first
  uint64_t budget_bytes_ = 0;
  uint64_t resident_bytes_ = 0;
  Stats stats_;
};

}  // namespace hierdb::mt

#endif  // HIERDB_MT_BUILD_CACHE_H_
