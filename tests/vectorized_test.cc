// Columnar data plane tests: the kernels against their row-at-a-time
// definitions, and end-to-end agreement with the single-threaded reference
// executor (digest and capture samples) across every backend and strategy
// over filters, aggregation, skew and empty/all-pass selections. Also
// covers column-pruned cluster shipping: an aggregated query that reads
// fewer columns must move strictly fewer kTupleBatch bytes.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "api/session.h"
#include "cluster/cluster_executor.h"
#include "gtest/gtest.h"
#include "mt/agg.h"
#include "mt/column_batch.h"
#include "mt/hash.h"
#include "mt/plan.h"
#include "mt/prune.h"
#include "mt/row.h"
#include "mt/row_table.h"

// ---------------------------------------------------------------------------
// Kernel-level: strided filters, hash/gather, stats, batch accumulate.

namespace hierdb::mt {
namespace {

Batch RandomBatch(size_t rows, uint32_t width, int64_t range, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, range - 1);
  Batch b(width);
  std::vector<int64_t> row(width);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t c = 0; c < width; ++c) row[c] = dist(rng);
    b.AppendRow(row.data());
  }
  return b;
}

TEST(FilterKernels, StridedMatchesScalarForEveryCmpOp) {
  Batch b = RandomBatch(4096, 3, 100, 17);
  const uint32_t col = 1;
  std::vector<uint32_t> sel(b.rows());
  for (CmpOp cmp : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                    CmpOp::kGt, CmpOp::kGe}) {
    Predicate p{col, cmp, 42};
    size_t m = FilterStrided(b.data().data() + col, b.width(), b.rows(), cmp,
                             42, sel.data());
    size_t at = 0;
    for (size_t i = 0; i < b.rows(); ++i) {
      if (!p.Matches(b.at(i, col))) continue;
      ASSERT_LT(at, m);
      EXPECT_EQ(sel[at], i);
      ++at;
    }
    EXPECT_EQ(at, m);
  }
}

TEST(FilterKernels, FilterBatchConjunctionAndEdgeCases) {
  Batch b = RandomBatch(2000, 4, 50, 3);
  SelVec sel;

  // Empty conjunction selects everything as the identity selection.
  size_t m = FilterBatch(b, 0, b.rows(), {}, &sel);
  ASSERT_EQ(m, b.rows());
  for (size_t i = 0; i < m; ++i) EXPECT_EQ(sel[i], i);

  // A conjunction matches the scalar MatchesAll row loop, order preserved.
  std::vector<Predicate> preds = {{0, CmpOp::kLt, 30},
                                  {2, CmpOp::kGe, 10},
                                  {3, CmpOp::kNe, 7}};
  m = FilterBatch(b, 0, b.rows(), preds, &sel);
  size_t at = 0;
  for (size_t i = 0; i < b.rows(); ++i) {
    if (!MatchesAll(preds, b.row(i))) continue;
    ASSERT_LT(at, m);
    EXPECT_EQ(sel[at], i);
    ++at;
  }
  EXPECT_EQ(at, m);
  EXPECT_GT(m, 0u);
  EXPECT_LT(m, b.rows());

  // A morsel offset shifts the window but keeps indexes morsel-local.
  m = FilterBatch(b, 500, 100, preds, &sel);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_LT(sel[i], 100u);
    EXPECT_TRUE(MatchesAll(preds, b.row(500 + sel[i])));
  }

  // A contradictory conjunction selects nothing.
  m = FilterBatch(b, 0, b.rows(),
                  {{0, CmpOp::kLt, 10}, {0, CmpOp::kGe, 10}}, &sel);
  EXPECT_EQ(m, 0u);
  EXPECT_TRUE(sel.empty());
}

TEST(HashGatherKernels, HashAndGatherMatchScalarDefinitions) {
  Batch b = RandomBatch(1500, 3, 1000, 5);
  const uint32_t col = 2;
  const int64_t* base = b.data().data() + col;

  // Dense.
  std::vector<uint64_t> hashes(b.rows());
  HashStrided(base, b.width(), nullptr, b.rows(), hashes.data());
  for (size_t i = 0; i < b.rows(); ++i) {
    EXPECT_EQ(hashes[i], HashKey(b.at(i, col)));
  }

  // Through a selection vector.
  SelVec sel;
  std::vector<Predicate> preds = {{0, CmpOp::kLt, 500}};
  size_t m = FilterBatch(b, 0, b.rows(), preds, &sel);
  ASSERT_GT(m, 0u);
  hashes.resize(m);
  std::vector<int64_t> keys(m);
  HashStrided(base, b.width(), sel.data(), m, hashes.data());
  GatherStrided(base, b.width(), sel.data(), m, keys.data());
  for (size_t i = 0; i < m; ++i) {
    EXPECT_EQ(keys[i], b.at(sel[i], col));
    EXPECT_EQ(hashes[i], HashKey(keys[i]));
  }
}

TEST(ColumnStatsTest, MinMaxAndDistinctEstimates) {
  // Empty batch: zeroed stats.
  Batch empty(3);
  auto zs = ComputeColumnStats(empty);
  ASSERT_EQ(zs.size(), 3u);
  EXPECT_EQ(zs[0].min, 0);
  EXPECT_EQ(zs[0].distinct_est, 0u);

  // Below the sketch size the distinct count is exact.
  Batch b(2);
  for (int64_t i = 0; i < 5000; ++i) {
    int64_t row[2] = {i % 40 - 7, i};
    b.AppendRow(row);
  }
  auto stats = ComputeColumnStats(b);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].min, -7);
  EXPECT_EQ(stats[0].max, 32);
  EXPECT_EQ(stats[0].distinct_est, 40u);
  EXPECT_EQ(stats[1].min, 0);
  EXPECT_EQ(stats[1].max, 4999);
  // Above it, KMV: within a loose factor of the true 5000.
  EXPECT_GT(stats[1].distinct_est, 2500u);
  EXPECT_LT(stats[1].distinct_est, 10000u);
}

TEST(ColumnStatsTest, ClassifyPredicateFolds) {
  ColumnStats s{10, 20, 11};
  using PF = PredicateFold;
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kLt, 10}, s), PF::kAlwaysFalse);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kLt, 21}, s), PF::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kLt, 15}, s), PF::kKeep);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kLe, 9}, s), PF::kAlwaysFalse);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kLe, 20}, s), PF::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kGt, 20}, s), PF::kAlwaysFalse);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kGt, 9}, s), PF::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kGe, 21}, s), PF::kAlwaysFalse);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kGe, 10}, s), PF::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kEq, 25}, s), PF::kAlwaysFalse);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kEq, 15}, s), PF::kKeep);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kNe, 25}, s), PF::kAlwaysTrue);
  // Single-valued column: equality folds both ways.
  ColumnStats one{4, 4, 1};
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kEq, 4}, one), PF::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate({0, CmpOp::kNe, 4}, one), PF::kAlwaysFalse);
}

TEST(BatchAppend, AppendRowsMatchesRowAtATime) {
  Batch src = RandomBatch(777, 3, 100, 23);
  Batch bulk(3), single(3);
  bulk.AppendRows(src.data().data(), src.rows());
  for (size_t i = 0; i < src.rows(); ++i) single.AppendRow(src.row(i));
  EXPECT_EQ(bulk.rows(), src.rows());
  EXPECT_EQ(bulk.data(), single.data());
}

TEST(BatchAppend, DigestAddRowsMatchesRowAtATime) {
  // 777 rows span several 256-row tiles and a partial one.
  Batch src = RandomBatch(777, 5, 1000, 67);
  ResultDigest bulk, single;
  bulk.AddRows(src.data().data(), src.rows(), 5);
  for (size_t i = 0; i < src.rows(); ++i) single.Add(src.row(i), 5);
  EXPECT_EQ(bulk, single);
  ResultDigest none;
  none.AddRows(nullptr, 0, 5);
  EXPECT_EQ(none, ResultDigest{});
}

// ProbeMatches against ForEachMatch, as multisets of (probe row, build
// row): the kernel emits matches round-major, so only the multiset is
// defined. Row i is looked up in tables[HashKey(keys[i]) % tables.size()].
using MatchSet = std::vector<std::pair<uint32_t, const int64_t*>>;

MatchSet KernelMatches(const std::vector<RowTable>& tables,
                       const std::vector<int64_t>& keys,
                       ProbeScratch* scratch) {
  std::vector<uint64_t> hashes(keys.size());
  HashStrided(keys.data(), 1, nullptr, keys.size(), hashes.data());
  Matches m;
  ProbeMatches(tables.data(), static_cast<uint32_t>(tables.size()),
               keys.data(), hashes.data(), keys.size(), scratch, &m);
  MatchSet out;
  for (size_t k = 0; k < m.size(); ++k) {
    EXPECT_EQ(m.build[k][0], keys[m.probe[k]]);
    out.emplace_back(m.probe[k], m.build[k]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

MatchSet KernelMatches(const std::vector<RowTable>& tables,
                       const std::vector<int64_t>& keys) {
  ProbeScratch scratch;
  return KernelMatches(tables, keys, &scratch);
}

MatchSet ReferenceMatches(const std::vector<RowTable>& tables,
                          const std::vector<int64_t>& keys) {
  MatchSet out;
  for (size_t i = 0; i < keys.size(); ++i) {
    tables[HashKey(keys[i]) % tables.size()].ForEachMatch(
        keys[i], [&](const int64_t* brow) {
          out.emplace_back(static_cast<uint32_t>(i), brow);
        });
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Inserts {key, i} for every key into tables[HashKey(key) % size].
void Fill(std::vector<RowTable>* tables, const std::vector<int64_t>& keys) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t row[2] = {keys[i], static_cast<int64_t>(i)};
    (*tables)[HashKey(keys[i]) % tables->size()].Insert(row);
  }
}

std::vector<int64_t> RandomKeys(size_t n, int64_t range, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> keys(n);
  for (int64_t& k : keys) k = static_cast<int64_t>(rng() % range);
  return keys;
}

TEST(ProbeMatchesEquiv, DuplicateKeysFragmentedAndSingleTable) {
  // 3000 build rows over 200 keys: about 15 matches per hit key, and
  // probe keys up to 260 so some miss entirely.
  const std::vector<int64_t> build = RandomKeys(3000, 200, 29);
  const std::vector<int64_t> probe = RandomKeys(1000, 260, 31);
  for (uint32_t buckets : {1u, 16u, 100u}) {
    std::vector<RowTable> tables(buckets, RowTable(2, 0));
    Fill(&tables, build);
    const MatchSet got = KernelMatches(tables, probe);
    EXPECT_EQ(got, ReferenceMatches(tables, probe)) << buckets;
    EXPECT_GT(got.size(), probe.size()) << buckets;
  }
}

TEST(ProbeMatchesEquiv, KeysSharingOneChain) {
  // Six keys on one chain of a 16-head table (slot 5), probed with those
  // keys and with absent keys whose lookups walk that same chain.
  std::vector<int64_t> on_chain, absent;
  for (int64_t k = 0; on_chain.size() < 6 || absent.size() < 4; ++k) {
    if (SlotOf(HashKey(k), 16) != 5) continue;
    (on_chain.size() < 6 ? on_chain : absent).push_back(k);
  }
  std::vector<RowTable> tables(1, RowTable(2, 0));
  Fill(&tables, on_chain);
  std::vector<int64_t> probe = on_chain;
  probe.insert(probe.end(), absent.begin(), absent.end());
  probe.insert(probe.end(), on_chain.rbegin(), on_chain.rend());
  const MatchSet got = KernelMatches(tables, probe);
  EXPECT_EQ(got, ReferenceMatches(tables, probe));
  EXPECT_EQ(got.size(), 2 * on_chain.size());
}

TEST(ProbeMatchesEquiv, EmptyBucketTables) {
  const std::vector<int64_t> probe = RandomKeys(500, 100, 41);
  // No build rows at all.
  std::vector<RowTable> empty(8, RowTable(2, 0));
  EXPECT_TRUE(KernelMatches(empty, probe).empty());
  // Only the keys of buckets 0 and 3 built: the other six tables stay
  // empty, as a cluster node's non-home tables do.
  std::vector<int64_t> build;
  for (int64_t k = 0; k < 100; ++k) {
    const uint64_t b = HashKey(k) % 8;
    if (b == 0 || b == 3) build.push_back(k);
  }
  std::vector<RowTable> sparse(8, RowTable(2, 0));
  Fill(&sparse, build);
  const MatchSet got = KernelMatches(sparse, probe);
  EXPECT_EQ(got, ReferenceMatches(sparse, probe));
  EXPECT_GT(got.size(), 0u);
  EXPECT_LT(got.size(), probe.size());
}

TEST(ProbeMatchesEquiv, EmptyBatchAndAllMisses) {
  std::vector<RowTable> tables(64, RowTable(2, 0));
  Fill(&tables, RandomKeys(1000, 1000, 43));
  ProbeScratch scratch;
  EXPECT_TRUE(KernelMatches(tables, {}, &scratch).empty());
  // Keys outside the build range, after a batch that filled the scratch
  // (stale entries past the new batch must not leak into it).
  const std::vector<int64_t> hits = RandomKeys(1000, 1000, 47);
  EXPECT_EQ(KernelMatches(tables, hits, &scratch),
            ReferenceMatches(tables, hits));
  std::vector<int64_t> misses = RandomKeys(300, 1000, 53);
  for (int64_t& k : misses) k += 1000;
  EXPECT_TRUE(KernelMatches(tables, misses, &scratch).empty());
  EXPECT_TRUE(KernelMatches(tables, {}, &scratch).empty());
}

TEST(ProbeMatchesEquiv, OneSlotHoldsEveryKey) {
  // 100 keys, three rows each, whose hashes share their top 8 bits: one
  // table of 300 rows has 256 heads, so every row sits on one chain of
  // 300 links that mixes every key.
  std::vector<int64_t> keys;
  const uint64_t slot = SlotOf(HashKey(0), 256);
  for (int64_t k = 0; keys.size() < 100; ++k) {
    if (SlotOf(HashKey(k), 256) == slot) keys.push_back(k);
  }
  std::vector<int64_t> build;
  for (int copy = 0; copy < 3; ++copy) {
    build.insert(build.end(), keys.begin(), keys.end());
  }
  std::vector<RowTable> tables(1, RowTable(2, 0));
  Fill(&tables, build);
  std::vector<int64_t> probe = keys;
  probe.push_back(keys.back() + 1);
  const MatchSet got = KernelMatches(tables, probe);
  EXPECT_EQ(got, ReferenceMatches(tables, probe));
  EXPECT_EQ(got.size(), 3 * keys.size());
}

TEST(ProbeMatchesEquiv, JoinedChunksConcatenateEveryMatch) {
  std::vector<RowTable> tables(16, RowTable(2, 0));
  Fill(&tables, RandomKeys(400, 50, 59));
  Batch probe = RandomBatch(300, 3, 60, 61);
  std::vector<int64_t> keys(probe.rows());
  std::vector<uint64_t> hashes(probe.rows());
  GatherStrided(probe.data().data() + 1, 3, nullptr, probe.rows(),
                keys.data());
  HashStrided(keys.data(), 1, nullptr, keys.size(), hashes.data());
  ProbeScratch scratch;
  Matches m;
  ProbeMatches(tables.data(), 16, keys.data(), hashes.data(), keys.size(),
               &scratch, &m);
  ASSERT_GT(m.size(), 100u);
  Batch joined, chunk;
  ForEachJoinedChunk(probe, m, 0, m.size(), 2, 64, &chunk, [&](Batch& c) {
    EXPECT_EQ(c.width(), 5u);
    EXPECT_LE(c.rows(), 64u);
    if (joined.width() == 0) joined = Batch(5);
    joined.AppendRows(c.data().data(), c.rows());
  });
  Batch expected(5);
  for (size_t k = 0; k < m.size(); ++k) {
    expected.AppendConcat(probe.row(m.probe[k]), 3, m.build[k], 2);
  }
  EXPECT_EQ(joined.data(), expected.data());
}

// The direct-address lookup against ForEachMatch. LookupMatches probes
// through ProbeBatch, the engine's lookup choice, with an index built over
// every table (one node) and reports which lookup served the batch;
// HomeMatches is the oracle restricted to one node's home buckets.
MatchSet LookupMatches(const std::vector<RowTable>& tables,
                       const DenseIndex& dense,
                       const std::vector<int64_t>& keys, bool* direct,
                       ProbeScratch* scratch, Matches* m) {
  *direct = ProbeBatch(&dense, tables.data(),
                       static_cast<uint32_t>(tables.size()), keys.data(),
                       keys.size(), scratch, m);
  MatchSet out;
  for (size_t k = 0; k < m->size(); ++k) {
    EXPECT_EQ(m->build[k][0], keys[m->probe[k]]);
    out.emplace_back(m->probe[k], m->build[k]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

MatchSet LookupMatches(const std::vector<RowTable>& tables,
                       const DenseIndex& dense,
                       const std::vector<int64_t>& keys, bool* direct) {
  ProbeScratch scratch;
  Matches m;
  return LookupMatches(tables, dense, keys, direct, &scratch, &m);
}

MatchSet HomeMatches(const std::vector<RowTable>& tables, uint32_t node,
                     uint32_t nodes, const std::vector<int64_t>& keys) {
  MatchSet out;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t b = HashKey(keys[i]) % tables.size();
    if (b % nodes != node) continue;
    tables[b].ForEachMatch(keys[i], [&](const int64_t* brow) {
      out.emplace_back(static_cast<uint32_t>(i), brow);
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> Shuffled(int64_t lo, int64_t hi, uint64_t seed) {
  std::vector<int64_t> keys;
  for (int64_t k = lo; k < hi; ++k) keys.push_back(k);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(seed));
  return keys;
}

// Builds `buckets` tables over `build` and reports whether the one-node
// index over them was built; the lookup must agree with ForEachMatch
// either way, and use the index exactly when it was built.
bool CheckOneNodeLookup(const std::vector<int64_t>& build,
                        const std::vector<int64_t>& probe,
                        uint32_t buckets = 64) {
  std::vector<RowTable> tables(buckets, RowTable(2, 0));
  Fill(&tables, build);
  DenseIndex dense;
  const bool built = dense.Build(tables.data(), buckets, 0, 1);
  EXPECT_EQ(dense.built(), built);
  bool direct = false;
  EXPECT_EQ(LookupMatches(tables, dense, probe, &direct),
            ReferenceMatches(tables, probe));
  EXPECT_EQ(direct, built);
  return built;
}

TEST(DenseIndexEquiv, UniqueDenseBuildMatchesChainedProbe) {
  // Keys 0..999 in random insertion order; probe keys below, inside and
  // above the span, and the two extremes of int64_t.
  const std::vector<int64_t> build = Shuffled(0, 1000, 3);
  std::vector<int64_t> probe = RandomKeys(3000, 1200, 5);
  for (int64_t& k : probe) k -= 100;
  probe.insert(probe.end(), {INT64_MIN, INT64_MIN + 1, -1, 0, 999, 1000,
                             INT64_MAX - 1, INT64_MAX});
  for (uint32_t buckets : {1u, 64u}) {
    EXPECT_TRUE(CheckOneNodeLookup(build, probe, buckets)) << buckets;
  }
  // Scratch reused from a larger batch: stale entries must not leak.
  std::vector<RowTable> tables(64, RowTable(2, 0));
  Fill(&tables, build);
  DenseIndex dense;
  ASSERT_TRUE(dense.Build(tables.data(), 64, 0, 1));
  EXPECT_EQ(dense.bytes(), 1000 * sizeof(const int64_t*));
  ProbeScratch scratch;
  Matches m;
  bool direct = false;
  EXPECT_EQ(LookupMatches(tables, dense, probe, &direct, &scratch, &m).size(),
            probe.size() - std::count_if(probe.begin(), probe.end(),
                                         [](int64_t k) {
                                           return k < 0 || k >= 1000;
                                         }));
  const std::vector<int64_t> small = {5, -5, 7};
  EXPECT_EQ(LookupMatches(tables, dense, small, &direct, &scratch, &m),
            ReferenceMatches(tables, small));
  EXPECT_EQ(m.size(), 2u);
}

TEST(DenseIndexEquiv, EachNodeIndexesItsHomeBuckets) {
  // A node's home buckets hold about 1/N of a dense key range, spread
  // over the whole range: density 1/2, 1/3 and 1/4 stay above the floor.
  const std::vector<int64_t> build = Shuffled(0, 1000, 7);
  std::vector<int64_t> probe = Shuffled(-20, 1020, 9);
  std::vector<RowTable> tables(64, RowTable(2, 0));
  Fill(&tables, build);
  for (uint32_t nodes : {2u, 3u, 4u}) {
    for (uint32_t node = 0; node < nodes; ++node) {
      SCOPED_TRACE(std::to_string(node) + " of " + std::to_string(nodes));
      DenseIndex dense;
      ASSERT_TRUE(dense.Build(tables.data(), 64, node, nodes));
      bool direct = false;
      const MatchSet got = LookupMatches(tables, dense, probe, &direct);
      EXPECT_TRUE(direct);
      EXPECT_EQ(got, HomeMatches(tables, node, nodes, probe));
      EXPECT_GT(got.size(), 1000 / nodes / 2);
    }
  }
}

TEST(DenseIndexEquiv, DuplicateKeyFallsBack) {
  // One duplicated key among 1,000 unique ones: no index on one node, and
  // on two nodes none for the node homing that key's bucket only.
  std::vector<int64_t> build = Shuffled(0, 1000, 11);
  build.push_back(500);
  const std::vector<int64_t> probe = RandomKeys(2000, 1100, 13);
  EXPECT_FALSE(CheckOneNodeLookup(build, probe));
  std::vector<RowTable> tables(64, RowTable(2, 0));
  Fill(&tables, build);
  const uint32_t dup_node = HashKey(500) % 64 % 2;
  for (uint32_t node = 0; node < 2; ++node) {
    DenseIndex dense;
    EXPECT_EQ(dense.Build(tables.data(), 64, node, 2), node != dup_node);
  }
  // Every key duplicated (four rows per key).
  std::vector<int64_t> fourfold;
  for (int copy = 0; copy < 4; ++copy) {
    const std::vector<int64_t> keys = Shuffled(0, 250, 17 + copy);
    fourfold.insert(fourfold.end(), keys.begin(), keys.end());
  }
  EXPECT_FALSE(CheckOneNodeLookup(fourfold, probe));
}

TEST(DenseIndexEquiv, NegativeAndSparseKeysAgainstTheDensityFloor) {
  const std::vector<int64_t> probe = RandomKeys(3000, 2000, 19);
  std::vector<int64_t> shifted = probe;
  for (int64_t& k : shifted) k -= 1000;
  EXPECT_TRUE(CheckOneNodeLookup(Shuffled(-500, 500, 23), shifted));
  // 100 rows span at most kSpanPerRow * 100 + kSpanSlack = 864 slots.
  static_assert(DenseIndex::kSpanPerRow * 100 + DenseIndex::kSpanSlack ==
                864);
  auto spaced = [](int64_t step) {
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 100; ++i) keys.push_back(i * step);
    return keys;
  };
  EXPECT_TRUE(CheckOneNodeLookup(spaced(8), probe));    // span 793
  EXPECT_FALSE(CheckOneNodeLookup(spaced(9), probe));   // span 892
  std::vector<int64_t> edge = Shuffled(0, 99, 29);
  edge.push_back(863);  // span 864: at the floor
  EXPECT_TRUE(CheckOneNodeLookup(edge, probe));
  edge.back() = 864;  // span 865: one past it
  EXPECT_FALSE(CheckOneNodeLookup(edge, probe));
}

TEST(DenseIndexEquiv, ExtremeKeysAndSpanOverflow) {
  const std::vector<int64_t> probe = {INT64_MIN,      INT64_MIN + 5,
                                      INT64_MIN + 10, -1,
                                      0,              INT64_MAX - 10,
                                      INT64_MAX - 5,  INT64_MAX};
  // Both extremes: the span is 2^64, which no uint64_t holds.
  std::vector<int64_t> both = Shuffled(0, 100, 31);
  both.push_back(INT64_MIN);
  both.push_back(INT64_MAX);
  EXPECT_FALSE(CheckOneNodeLookup(both, probe));
  // Dense runs at either end index fine; the far end's keys wrap to
  // offsets past the span and miss.
  std::vector<int64_t> top, bottom;
  for (int64_t i = 0; i < 10; ++i) {
    top.push_back(INT64_MAX - i);
    bottom.push_back(INT64_MIN + i);
  }
  EXPECT_TRUE(CheckOneNodeLookup(top, probe));
  EXPECT_TRUE(CheckOneNodeLookup(bottom, probe));
}

TEST(DenseIndexEquiv, EmptyAndOneRowBuilds) {
  const std::vector<int64_t> probe = {41, 42, 43, 42, INT64_MIN};
  EXPECT_FALSE(CheckOneNodeLookup({}, probe));
  EXPECT_TRUE(CheckOneNodeLookup({42}, probe));
  std::vector<RowTable> one(8, RowTable(2, 0));
  Fill(&one, {42});
  DenseIndex dense;
  ASSERT_TRUE(dense.Build(one.data(), 8, 0, 1));
  bool direct = false;
  EXPECT_EQ(LookupMatches(one, dense, probe, &direct).size(), 2u);
  // A node whose home buckets hold no row indexes nothing.
  const uint32_t home = HashKey(42) % 8 % 2;
  EXPECT_FALSE(dense.Build(one.data(), 8, 1 - home, 2));
  EXPECT_FALSE(dense.built());
}

TEST(DenseIndexEquiv, MemoryCapRejectsASpanTheFloorAdmits) {
  // kMaxSlots / kSpanPerRow + 1 keys at stride kSpanPerRow: the density
  // floor admits the span (kMaxSlots + 1), the memory cap does not.
  constexpr int64_t kStep = DenseIndex::kSpanPerRow;
  constexpr int64_t kRows = DenseIndex::kMaxSlots / kStep + 1;
  std::vector<RowTable> tables(1, RowTable(2, 0));
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t row[2] = {i * kStep, i};
    tables[0].Insert(row);
  }
  DenseIndex dense;
  EXPECT_FALSE(dense.Build(tables.data(), 1, 0, 1));
  EXPECT_EQ(dense.bytes(), 0u);
}

// The GROUP BY kernel's join-less identity form against the scalar
// Accumulate: dense rows split at a non-tile boundary, and a selection
// passed as probe-row indexes.
TEST(AggKernel, IdentityAndSelectedRowsMatchScalar) {
  AggSpec spec;
  spec.group_cols = {1};
  spec.aggs = {{AggFn::kCount, 0}, {AggFn::kSum, 0}, {AggFn::kMin, 2},
               {AggFn::kMax, 2}, {AggFn::kAvg, 0}};
  Batch rows = RandomBatch(6000, 3, 64, 37);

  AggTable scalar(&spec);
  for (size_t i = 0; i < rows.rows(); ++i) scalar.Accumulate(rows.row(i));

  AggTable dense(&spec);
  AggTable::Scratch scratch;
  dense.AccumulateJoined(JoinedRows::Of(rows.row(0), 2500, 3), &scratch);
  dense.AccumulateJoined(
      JoinedRows::Of(rows.row(2500), rows.rows() - 2500, 3), &scratch);
  ResultDigest ds, dd;
  scalar.EmitFinal(nullptr, &ds);
  dense.EmitFinal(nullptr, &dd);
  EXPECT_EQ(scalar.groups(), dense.groups());
  EXPECT_EQ(ds, dd);

  std::vector<Predicate> preds = {{0, CmpOp::kLt, 32}};
  SelVec sel;
  size_t m = FilterBatch(rows, 0, rows.rows(), preds, &sel);
  AggTable fsel(&spec), fscalar(&spec);
  JoinedRows selected = JoinedRows::Of(rows);
  selected.probe_rows = sel.data();
  selected.n = m;
  fsel.AccumulateJoined(selected, &scratch);
  for (size_t i = 0; i < rows.rows(); ++i) {
    if (MatchesAll(preds, rows.row(i))) fscalar.Accumulate(rows.row(i));
  }
  ResultDigest a, e;
  fsel.EmitFinal(nullptr, &a);
  fscalar.EmitFinal(nullptr, &e);
  EXPECT_EQ(a, e);
}

// A probe batch (width 3, key in column 1) matched against a build (width
// 2, key in column 0) of four bucket tables, with its match list and the
// joined rows (probe columns 0-2, build columns 3-4). More build rows
// than keys means duplicate build keys, so a probe row matches several
// times.
struct JoinCase {
  Batch probe;
  std::vector<RowTable> tables;
  Matches matches;
  Batch joined;
};

JoinCase MakeJoinCase(size_t probe_rows, size_t build_rows, int64_t range,
                      uint64_t seed, int64_t build_offset = 0) {
  JoinCase jc;
  jc.probe = RandomBatch(probe_rows, 3, range, seed);
  jc.tables.assign(4, RowTable(2, 0));
  Batch build = RandomBatch(build_rows, 2, range, seed + 1);
  for (int64_t& v : build.data()) v += build_offset;
  for (size_t i = 0; i < build.rows(); ++i) {
    jc.tables[HashKey(build.at(i, 0)) % 4].Insert(build.row(i));
  }
  std::vector<int64_t> keys(probe_rows);
  std::vector<uint64_t> hashes(probe_rows);
  for (size_t i = 0; i < probe_rows; ++i) {
    keys[i] = jc.probe.at(i, 1);
    hashes[i] = HashKey(keys[i]);
  }
  ProbeScratch scratch;
  ProbeMatches(jc.tables.data(), 4, keys.data(), hashes.data(), probe_rows,
               &scratch, &jc.matches);
  JoinMatches(jc.probe, jc.matches, 0, jc.matches.size(), 2, &jc.joined);
  return jc;
}

// Kernel over the match list vs ReferenceAggregate over the joined rows:
// same rows in the same (insertion) order, and the same digest.
void ExpectKernelMatchesReference(const JoinCase& jc, const AggSpec& spec) {
  SCOPED_TRACE(spec.ToString() + " over " +
               std::to_string(jc.matches.size()) + " matches");
  ASSERT_TRUE(spec.Validate(5).ok());
  AggTable table(&spec);
  AggTable::Scratch scratch;
  table.AccumulateJoined(JoinedMatches(jc.probe, jc.matches, 2), &scratch);
  Batch got(spec.OutputWidth());
  ResultDigest got_digest;
  table.EmitFinal(&got, &got_digest);
  const Batch want = ReferenceAggregate(jc.joined, spec);
  EXPECT_EQ(got.data(), want.data());
  ResultDigest want_digest;
  want_digest.AddRows(want.data().data(), want.rows(), want.width());
  EXPECT_EQ(got_digest, want_digest);

  // Partitions select on the stored group hash, which must be the scalar
  // GroupHash: the same partial rows land in every partition.
  AggTable scalar(&spec);
  for (size_t i = 0; i < jc.joined.rows(); ++i) {
    scalar.Accumulate(jc.joined.row(i));
  }
  for (uint32_t part = 0; part < 3; ++part) {
    Batch a, b;
    table.EmitPartials(part, 3, &a);
    scalar.EmitPartials(part, 3, &b);
    EXPECT_EQ(a.data(), b.data()) << "partition " << part;
  }

  // The merge phase resolves groups through the same lookup: two halves
  // merged partial by partial equal the whole.
  const size_t half = jc.matches.size() / 2;
  JoinedRows lo = JoinedMatches(jc.probe, jc.matches, 2), hi = lo;
  lo.n = half;
  hi.probe_rows += half;
  hi.build += half;
  hi.n -= half;
  AggTable left(&spec), right(&spec), merged(&spec);
  left.AccumulateJoined(lo, &scratch);
  right.AccumulateJoined(hi, &scratch);
  for (const AggTable* t : {&left, &right}) {
    t->ForEachPartial(0, 1, [&](const int64_t* p) { merged.MergePartial(p); });
  }
  ResultDigest merged_digest;
  merged.EmitFinal(nullptr, &merged_digest);
  EXPECT_EQ(merged_digest, want_digest);
}

const std::vector<AggExpr> kEveryAgg = {
    {AggFn::kCount, 0}, {AggFn::kSum, 0}, {AggFn::kMin, 4},
    {AggFn::kMax, 2},   {AggFn::kAvg, 4}, {AggFn::kSum, 3}};

TEST(AggKernel, MatchListMatchesReferenceAggregate) {
  // 3,000 probe rows over 150 keys against 600 build rows: every tile is
  // full but the last, and each matching probe row matches ~4 times.
  const JoinCase jc = MakeJoinCase(3000, 600, 150, 71);
  ASSERT_GT(jc.matches.size(), 4 * AggTable::kTile);
  // 0, 1, 2 and 3 group columns, from the probe side, the build side and
  // both.
  const std::vector<std::vector<uint32_t>> group_sets = {
      {}, {1}, {4}, {3}, {0}, {1, 4}, {4, 2}, {2, 4, 0}, {3, 1, 4}};
  for (const auto& groups : group_sets) {
    AggSpec spec;
    spec.group_cols = groups;
    spec.aggs = kEveryAgg;
    ExpectKernelMatchesReference(jc, spec);
    // Distinct (no aggregates) and HAVING on a count and on an AVG.
    if (!groups.empty()) {
      AggSpec distinct;
      distinct.group_cols = groups;
      ExpectKernelMatchesReference(jc, distinct);
    }
    const uint32_t g = static_cast<uint32_t>(groups.size());
    spec.having = {{g, CmpOp::kGt, 3}, {g + 4, CmpOp::kGe, 40}};
    ExpectKernelMatchesReference(jc, spec);
  }
}

TEST(AggKernel, EdgeCasesMatchReference) {
  AggSpec spec;
  spec.group_cols = {4, 1};
  spec.aggs = kEveryAgg;
  AggSpec global;
  global.aggs = kEveryAgg;
  for (const AggSpec* s : {&spec, &global}) {
    // Empty match lists: no probe rows, no build rows, disjoint keys.
    ExpectKernelMatchesReference(MakeJoinCase(0, 100, 50, 3), *s);
    ExpectKernelMatchesReference(MakeJoinCase(500, 0, 50, 4), *s);
    ExpectKernelMatchesReference(MakeJoinCase(500, 100, 50, 5, 1000), *s);
    // One probe row; exactly one tile; one row past it.
    ExpectKernelMatchesReference(MakeJoinCase(1, 10, 1, 7), *s);
    for (size_t n : {AggTable::kTile, AggTable::kTile + 1}) {
      ExpectKernelMatchesReference(MakeJoinCase(n, 64, 64, 8 + n), *s);
    }
  }
}

TEST(AggKernel, RandomizedSpecsAndManyGroups) {
  std::mt19937_64 rng(2024);
  for (int round = 0; round < 40; ++round) {
    // Key ranges up to 20k: tens of thousands of groups grow the table
    // mid-tile many times over.
    const int64_t range = int64_t{1} << (1 + rng() % 15);
    const JoinCase jc =
        MakeJoinCase(200 + rng() % 3000, 50 + rng() % 2000, range, rng());
    AggSpec spec;
    const size_t g = rng() % 4;
    for (size_t j = 0; j < g; ++j) {
      spec.group_cols.push_back(static_cast<uint32_t>(rng() % 5));
    }
    const size_t naggs = (g == 0 ? 1 : 0) + rng() % 4;
    for (size_t j = 0; j < naggs; ++j) {
      spec.aggs.push_back({static_cast<AggFn>(rng() % 5),
                           static_cast<uint32_t>(rng() % 5)});
    }
    if (rng() % 3 == 0) {
      spec.having = {{static_cast<uint32_t>(rng() % spec.OutputWidth()),
                      CmpOp::kGe, static_cast<int64_t>(rng() % range)}};
    }
    ExpectKernelMatchesReference(jc, spec);
  }
}

TEST(DigestKernel, MatchListDigestEqualsJoinedRows) {
  for (const JoinCase& jc :
       {MakeJoinCase(3000, 600, 150, 81), MakeJoinCase(0, 10, 5, 82),
        MakeJoinCase(300, 0, 5, 83), MakeJoinCase(1, 3, 1, 84)}) {
    ResultDigest fused, joined;
    fused.AddJoined(JoinedMatches(jc.probe, jc.matches, 2));
    joined.AddRows(jc.joined.data().data(), jc.joined.rows(), 5);
    EXPECT_EQ(fused, joined);
    EXPECT_EQ(fused.count, jc.matches.size());
  }
}

TEST(PruneTest, RightDeepAggPlanPrunesAndKeepsDigest) {
  // fact(5 cols) ⋈ d1(3) ⋈ d2(3), grouped on d1.attr, summing fact col 0.
  Table fact = MakeTable("fact", 8000, 5, 300, 41);
  Table d1 = MakeTable("d1", 300, 3, 40, 42);
  Table d2 = MakeTable("d2", 300, 3, 40, 43);
  std::vector<const Table*> tables = {&fact, &d1, &d2};

  PipelinePlan plan = MakeRightDeepPlan(0, {1, 2}, {1, 2});
  AggSpec spec;
  spec.group_cols = {5 + 1};  // d1.attr in the (fact ++ d1 ++ d2) layout
  spec.aggs = {{AggFn::kCount, 0}, {AggFn::kSum, 0}};
  plan.agg = spec;
  plan.table_filters = {{{3, CmpOp::kLt, 150}}};  // fact col 3: filter-only

  auto ref_full = ReferenceExecute(plan, tables);
  ASSERT_TRUE(ref_full.ok()) << ref_full.status().ToString();

  PipelinePlan pruned = plan;
  PruneResult pr = PruneColumns(&pruned, {5, 3, 3});
  EXPECT_TRUE(pr.changed);
  EXPECT_GT(pr.columns_dropped, 0u);
  ASSERT_EQ(pruned.table_projections.size(), 3u);
  // fact keeps agg col 0 and probe cols 1, 2; filter col 3 stays in source
  // coordinates and must NOT force the column through the pipeline.
  EXPECT_EQ(pruned.table_projections[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(pruned.table_projections[1], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(pruned.table_projections[2], (std::vector<uint32_t>{0}));
  // Filters stay in source coordinates; the group column is remapped to the
  // narrowed layout fact{0,1,2} ++ d1{0,1} ++ d2{0}.
  ASSERT_EQ(pruned.table_filters.size(), 1u);
  ASSERT_EQ(pruned.table_filters[0].size(), 1u);
  EXPECT_EQ(pruned.table_filters[0][0].col, 3u);
  ASSERT_TRUE(pruned.agg.has_value());
  EXPECT_EQ(pruned.agg->group_cols[0], 4u);

  ASSERT_TRUE(pruned.Validate(tables).ok());
  auto ref_pruned = ReferenceExecute(pruned, tables);
  ASSERT_TRUE(ref_pruned.ok()) << ref_pruned.status().ToString();
  EXPECT_EQ(ref_full.value(), ref_pruned.value());
}

}  // namespace
}  // namespace hierdb::mt

// ---------------------------------------------------------------------------
// Cluster-level: pruning an aggregated bushy plan ships fewer wire bytes.

namespace hierdb::cluster {
namespace {

TEST(ClusterPrune, BushyAggPlanShipsFewerRepartitionBytes) {
  // chain0 = S(4) ⋈ R(4), final = scan U(5), probe T(4), probe chain0;
  // grouped on T.attr. Only 8 of the 17 source columns are referenced, so
  // the pruned run must move strictly fewer kTupleBatch bytes — both the
  // base-table dataflow and chain0's cross-node repartition.
  const uint32_t nodes = 3;
  mt::Table r = mt::MakeTable("R", 100, 4, 10, 51);
  mt::Table s = mt::MakeTable("S", 400, 4, 100, 52);
  mt::Table t = mt::MakeTable("T", 400, 4, 10, 53);
  mt::Table u = mt::MakeTable("U", 9000, 5, 400, 54);
  PartitionedTable rp = PartitionByHash(r, nodes, 0);
  PartitionedTable sp = PartitionRoundRobin(s, nodes);
  PartitionedTable tp = PartitionByHash(t, nodes, 0);
  PartitionedTable up = PartitionRoundRobin(u, nodes);

  PlanQuery query;
  query.tables = {&rp, &sp, &tp, &up};
  mt::Chain c0;
  c0.input = mt::Source::OfTable(1);
  c0.joins.push_back({mt::Source::OfTable(0), 1, 0});
  mt::Chain fin;
  fin.input = mt::Source::OfTable(3);
  fin.joins.push_back({mt::Source::OfTable(2), 1, 0});
  fin.joins.push_back({mt::Source::OfChain(0), 2, 0});
  query.plan.chains.push_back(std::move(c0));
  query.plan.chains.push_back(std::move(fin));
  mt::AggSpec spec;
  spec.group_cols = {5 + 1};  // T.attr in the (U ++ T ++ S ++ R) layout
  spec.aggs = {{mt::AggFn::kCount, 0}, {mt::AggFn::kSum, 0}};
  query.plan.agg = spec;

  PlanQuery pruned = query;
  mt::PruneResult pr = mt::PruneColumns(&pruned.plan, {4, 4, 4, 5});
  ASSERT_TRUE(pr.changed);

  ClusterOptions opts;
  opts.nodes = nodes;
  opts.threads = 2;
  // Keep activation placement deterministic: with stealing off, every probe
  // runs on its bucket's home node, so both runs repartition the exact same
  // intermediate rows and only the row width differs.
  opts.global_lb = false;

  ClusterStats full_stats, pruned_stats;
  ClusterExecutor full_exec(opts);
  auto full = full_exec.Execute(query, &full_stats);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ClusterExecutor pruned_exec(opts);
  auto narrow = pruned_exec.Execute(pruned, &pruned_stats);
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();

  // Aggregate digests are bit-identical: pruning kept every referenced
  // column and the reference agrees.
  EXPECT_EQ(full.value(), narrow.value());
  auto ref = ReferenceExecute(query);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(narrow.value(), ref.value());

  // The wire got narrower: chain0's intermediate repartition and the total
  // dataflow both shrink (chain0 output width 8 -> 3).
  ASSERT_EQ(pruned_stats.per_chain.size(), 2u);
  EXPECT_GT(full_stats.per_chain[0].repartition_bytes, 0u);
  EXPECT_GT(pruned_stats.per_chain[0].repartition_bytes, 0u);
  EXPECT_EQ(pruned_stats.per_chain[0].repartition_rows,
            full_stats.per_chain[0].repartition_rows);
  EXPECT_LT(pruned_stats.per_chain[0].repartition_bytes,
            full_stats.per_chain[0].repartition_bytes);
  EXPECT_LT(pruned_stats.dataflow_bytes, full_stats.dataflow_bytes);
  EXPECT_LT(pruned_stats.intermediate_bytes, full_stats.intermediate_bytes);
}

}  // namespace
}  // namespace hierdb::cluster

// ---------------------------------------------------------------------------
// Session-level: every backend and strategy against the reference.

namespace hierdb::api {
namespace {

struct StarFixture {
  Session db;
  RelId fact, d1, d2, d3;

  explicit StarFixture(size_t fact_rows = 12000, uint64_t seed = 7,
                       SessionOptions so = {})
      : db(so) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 4, 500, seed));
    d1 = db.AddTable(mt::MakeTable("d1", 500, 2, 50, seed + 1));
    d2 = db.AddTable(mt::MakeTable("d2", 500, 2, 50, seed + 2));
    d3 = db.AddTable(mt::MakeTable("d3", 500, 2, 50, seed + 3));
  }

  // fact ⋈ d1 ⋈ d2 ⋈ d3, sampled at the scan and after the first probe.
  QueryBuilder Joined() const {
    return db.NewQuery()
        .Scan(fact)
        .CapturePoint("scan")
        .Probe(d1, 1, 0)
        .CapturePoint("after_d1")
        .Probe(d2, 2, 0)
        .Probe(d3, 3, 0);
  }
};

ExecOptions VOpts(Backend backend, Strategy strategy, uint32_t nodes,
                  uint32_t threads) {
  ExecOptions o;
  o.backend = backend;
  o.strategy = strategy;
  o.nodes = nodes;
  o.threads_per_node = threads;
  o.seed = 3;
  o.validate = true;
  // Keep runs independent: a cached build skips its scatter, which would
  // legitimately zero rows_filtered for build-side predicates on reruns.
  o.reuse_builds = false;
  return o;
}

struct Placement {
  Backend backend;
  Strategy strategy;
  uint32_t nodes;
  uint32_t threads;
};

// Every backend x strategy the real executors run. The one-node cluster
// placements run the same node engine as the threads placements, under
// the N-node executor.
const std::vector<Placement> kEveryPlacement = {
    {Backend::kThreads, Strategy::kDP, 1, 4},
    {Backend::kThreads, Strategy::kFP, 1, 4},
    {Backend::kThreads, Strategy::kSP, 1, 4},
    {Backend::kCluster, Strategy::kDP, 3, 2},
    {Backend::kCluster, Strategy::kFP, 3, 2},
    {Backend::kCluster, Strategy::kDP, 1, 4},
    {Backend::kCluster, Strategy::kFP, 1, 4},
};

// Runs `q` on each placement and asserts every run matches the
// single-threaded reference (digest and every capture sample), and that
// all runs drop the same rows at their scan-level filters and measure
// the same output rows for every chain. Returns the first run's report.
ExecutionReport ExpectReferenceMatch(Session& db, const Query& q,
                                     const std::vector<Placement>& where) {
  ExecutionReport first;
  for (size_t i = 0; i < where.size(); ++i) {
    const Placement& pl = where[i];
    SCOPED_TRACE(std::string(BackendName(pl.backend)) + " " +
                 StrategyName(pl.strategy) + " " + std::to_string(pl.nodes) +
                 "x" + std::to_string(pl.threads));
    auto r = db.Execute(
        q, VOpts(pl.backend, pl.strategy, pl.nodes, pl.threads));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    EXPECT_TRUE(r.value().validated);
    EXPECT_TRUE(r.value().reference_match);
    EXPECT_TRUE(r.value().captures_match);
    EXPECT_EQ(r.value().result_rows, r.value().reference_rows);
    if (r.value().cluster.has_value()) {
      EXPECT_EQ(r.value().cluster->late_steals, 0u);
    }
    if (i == 0) {
      first = r.value();
    } else {
      EXPECT_EQ(r.value().rows_filtered, first.rows_filtered);
      EXPECT_EQ(r.value().chain_cards.size(), first.chain_cards.size());
      const size_t chains =
          std::min(r.value().chain_cards.size(), first.chain_cards.size());
      for (size_t c = 0; c < chains; ++c) {
        EXPECT_EQ(r.value().chain_cards[c].actual_rows,
                  first.chain_cards[c].actual_rows)
            << "chain " << c;
      }
    }
  }
  return first;
}

TEST(VectorizedParity, FilteredJoinsOnEveryBackendAndStrategy) {
  StarFixture fx;
  Query filtered = fx.Joined().Where(fx.fact, 1, CmpOp::kLt, 250).Build();
  Query two_join = fx.db.NewQuery()
                       .Scan(fx.fact)
                       .Probe(fx.d1, 1, 0)
                       .CapturePoint("after_d1")
                       .Probe(fx.d2, 2, 0)
                       .Where(fx.d1, 1, CmpOp::kGe, 10)
                       .Build();
  for (const Query& q : {filtered, two_join}) {
    ExecutionReport r = ExpectReferenceMatch(fx.db, q, kEveryPlacement);
    EXPECT_GT(r.rows_filtered, 0u);
    EXPECT_GT(r.result_rows, 0u);
  }
}

TEST(VectorizedParity, GroupByHavingAndGlobalAggregate) {
  StarFixture fx;
  Query reporting = fx.Joined()
                        .Where(fx.fact, 1, CmpOp::kLt, 250)
                        .GroupBy(fx.d1, 1)
                        .Count()
                        .Agg(AggFn::kSum, fx.fact, 0)
                        .Agg(AggFn::kMin, fx.fact, 0)
                        .Agg(AggFn::kMax, fx.fact, 0)
                        .Agg(AggFn::kAvg, fx.fact, 0)
                        .HavingCount(CmpOp::kGt, 5)
                        .Build();
  Query global = fx.Joined().Count().Agg(AggFn::kSum, fx.d2, 1).Build();
  for (const Query& q : {reporting, global}) {
    ExecutionReport r = ExpectReferenceMatch(fx.db, q, kEveryPlacement);
    EXPECT_TRUE(r.aggregated);
    EXPECT_GT(r.result_rows, 0u);
  }
}

TEST(VectorizedParity, SkewedKeysKeepDigestParity) {
  Session db;
  RelId fact = db.AddTable(
      mt::MakeSkewedTable("sfact", 15000, 3, 400, /*skew_col=*/1,
                          /*theta=*/1.0, 19));
  RelId dim = db.AddTable(mt::MakeTable("sdim", 400, 2, 50, 20));
  Query join = db.NewQuery()
                   .Scan(fact)
                   .Probe(dim, 1, 0)
                   .CapturePoint("joined")
                   .Build();
  Query agg = db.NewQuery()
                  .Scan(fact)
                  .Probe(dim, 1, 0)
                  .GroupBy(dim, 1)
                  .Count()
                  .Agg(AggFn::kSum, fact, 0)
                  .Build();
  for (const Query& q : {join, agg}) {
    ExpectReferenceMatch(db, q,
                         {{Backend::kThreads, Strategy::kDP, 1, 4},
                          {Backend::kCluster, Strategy::kDP, 2, 2}});
  }
}

TEST(VectorizedParity, EmptyAndAllPassSelections) {
  StarFixture fx(5000);
  const std::vector<Placement> dp = {{Backend::kThreads, Strategy::kDP, 1, 4},
                                     {Backend::kCluster, Strategy::kDP, 2, 2}};
  // Always-false predicate: the planner's min/max fold keeps one residual
  // predicate, the scan's selection vectors come out empty, and every
  // backend agrees on zero rows.
  Query none = fx.Joined().Where(fx.fact, 0, CmpOp::kLt, 0).Build();
  ExecutionReport r = ExpectReferenceMatch(fx.db, none, dp);
  EXPECT_EQ(r.result_rows, 0u);
  EXPECT_EQ(r.rows_filtered, 5000u);

  // Always-true predicate: folded away pre-scan — nothing is filtered and
  // the digest matches the unfiltered query.
  Query all = fx.Joined().Where(fx.fact, 1, CmpOp::kGe, 0).Build();
  ExecutionReport a = ExpectReferenceMatch(fx.db, all, dp);
  ExecutionReport plain = ExpectReferenceMatch(fx.db, fx.Joined().Build(), dp);
  EXPECT_EQ(a.rows_filtered, 0u);
  EXPECT_EQ(a.result_checksum, plain.result_checksum);
}

// The direct-address probe on both sides of its decision, on every
// placement: unique dims take the index, a dim with one duplicated key or
// with keys at both ends of int64_t keeps the chained tables (on a
// cluster, on the nodes whose home buckets fail the check), and every
// digest is the reference's. kThreads steals no one-bucket piece, so
// there the split is exact.
TEST(DenseProbe, EveryPlacementOnBothSidesOfTheDecision) {
  StarFixture fx(6000, 17);
  mt::Table dup = mt::MakeTable("dup", 500, 2, 50, 31);
  dup.batch.data()[499 * 2] = 7;  // key 7 twice, key 499 gone
  const RelId dup_id = fx.db.AddTable(dup);
  mt::Table wide = mt::MakeTable("wide", 500, 2, 50, 37);
  wide.batch.data()[498 * 2] = INT64_MIN;
  wide.batch.data()[499 * 2] = INT64_MAX;
  const RelId wide_id = fx.db.AddTable(wide);

  const Query unique = fx.Joined().Build();
  const Query mixed = fx.db.NewQuery()
                          .Scan(fx.fact)
                          .Probe(dup_id, 1, 0)
                          .Probe(fx.d2, 2, 0)
                          .Build();
  const Query overflow =
      fx.db.NewQuery().Scan(fx.fact).Probe(wide_id, 1, 0).Build();
  for (const Placement& pl : kEveryPlacement) {
    const bool threads = pl.backend == Backend::kThreads;
    ExecutionReport u = ExpectReferenceMatch(fx.db, unique, {pl});
    EXPECT_GT(u.direct_probes, 0u);
    if (threads) EXPECT_EQ(u.chained_probes, 0u);
    ExecutionReport m = ExpectReferenceMatch(fx.db, mixed, {pl});
    EXPECT_GT(m.direct_probes, 0u);
    EXPECT_GT(m.chained_probes, 0u);
    ExecutionReport o = ExpectReferenceMatch(fx.db, overflow, {pl});
    EXPECT_GT(o.chained_probes, 0u);
    if (threads) EXPECT_EQ(o.direct_probes, 0u);
  }
}

// The terminal probe's digest and GROUP BY read its match list; rows are
// joined only for a capture point bound at that probe or a materialized
// output. fact ⋈ d2 ⋈ d1 on d1's foreign-key column: ~10 build rows per
// key, so a probe row matches many times.
Query DuplicateKeyJoin(const StarFixture& fx, bool capture) {
  QueryBuilder qb =
      fx.db.NewQuery().Scan(fx.fact).Probe(fx.d2, 2, 0).Probe(fx.d1, 1, 1);
  if (capture) qb.CapturePoint("final");
  return qb.Build();
}

// A capture large enough to keep every row sees each joined row of the
// final probe exactly once, plain and aggregated, on every placement:
// `offered` counts the rows, and the kept sample is the whole multiset,
// compared against the reference's.
TEST(FusedTerminal, FinalProbeCaptureSeesEveryJoinedRowOnce) {
  SessionOptions so;
  so.capture_rows = 1 << 16;
  StarFixture fx(6000, 11, so);
  const Query plain = DuplicateKeyJoin(fx, true);
  QueryBuilder agg_qb = fx.db.NewQuery()
                            .Scan(fx.fact)
                            .Probe(fx.d2, 2, 0)
                            .Probe(fx.d1, 1, 1)
                            .CapturePoint("final");
  const Query agg = agg_qb.GroupBy(fx.d1, 0)
                        .Count()
                        .Agg(AggFn::kSum, fx.fact, 0)
                        .Build();
  const ExecutionReport base = ExpectReferenceMatch(fx.db, plain, kEveryPlacement);
  ASSERT_GT(base.result_rows, 1000u);
  ASSERT_LT(base.result_rows, uint64_t{so.capture_rows});
  for (const Query* q : {&plain, &agg}) {
    for (const Placement& pl : kEveryPlacement) {
      SCOPED_TRACE(std::string(BackendName(pl.backend)) + " " +
                   StrategyName(pl.strategy) + (q == &agg ? " agg" : ""));
      auto r = fx.db.Execute(
          *q, VOpts(pl.backend, pl.strategy, pl.nodes, pl.threads));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().reference_match);
      EXPECT_TRUE(r.value().captures_match);
      ASSERT_EQ(r.value().captures.size(), 1u);
      const obs::CaptureResult& cap = r.value().captures[0];
      EXPECT_EQ(cap.offered, base.result_rows);
      EXPECT_EQ(cap.rows.size(), base.result_rows);
    }
  }
}

// opts.materialize returns the joined rows themselves on both real
// backends: the same multiset everywhere, whose digest is the validated
// result digest.
TEST(FusedTerminal, MaterializedRowsMatchOnBothRealBackends) {
  StarFixture fx(6000, 13);
  const Query q = DuplicateKeyJoin(fx, false);
  std::vector<std::vector<int64_t>> first;
  for (const Placement& pl : kEveryPlacement) {
    SCOPED_TRACE(std::string(BackendName(pl.backend)) + " " +
                 StrategyName(pl.strategy));
    ExecOptions o = VOpts(pl.backend, pl.strategy, pl.nodes, pl.threads);
    o.materialize = true;
    auto got = fx.db.Submit(q, o).Take();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const ExecutionReport& rep = got.value().report;
    EXPECT_TRUE(rep.reference_match);
    const mt::Batch& rows = got.value().rows;
    ASSERT_EQ(rows.rows(), rep.reference_rows);
    mt::ResultDigest d;
    d.AddRows(rows.data().data(), rows.rows(), rows.width());
    EXPECT_EQ(d.checksum, rep.result_checksum);
    std::vector<std::vector<int64_t>> sorted;
    for (size_t i = 0; i < rows.rows(); ++i) {
      sorted.emplace_back(rows.row(i), rows.row(i) + rows.width());
    }
    std::sort(sorted.begin(), sorted.end());
    if (first.empty()) {
      first = std::move(sorted);
      ASSERT_GT(first.size(), 1000u);
    } else {
      EXPECT_EQ(sorted, first);
    }
  }
}

TEST(PlannerStats, TableStatsExposedAtAddTable) {
  StarFixture fx(5000);
  const std::vector<mt::ColumnStats>* stats = fx.db.table_stats(fx.fact);
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->size(), 4u);
  // Col 0 is the dense unique key.
  EXPECT_EQ((*stats)[0].min, 0);
  EXPECT_EQ((*stats)[0].max, 4999);
  EXPECT_GT((*stats)[0].distinct_est, 2500u);
  // FK columns live in [0, 500).
  EXPECT_GE((*stats)[1].min, 0);
  EXPECT_LT((*stats)[1].max, 500);
  // Catalog-only relations carry no stats.
  RelId ghost = fx.db.AddRelation("ghost", 1000);
  EXPECT_EQ(fx.db.table_stats(ghost), nullptr);
}

TEST(ClusterShipping, ColumnPrunedRepartitionShipsFewerBytes) {
  // GROUP BY d1.attr COUNT over fact ⋈ d1 reads only fact col 1 downstream,
  // so pruning ships 1-wide fact rows; the same grouping with SUMs over
  // fact cols 0, 2 and 3 keeps all 4 columns on the wire. Same join rows,
  // same groups — only the shipped width differs.
  StarFixture fx(20000);
  auto grouped = [&] {
    return fx.db.NewQuery().Scan(fx.fact).Probe(fx.d1, 1, 0).GroupBy(fx.d1, 1)
        .Count();
  };
  Query narrow = grouped().Build();
  Query wide = grouped()
                   .Agg(AggFn::kSum, fx.fact, 0)
                   .Agg(AggFn::kSum, fx.fact, 2)
                   .Agg(AggFn::kSum, fx.fact, 3)
                   .Build();
  ExecOptions o = VOpts(Backend::kCluster, Strategy::kDP, 3, 2);
  // With stealing off every probe runs on its bucket's home node, so both
  // runs ship the exact same rows.
  o.global_lb = false;
  auto n = fx.db.Execute(narrow, o);
  auto w = fx.db.Execute(wide, o);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_TRUE(n.value().reference_match);
  EXPECT_TRUE(w.value().reference_match);
  EXPECT_EQ(n.value().result_rows, w.value().result_rows);
  // The join dataflow, without the (differently wide) aggregate partials.
  auto join_bytes = [](const ExecutionReport& r) {
    return r.pipeline_bytes - r.agg_repartition_bytes;
  };
  EXPECT_GT(join_bytes(n.value()), 0u);
  EXPECT_LT(join_bytes(n.value()), join_bytes(w.value()));
}

}  // namespace
}  // namespace hierdb::api
