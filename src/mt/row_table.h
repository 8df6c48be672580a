// The build side of the real backends' joins and the batched probe
// kernels both of them run over it.
//
// RowTable, a chained hash table over one column of fixed-width rows, is
// the storage of every build: the node engine's bucket tables under
// every strategy, the build cache and the cluster's bucket fragments
// (shipped and stolen fragments are rebuilt through Insert). A row's
// chain is SlotOf(HashKey(key), heads) (mt/hash.h), the top bits of the
// hash: a bucket holds the keys with HashKey % B == b, so low-bit slots
// would leave a bucket table on heads / B of its chains. Rows live in a
// flat pool (append-only during the build phase); chains are
// index-linked. One bucket's table is written under the executor's
// per-bucket exclusivity and probed read-only afterwards, so no internal
// synchronization is needed.
//
// DenseIndex is the lookup a completed build may add on top of its
// tables: when the build key of a node's home buckets is unique and
// dense, slot[key - min] holds the key's one build row (a pointer into
// the tables' pools) or null. The build proves both properties exactly
// (DenseIndex::Build); a build that fails either keeps the chained
// lookup, so a wrong guess costs speed, never a row.
//
// Probing: ProbeBatch turns a whole probe batch into one match list
// through the index when the build has one (one branch-free round, no
// hash) and through ProbeMatches over the chained tables otherwise (one
// hash pass, then a branch-free walk of every chain). JoinMatches /
// ForEachJoinedChunk turn a range of that list into joined rows in bulk
// where rows are stored or shipped; JoinedMatches views it as joined rows
// for consumers that only read them (the final digest and GROUP BY). Only
// the tests look keys up one at a time, through ForEachMatch, as the
// probe kernels' oracle.

#ifndef HIERDB_MT_ROW_TABLE_H_
#define HIERDB_MT_ROW_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mt/row.h"

namespace hierdb::mt {

class RowTable;

/// The batched probe's output: match m pairs probe row probe[m] with build
/// row build[m]. The arrays are reused storage; only the first size()
/// entries are valid.
struct Matches {
  std::vector<uint32_t> probe;
  std::vector<const int64_t*> build;
  size_t count = 0;

  size_t size() const { return count; }
};

/// ProbeBatch's key hashes and ProbeMatches's active-row lists, reused
/// across probe batches.
struct ProbeScratch {
  std::vector<uint64_t> hash;          ///< HashKey of each probe key
  std::vector<uint32_t> row;           ///< probe row index
  std::vector<uint32_t> entry;         ///< chain link to visit next
  std::vector<const RowTable*> table;  ///< table that chain belongs to
};

class RowTable {
 public:
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  RowTable() = default;
  RowTable(uint32_t width, uint32_t key_col)
      : width_(width), key_col_(key_col) {}

  void Init(uint32_t width, uint32_t key_col) {
    width_ = width;
    key_col_ = key_col;
  }

  void Insert(const int64_t* row) {
    if (rows() + 1 > heads_.size() * 2) Rehash();
    uint32_t id = static_cast<uint32_t>(rows());
    pool_.insert(pool_.end(), row, row + width_);
    uint64_t slot = SlotOf(HashKey(row[key_col_]), heads_.size());
    next_.push_back(heads_[slot]);
    heads_[slot] = id;
  }

  void InsertBatch(const Batch& batch) {
    pool_.reserve(pool_.size() + batch.data().size());
    next_.reserve(next_.size() + batch.rows());
    for (size_t i = 0; i < batch.rows(); ++i) Insert(batch.row(i));
  }

  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    if (heads_.empty()) return;
    uint64_t slot = SlotOf(HashKey(key), heads_.size());
    for (uint32_t e = heads_[slot]; e != kNoEntry; e = next_[e]) {
      const int64_t* row = pool_.data() + static_cast<size_t>(e) * width_;
      if (row[key_col_] == key) fn(row);
    }
  }

  friend void ProbeMatches(const RowTable* tables, uint32_t buckets,
                           const int64_t* keys, const uint64_t* hashes,
                           size_t n, ProbeScratch* scratch, Matches* out);

  size_t rows() const { return width_ == 0 ? 0 : pool_.size() / width_; }
  uint32_t width() const { return width_; }
  uint32_t key_col() const { return key_col_; }
  uint64_t bytes() const {
    return pool_.size() * sizeof(int64_t) +
           (next_.size() + heads_.size()) * sizeof(uint32_t);
  }

  /// All build rows, in insertion order (used to ship a bucket's fragment
  /// to a requester node).
  const std::vector<int64_t>& pool() const { return pool_; }

 private:
  void Rehash() {
    size_t target = heads_.empty() ? 16 : heads_.size() * 2;
    heads_.assign(target, kNoEntry);
    size_t n = rows();
    for (size_t i = 0; i < n; ++i) {
      const int64_t* row = pool_.data() + i * width_;
      uint64_t slot = SlotOf(HashKey(row[key_col_]), heads_.size());
      next_[i] = heads_[slot];
      heads_[slot] = static_cast<uint32_t>(i);
    }
  }

  uint32_t width_ = 0;
  uint32_t key_col_ = 0;
  std::vector<int64_t> pool_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> heads_;
};

/// The batched probe of the real backends: fills `out` with every (i,
/// build row) such that the build row's key equals keys[i], i in [0, n).
/// Row i is looked up in its own bucket's table, tables[hashes[i] %
/// buckets] (where the build scattered that key), so one probe batch may
/// mix buckets; a single table is `buckets` = 1. hashes[i] must be
/// HashKey(keys[i]).
///
/// Pass 1 finds every row's chain head and lists the rows whose head is
/// not empty. Each round then advances every listed row one chain link:
/// it writes (i, row) at the match cursor unconditionally and advances
/// the cursor by the key comparison, then keeps the row listed iff its
/// chain goes on. No step branches on the data, and the loads of one
/// round are independent of each other, so their cache misses overlap.
/// Matches come out round-major (first links of every row, then second
/// links, ...); every consumer is order-independent.
inline void ProbeMatches(const RowTable* tables, uint32_t buckets,
                         const int64_t* keys, const uint64_t* hashes,
                         size_t n, ProbeScratch* scratch, Matches* out) {
  out->count = 0;
  if (scratch->row.size() < n) {
    scratch->row.resize(n);
    scratch->entry.resize(n);
    scratch->table.resize(n);
  }
  uint32_t* row = scratch->row.data();
  uint32_t* entry = scratch->entry.data();
  const RowTable** table = scratch->table.data();
  const bool pow2 = (buckets & (buckets - 1)) == 0;
  size_t active = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hashes[i];
    const RowTable* t = tables + (pow2 ? h & (buckets - 1) : h % buckets);
    const size_t heads = t->heads_.size();
    const uint32_t head =
        heads == 0 ? RowTable::kNoEntry : t->heads_[SlotOf(h, heads)];
    row[active] = static_cast<uint32_t>(i);
    entry[active] = head;
    table[active] = t;
    active += head != RowTable::kNoEntry;
  }
  size_t m = 0;
  while (active > 0) {
    if (out->probe.size() < m + active) {
      const size_t cap = std::max(2 * out->probe.size(), m + active);
      out->probe.resize(cap);
      out->build.resize(cap);
    }
    uint32_t* probe = out->probe.data();
    const int64_t** build = out->build.data();
    size_t next = 0;
    for (size_t k = 0; k < active; ++k) {
      const RowTable* t = table[k];
      const uint32_t e = entry[k];
      const uint32_t i = row[k];
      const int64_t* brow =
          t->pool_.data() + static_cast<size_t>(e) * t->width_;
      probe[m] = i;
      build[m] = brow;
      m += brow[t->key_col_] == keys[i];
      const uint32_t link = t->next_[e];
      row[next] = i;
      entry[next] = link;
      table[next] = t;
      next += link != RowTable::kNoEntry;
    }
    active = next;
  }
  out->count = m;
}

/// Direct-address lookup over a build whose key is unique and dense:
/// slot[key - min] is the key's one build row, or null.
///
/// Sizing. A node's home buckets hold a hash-random 1/N of the build's
/// keys, so a dense key range (a dimension's id column) leaves them at
/// density about 1, 1/2 and 1/4 on 1, 2 and 4 nodes: their span is the
/// whole range. The density floor admits a span of up to kSpanPerRow
/// slots per row plus kSpanSlack, twice the 4-node span, so hash noise
/// over a small build does not flip the decision; the slack covers
/// builds of a few rows. At the floor an index costs 64 bytes per build
/// row (a width-2 RowTable costs 22 to 24); at density 1 it costs 8. The
/// memory cap, kMaxSlots (32 MiB of slots), bounds one index whatever the
/// row count.
class DenseIndex {
 public:
  static constexpr uint64_t kSpanPerRow = 8;
  static constexpr uint64_t kSpanSlack = 64;
  static constexpr uint64_t kMaxSlots = uint64_t{1} << 22;

  /// Indexes the rows of tables[first], tables[first + stride], ... below
  /// `count` (a node's home buckets: first = node, stride = nodes) when
  /// their keys are pairwise distinct and their span fits the density
  /// floor and the memory cap; returns whether it did. Otherwise, and for
  /// a build of no rows, the index stays unbuilt. The row pointers point
  /// into the tables' pools, so the tables must outlive the index and
  /// receive no further Insert (moving a table keeps its pool).
  bool Build(const RowTable* tables, uint32_t count, uint32_t first,
             uint32_t stride) {
    slot_ = {};
    size_t rows = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    ForEachRow(tables, count, first, stride, [&](const int64_t*,
                                                  int64_t key) {
      lo = std::min(lo, key);
      hi = std::max(hi, key);
      ++rows;
    });
    if (rows == 0) return false;
    // hi - lo in uint64_t is exact for any pair; the span is one more,
    // which overflows only when it is 2^64 (and the cap rejects it first).
    const uint64_t last = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (last >= kMaxSlots || last >= kSpanPerRow * rows + kSpanSlack) {
      return false;
    }
    std::vector<const int64_t*> slot(last + 1, nullptr);
    const uint64_t base = static_cast<uint64_t>(lo);
    bool duplicate = false;
    ForEachRow(tables, count, first, stride, [&](const int64_t* row,
                                                  int64_t key) {
      const int64_t*& s = slot[static_cast<uint64_t>(key) - base];
      duplicate |= s != nullptr;
      s = row;
    });
    if (duplicate) return false;
    min_ = base;
    slot_ = std::move(slot);
    return true;
  }

  bool built() const { return !slot_.empty(); }
  uint64_t bytes() const { return slot_.capacity() * sizeof(const int64_t*); }

  /// Fills `out` with every (i, build row) whose key equals keys[i], i in
  /// [0, n), in probe order: one round, no data-dependent branch (a key
  /// outside the span reads slot 0 and is then masked out). Pre: built().
  void Probe(const int64_t* keys, size_t n, Matches* out) const {
    if (out->probe.size() < n) {
      out->probe.resize(n);
      out->build.resize(n);
    }
    uint32_t* probe = out->probe.data();
    const int64_t** build = out->build.data();
    const int64_t* const* slot = slot_.data();
    const uint64_t span = slot_.size();
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t off = static_cast<uint64_t>(keys[i]) - min_;
      const bool in = off < span;
      const int64_t* row = slot[in ? off : 0];
      row = in ? row : nullptr;
      probe[m] = static_cast<uint32_t>(i);
      build[m] = row;
      m += row != nullptr;
    }
    out->count = m;
  }

 private:
  template <typename Fn>
  static void ForEachRow(const RowTable* tables, uint32_t count,
                         uint32_t first, uint32_t stride, Fn&& fn) {
    for (uint32_t b = first; b < count; b += stride) {
      const RowTable& t = tables[b];
      const int64_t* row = t.pool().data();
      for (size_t r = 0; r < t.rows(); ++r, row += t.width()) {
        fn(row, row[t.key_col()]);
      }
    }
  }

  uint64_t min_ = 0;  ///< the smallest key, as uint64_t
  std::vector<const int64_t*> slot_;
};

/// The probe of one batch through the lookup its build chose: the
/// direct-address index when `dense` is non-null and built, else
/// ProbeMatches over `buckets` chained tables after one hash pass over
/// the keys. Returns whether the index served it. The engine and the
/// probe microbench both call this, so they make the same choice.
inline bool ProbeBatch(const DenseIndex* dense, const RowTable* tables,
                       uint32_t buckets, const int64_t* keys, size_t n,
                       ProbeScratch* scratch, Matches* out) {
  if (dense != nullptr && dense->built()) {
    dense->Probe(keys, n, out);
    return true;
  }
  if (scratch->hash.size() < n) scratch->hash.resize(n);
  uint64_t* hash = scratch->hash.data();
  for (size_t i = 0; i < n; ++i) hash[i] = HashKey(keys[i]);
  ProbeMatches(tables, buckets, keys, hash, n, scratch, out);
  return false;
}

/// Every match of `matches` as a joined-row view over `probe` and the
/// build rows, for consumers that read the join without copying it.
inline JoinedRows JoinedMatches(const Batch& probe, const Matches& matches,
                                uint32_t build_width) {
  return {probe.data().data(), probe.width(), matches.probe.data(),
          matches.build.data(), build_width, matches.size()};
}

/// Writes the joined rows of matches [from, to) into `out`, exactly to -
/// from rows of the probe row's columns followed by `build_width` build
/// columns (its storage is reused when the width already fits).
inline void JoinMatches(const Batch& probe, const Matches& matches,
                        size_t from, size_t to, uint32_t build_width,
                        Batch* out) {
  const uint32_t w = probe.width() + build_width;
  if (out->width() != w) *out = Batch(w);
  out->data().resize((to - from) * w);
  JoinedMatches(probe, matches, build_width)
      .Write(from, to, out->data().data());
}

/// JoinMatches over matches [from, to) in chunks of at most `chunk_rows`
/// rows, each joined into `*chunk` and handed to fn(Batch&) (which may
/// move it away).
template <typename Fn>
void ForEachJoinedChunk(const Batch& probe, const Matches& matches,
                        size_t from, size_t to, uint32_t build_width,
                        size_t chunk_rows, Batch* chunk, Fn&& fn) {
  for (size_t at = from; at < to; at += chunk_rows) {
    JoinMatches(probe, matches, at, std::min(at + chunk_rows, to),
                build_width, chunk);
    fn(*chunk);
  }
}

}  // namespace hierdb::mt

#endif  // HIERDB_MT_ROW_TABLE_H_
