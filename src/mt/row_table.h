// Chained hash table over one column of fixed-width rows — the per-bucket
// build table of the general pipeline executor.
//
// It is the one build layout of the real backends: DP/FP bucket tables,
// SP, the build cache and the cluster's bucket fragments (shipped and
// stolen fragments are rebuilt through Insert). A row's chain is
// SlotOf(HashKey(key), heads) (mt/tuple.h), the top bits of the hash: a
// bucket holds the keys with HashKey % B == b, so low-bit slots would
// leave a bucket table on heads / B of its chains.
//
// Rows live in a flat pool (append-only during the build phase); chains
// are index-linked. One bucket's table is written under the executor's
// per-bucket exclusivity and probed read-only afterwards, so no internal
// synchronization is needed.

#ifndef HIERDB_MT_ROW_TABLE_H_
#define HIERDB_MT_ROW_TABLE_H_

#include <cstdint>
#include <vector>

#include "mt/row.h"

namespace hierdb::mt {

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

  /// Batched probe over precomputed (key, hash) columns: invokes
  /// fn(i, build_row) for every build row matching keys[i], i in [0, n).
  /// hashes[i] must be HashKey(keys[i]) — computed once by the caller's
  /// vectorized hash pass and reused here. A small prefetch window hides
  /// the head-array cache misses of independent lookups.
  template <typename Fn>
  void ProbeBatch(const int64_t* keys, const uint64_t* hashes, size_t n,
                  Fn&& fn) const {
    if (heads_.empty()) return;
    const size_t heads = heads_.size();
    constexpr size_t kPrefetch = 8;
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetch < n) {
        __builtin_prefetch(&heads_[SlotOf(hashes[i + kPrefetch], heads)], 0,
                           1);
      }
      const int64_t key = keys[i];
      for (uint32_t e = heads_[SlotOf(hashes[i], heads)]; e != kNoEntry;
           e = next_[e]) {
        const int64_t* row = pool_.data() + static_cast<size_t>(e) * width_;
        if (row[key_col_] == key) fn(i, row);
      }
    }
  }

  /// ProbeBatch across one join's fragmented build: row i is looked up in
  /// the table of its own bucket, tables[hashes[i] % buckets] (where the
  /// build scattered that key), so one probe batch may mix buckets. The
  /// threads backend probes every batch this way; the cluster probes its
  /// node's mixed batches over its home tables (the others stay empty),
  /// and a stolen single-bucket piece through ProbeBatch on its fragment.
  template <typename Fn>
  friend void ProbeBuckets(const std::vector<RowTable>& tables,
                           uint32_t buckets, const int64_t* keys,
                           const uint64_t* hashes, size_t n, Fn&& fn) {
    constexpr size_t kPrefetch = 8;
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetch < n) {
        const RowTable& ahead = tables[hashes[i + kPrefetch] % buckets];
        if (!ahead.heads_.empty()) {
          __builtin_prefetch(
              &ahead.heads_[SlotOf(hashes[i + kPrefetch], ahead.heads_.size())],
              0, 1);
        }
      }
      const RowTable& t = tables[hashes[i] % buckets];
      if (t.heads_.empty()) continue;
      const int64_t key = keys[i];
      for (uint32_t e = t.heads_[SlotOf(hashes[i], t.heads_.size())];
           e != kNoEntry; e = t.next_[e]) {
        const int64_t* row =
            t.pool_.data() + static_cast<size_t>(e) * t.width_;
        if (row[t.key_col_] == key) fn(i, row);
      }
    }
  }

  size_t rows() const { return width_ == 0 ? 0 : pool_.size() / width_; }
  uint32_t width() const { return width_; }
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

}  // namespace hierdb::mt

#endif  // HIERDB_MT_ROW_TABLE_H_
