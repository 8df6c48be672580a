// Fixed-width multi-column rows for the general pipeline executor.
//
// Bushy multi-join plans probe on a different column at every join, and
// the pipelined row widens as it flows. A Batch is a flat row-major buffer
// of int64 columns — the unit a data activation carries (the paper
// increases data-activation granularity by buffering; a batch is that
// buffer).
//
// Join semantics: probe rows match build rows on one column each; the
// output row is the concatenation (probe columns then build columns),
// exactly the relational join on fixed-width integer relations.

#ifndef HIERDB_MT_ROW_H_
#define HIERDB_MT_ROW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "mt/hash.h"

namespace hierdb::mt {

/// A row-major batch of fixed-width rows.
class Batch {
 public:
  Batch() = default;
  explicit Batch(uint32_t width) : width_(width) {}

  uint32_t width() const { return width_; }
  size_t rows() const { return width_ == 0 ? 0 : data_.size() / width_; }
  bool empty() const { return data_.empty(); }

  const int64_t* row(size_t i) const { return data_.data() + i * width_; }
  int64_t at(size_t i, uint32_t col) const { return data_[i * width_ + col]; }

  void AppendRow(const int64_t* cols) {
    data_.insert(data_.end(), cols, cols + width_);
  }
  /// Bulk append of `n` contiguous rows (one memmove instead of a
  /// per-row insert in the probe/materialize inner loops).
  void AppendRows(const int64_t* rows, size_t n) {
    data_.insert(data_.end(), rows, rows + n * width_);
  }
  /// Appends the concatenation of two row fragments.
  void AppendConcat(const int64_t* a, uint32_t na, const int64_t* b,
                    uint32_t nb) {
    data_.insert(data_.end(), a, a + na);
    data_.insert(data_.end(), b, b + nb);
  }
  /// Appends `row[cols[0]], row[cols[1]], ...` — a column-projected copy
  /// of one source row (cols.size() must equal width()).
  void AppendRowProjected(const int64_t* row,
                          const std::vector<uint32_t>& cols) {
    size_t at = data_.size();
    data_.resize(at + cols.size());
    for (size_t i = 0; i < cols.size(); ++i) data_[at + i] = row[cols[i]];
  }

  void Reserve(size_t rows) { data_.reserve(rows * width_); }
  void Clear() { data_.clear(); }

  uint64_t bytes() const { return data_.size() * sizeof(int64_t); }

  std::vector<int64_t>& data() { return data_; }
  const std::vector<int64_t>& data() const { return data_; }

 private:
  uint32_t width_ = 0;
  std::vector<int64_t> data_;
};

/// A base relation: one batch plus a name for diagnostics.
struct Table {
  std::string name;
  Batch batch;

  uint32_t width() const { return batch.width(); }
  size_t rows() const { return batch.rows(); }
};

/// Order-independent digest of a row (for result validation across thread
/// interleavings).
uint64_t RowDigest(const int64_t* row, uint32_t width);

/// Summed row digests + count: equal iff two executions produced the same
/// multiset of rows.
struct ResultDigest {
  uint64_t count = 0;
  uint64_t checksum = 0;

  void Add(const int64_t* row, uint32_t width) {
    ++count;
    checksum += RowDigest(row, width);
  }
  /// Add over `n` contiguous rows, column-at-a-time (same sums).
  void AddRows(const int64_t* rows, size_t n, uint32_t width);
  void Merge(const ResultDigest& o) {
    count += o.count;
    checksum += o.checksum;
  }
  bool operator==(const ResultDigest& o) const = default;
};

/// Builds a table of `rows` rows and `width` columns. Column 0 is a dense
/// unique id; columns >= 1 are foreign keys drawn uniformly from
/// [0, fk_range).
Table MakeTable(std::string name, size_t rows, uint32_t width,
                int64_t fk_range, uint64_t seed);

/// Same but column `skew_col` is Zipf(theta)-distributed over
/// [0, fk_range) — attribute-value skew on one join column.
Table MakeSkewedTable(std::string name, size_t rows, uint32_t width,
                      int64_t fk_range, uint32_t skew_col, double theta,
                      uint64_t seed);

}  // namespace hierdb::mt

#endif  // HIERDB_MT_ROW_H_
