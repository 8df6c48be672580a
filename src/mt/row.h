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

#include <algorithm>
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

  /// Appends one row. Rows are 2-10 values: an inline push_back loop
  /// keeps the common path free of calls (a vector::insert per row costs
  /// a library memmove each).
  void AppendRow(const int64_t* cols) {
    for (uint32_t c = 0; c < width_; ++c) data_.push_back(cols[c]);
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
    for (uint32_t c : cols) data_.push_back(row[c]);
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

/// A read-only view of `n` joined rows without their copy: row i is probe
/// row probe_rows[i] (row i itself when probe_rows is null) of a
/// row-major buffer of probe_width columns, followed by the build_width
/// columns at build[i] (none when build_width is 0). The probe's match
/// list is one (mt/row_table.h: JoinedMatches); a batch of rows is
/// another (JoinedRows::Of).
struct JoinedRows {
  const int64_t* probe = nullptr;
  uint32_t probe_width = 0;
  const uint32_t* probe_rows = nullptr;
  const int64_t* const* build = nullptr;
  uint32_t build_width = 0;
  size_t n = 0;

  static JoinedRows Of(const int64_t* rows, size_t n, uint32_t width) {
    return {rows, width, nullptr, nullptr, 0, n};
  }
  static JoinedRows Of(const Batch& b) {
    return Of(b.data().data(), b.rows(), b.width());
  }

  uint32_t width() const { return probe_width + build_width; }

  /// Writes rows [from, to) joined, row-major, to `dst`.
  void Write(size_t from, size_t to, int64_t* dst) const {
    if (probe_rows == nullptr && build_width == 0) {
      std::copy_n(probe + from * probe_width, (to - from) * probe_width, dst);
      return;
    }
    for (size_t r = from; r < to; ++r) {
      const int64_t* p =
          probe + (probe_rows != nullptr ? probe_rows[r] : r) *
                      static_cast<size_t>(probe_width);
      for (uint32_t c = 0; c < probe_width; ++c) *dst++ = p[c];
      for (uint32_t c = 0; c < build_width; ++c) *dst++ = build[r][c];
    }
  }

  /// Calls fn(i, value) for column `c` of rows at + i, i in [0, m): one
  /// loop per access pattern, so a consumer's per-value work inlines into
  /// the loop that reads the value.
  template <typename Fn>
  void ForColumn(uint32_t c, size_t at, size_t m, Fn&& fn) const {
    if (c >= probe_width) {
      const int64_t* const* b = build + at;
      const uint32_t bc = c - probe_width;
      for (size_t i = 0; i < m; ++i) fn(i, b[i][bc]);
    } else if (probe_rows != nullptr) {
      const int64_t* base = probe + c;
      const uint32_t* r = probe_rows + at;
      for (size_t i = 0; i < m; ++i) {
        fn(i, base[static_cast<size_t>(r[i]) * probe_width]);
      }
    } else {
      const int64_t* base = probe + at * probe_width + c;
      for (size_t i = 0; i < m; ++i) fn(i, base[i * probe_width]);
    }
  }
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
  /// Add over every row of `rows`, tile by tile and column-at-a-time:
  /// the same sums as Add over each joined row, without joining it.
  void AddJoined(const JoinedRows& rows);
  /// AddJoined over `n` contiguous rows.
  void AddRows(const int64_t* rows, size_t n, uint32_t width) {
    AddJoined(JoinedRows::Of(rows, n, width));
  }
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
