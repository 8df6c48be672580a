#include "mt/row.h"

#include <algorithm>

#include "common/status.h"

namespace hierdb::mt {

uint64_t RowDigest(const int64_t* row, uint32_t width) {
  // Mix each column with its position so permuted values digest
  // differently, then mix the combination once more; summation by the
  // caller makes the multiset digest order-independent.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint32_t c = 0; c < width; ++c) {
    h ^= HashKey(row[c] + static_cast<int64_t>(c) * 0x1000193);
    h *= 0x100000001b3ULL;
  }
  return HashKey(static_cast<int64_t>(h));
}

void ResultDigest::AddRows(const int64_t* rows, size_t n, uint32_t width) {
  // RowDigest tile by tile: each column's mix step runs across the tile's
  // rows, so independent rows overlap instead of waiting on one row's
  // chain of multiplies.
  constexpr size_t kTile = 256;
  uint64_t h[kTile];
  for (size_t at = 0; at < n; at += kTile) {
    const size_t m = std::min(kTile, n - at);
    const int64_t* tile = rows + at * width;
    for (size_t r = 0; r < m; ++r) h[r] = 0x9e3779b97f4a7c15ULL;
    for (uint32_t c = 0; c < width; ++c) {
      const int64_t salt = static_cast<int64_t>(c) * 0x1000193;
      for (size_t r = 0; r < m; ++r) {
        h[r] ^= HashKey(tile[r * width + c] + salt);
        h[r] *= 0x100000001b3ULL;
      }
    }
    for (size_t r = 0; r < m; ++r) {
      checksum += HashKey(static_cast<int64_t>(h[r]));
    }
  }
  count += n;
}

Table MakeTable(std::string name, size_t rows, uint32_t width,
                int64_t fk_range, uint64_t seed) {
  HIERDB_CHECK(width >= 1, "table needs at least one column");
  Table t;
  t.name = std::move(name);
  t.batch = Batch(width);
  t.batch.Reserve(rows);
  Rng rng(seed);
  std::vector<int64_t> row(width);
  for (size_t i = 0; i < rows; ++i) {
    row[0] = static_cast<int64_t>(i);
    for (uint32_t c = 1; c < width; ++c) {
      row[c] = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(fk_range)));
    }
    t.batch.AppendRow(row.data());
  }
  return t;
}

Table MakeSkewedTable(std::string name, size_t rows, uint32_t width,
                      int64_t fk_range, uint32_t skew_col, double theta,
                      uint64_t seed) {
  HIERDB_CHECK(skew_col < width, "skew column out of range");
  Table t = MakeTable(std::move(name), rows, width, fk_range, seed);
  if (theta <= 0.0) return t;
  Rng rng(seed ^ 0x5ca1ab1eULL);
  ZipfSampler zipf(static_cast<uint32_t>(fk_range), theta);
  auto& data = t.batch.data();
  for (size_t i = 0; i < rows; ++i) {
    if (skew_col == 0) {
      data[i * width] = zipf.Sample(&rng);
    } else {
      data[i * width + skew_col] = zipf.Sample(&rng);
    }
  }
  return t;
}

}  // namespace hierdb::mt
