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

namespace {

// RowDigest tile by tile over `rows`, returning the sum of the row
// digests: each column is gathered across the tile's rows and its mix
// step runs across them, so independent rows overlap instead of waiting
// on one row's chain of multiplies. The mix loops run a whole number of
// 8-row groups, so the vectorizer needs no remainder loop; padding rows
// mix whatever the (initialized) buffer holds and are never summed.
[[gnu::always_inline]] inline uint64_t DigestTiles(const JoinedRows& rows) {
  constexpr size_t kTile = 256;
  alignas(64) uint64_t h[kTile];
  alignas(64) int64_t v[kTile] = {};
  const uint32_t width = rows.width();
  uint64_t sum = 0;
  for (size_t at = 0; at < rows.n; at += kTile) {
    const size_t m = std::min(kTile, rows.n - at);
    const size_t padded = (m + 7) & ~size_t{7};
    for (size_t r = 0; r < padded; ++r) h[r] = 0x9e3779b97f4a7c15ULL;
    for (uint32_t c = 0; c < width; ++c) {
      rows.ForColumn(c, at, m, [&](size_t i, int64_t x) { v[i] = x; });
      const int64_t salt = static_cast<int64_t>(c) * 0x1000193;
      for (size_t r = 0; r < padded; ++r) {
        h[r] = (h[r] ^ HashKey(v[r] + salt)) * 0x100000001b3ULL;
      }
    }
    for (size_t r = 0; r < padded; ++r) {
      h[r] = HashKey(static_cast<int64_t>(h[r]));
    }
    for (size_t r = 0; r < m; ++r) sum += h[r];
  }
  return sum;
}

uint64_t DigestTilesBaseline(const JoinedRows& rows) {
  return DigestTiles(rows);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
// The same loops compiled for x86-64-v4 (AVX-512), where the three 64-bit
// multiplies per value run eight rows per instruction. Chosen once per
// process by the CPU; both compute the same integers.
[[gnu::target("arch=x86-64-v4")]] uint64_t DigestTilesV4(
    const JoinedRows& rows) {
  return DigestTiles(rows);
}

uint64_t (*PickDigestTiles())(const JoinedRows&) {
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4") ? DigestTilesV4
                                              : DigestTilesBaseline;
}
#else
uint64_t (*PickDigestTiles())(const JoinedRows&) {
  return DigestTilesBaseline;
}
#endif

}  // namespace

void ResultDigest::AddJoined(const JoinedRows& rows) {
  static uint64_t (*const digest_tiles)(const JoinedRows&) =
      PickDigestTiles();
  checksum += digest_tiles(rows);
  count += rows.n;
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
