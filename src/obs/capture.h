// obs::RowCapture — bounded, order-independent row sampling at plan
// points (QueryBuilder::CapturePoint).
//
// The executors are parallel: which rows pass a plan point first differs
// run to run, backend to backend. A "keep the first K" sample would
// therefore never be comparable against the single-threaded reference.
// RowCapture keeps the K rows with the *smallest content hash* instead
// (the bottom-k / KMV sketch selection rule): the kept multiset is a pure
// function of the multiset of rows offered, so the threads backend, the
// cluster backend and the reference executor all retain exactly the same
// sample — byte-comparable offline, whatever the execution order.
//
// Offer is designed for the executors' emit paths: one hash per row and
// a relaxed atomic threshold check; the mutex is only taken for rows that
// actually belong in the current bottom-k (at most K insertions plus the
// early churn while the threshold settles).

#ifndef HIERDB_OBS_CAPTURE_H_
#define HIERDB_OBS_CAPTURE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hierdb::obs {

/// The drained result of one capture point.
struct CaptureResult {
  std::string name;      ///< the CapturePoint label
  uint32_t chain = 0;    ///< pipeline chain the point lives on
  uint32_t point = 0;    ///< 0 = scan output, k = output of join k
  uint32_t width = 0;    ///< columns per row
  uint64_t offered = 0;  ///< rows that passed the point (total)
  /// The bottom-k sample, sorted (hash, row) — identical across backends
  /// for identical row multisets.
  std::vector<std::vector<int64_t>> rows;

  bool SameRows(const CaptureResult& other) const {
    return width == other.width && rows == other.rows;
  }
};

class RowCapture {
 public:
  explicit RowCapture(uint32_t max_rows) : max_rows_(max_rows) {}

  RowCapture(const RowCapture&) = delete;
  RowCapture& operator=(const RowCapture&) = delete;

  /// Offers one row (thread-safe). Kept iff its hash is within the
  /// current bottom-k.
  void Offer(const int64_t* row, uint32_t width) {
    offered_.fetch_add(1, std::memory_order_relaxed);
    if (max_rows_ == 0) return;
    const uint64_t h = HashRow(row, width);
    if (h > threshold_.load(std::memory_order_relaxed)) return;
    Insert(h, row, width);
  }

  /// Moves the sample out (call after the run quiesced).
  CaptureResult Take(std::string name, uint32_t chain, uint32_t point);

  uint64_t offered() const {
    return offered_.load(std::memory_order_relaxed);
  }

  static uint64_t HashRow(const int64_t* row, uint32_t width) {
    // splitmix-style avalanche over the row contents; the constant seed
    // keeps the selection identical across processes and backends.
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ (uint64_t{width} << 32);
    for (uint32_t i = 0; i < width; ++i) {
      uint64_t x = static_cast<uint64_t>(row[i]) + 0x9E3779B97F4A7C15ULL + h;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      h = x ^ (x >> 31);
    }
    return h;
  }

 private:
  void Insert(uint64_t h, const int64_t* row, uint32_t width);

  const uint32_t max_rows_;
  std::atomic<uint64_t> offered_{0};
  /// Largest hash currently inside the sample once full (rows hashing
  /// above it cannot belong); UINT64_MAX while filling.
  std::atomic<uint64_t> threshold_{UINT64_MAX};
  std::mutex mu_;
  /// (hash, row) multiset — duplicates of the same row all count, so the
  /// sample is a pure function of the offered multiset.
  std::multiset<std::pair<uint64_t, std::vector<int64_t>>> kept_;
  uint32_t width_ = 0;
};

}  // namespace hierdb::obs

#endif  // HIERDB_OBS_CAPTURE_H_
