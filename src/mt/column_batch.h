// Columnar data plane: selection vectors and the strided kernels the
// executors' hot loops run on.
//
// The executors keep activations row-major (a Batch is what queues,
// digests and the cluster wire format understand), but the hot loops —
// Where predicates, scatter/probe hashing, GROUP BY key mixing — run
// column-at-a-time over that storage, one strided column of the row-major
// buffer at a time:
//
//   * FilterBatch evaluates a predicate conjunction as one tight compare
//     loop per predicate, producing a selection vector (morsel-local row
//     indexes) instead of a per-row MatchesAll branch.
//   * HashStrided fills a hash column for the survivors in one pass; the
//     scatter loop and the probe kernel (ProbeMatches) consume it instead
//     of calling HashKey row-at-a-time.
//   * GatherStrided copies one selected column out where a pass wants it
//     contiguous.
//
// Everything here is deterministic and value-identical to the row-at-a-
// time definitions the reference executor uses (MatchesAll, HashKey,
// RowTable::ForEachMatch): selection preserves row order and hashing is
// the same HashKey / GroupHash mix, so digests match the reference.

#ifndef HIERDB_MT_COLUMN_BATCH_H_
#define HIERDB_MT_COLUMN_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mt/agg.h"
#include "mt/row.h"

namespace hierdb::mt {

/// A selection vector: indexes of surviving rows, morsel-local (relative
/// to the batch slice a kernel ran over), in ascending order.
using SelVec = std::vector<uint32_t>;

// ---------------------------------------------------------------------------
// Strided kernels. `base` points at the first value of one column inside a
// row-major buffer and `stride` is the row width (stride 1 runs them over
// a contiguous column).

/// Dense filter: writes the indexes in [0, n) whose value passes
/// `cmp value` into sel_out (capacity >= n) and returns how many passed.
size_t FilterStrided(const int64_t* base, size_t stride, size_t n, CmpOp cmp,
                     int64_t value, uint32_t* sel_out);

/// Refines an existing selection in place; returns the surviving count.
size_t FilterRefineStrided(const int64_t* base, size_t stride, CmpOp cmp,
                           int64_t value, uint32_t* sel, size_t n);

/// Evaluates a predicate conjunction over rows [begin, begin+n) of `rows`
/// as per-predicate compare loops. Fills `sel` with the morsel-local
/// indexes of surviving rows and returns the count. An empty conjunction
/// selects everything (sel becomes 0..n-1).
size_t FilterBatch(const Batch& rows, size_t begin, size_t n,
                   const std::vector<Predicate>& preds, SelVec* sel);

/// Batched HashKey: out[i] = HashKey(base[sel[i] * stride]) — one pass
/// filling a hash column for scatter bucketing and ProbeMatches lookups.
/// sel == nullptr hashes rows 0..n-1 densely.
void HashStrided(const int64_t* base, size_t stride, const uint32_t* sel,
                 size_t n, uint64_t* out);

/// Batched gather: out[i] = base[sel[i] * stride] (sel == nullptr: dense).
void GatherStrided(const int64_t* base, size_t stride, const uint32_t* sel,
                   size_t n, int64_t* out);

// ---------------------------------------------------------------------------
// Per-column table statistics, computed once at Session::AddTable. The
// planner uses min/max to short-circuit Where predicates that cannot
// reject (always true — dropped before scan time) or cannot pass (always
// false — the scan keeps just that one predicate); distinct_est is a KMV
// (k minimum values) sketch over HashKey, the ROADMAP "distinct-value
// statistics" carry-over.

struct ColumnStats {
  int64_t min = 0;
  int64_t max = 0;
  uint64_t distinct_est = 0;  ///< approximate distinct values (KMV, k=256)
};

/// One linear pass over the batch; empty batch yields zeroed stats.
std::vector<ColumnStats> ComputeColumnStats(const Batch& batch);

/// What a predicate folds to against a column's [min, max] envelope.
enum class PredicateFold : uint8_t {
  kKeep,         ///< can pass and can reject — evaluate at scan time
  kAlwaysTrue,   ///< every value in [min, max] passes
  kAlwaysFalse,  ///< no value in [min, max] passes
};

PredicateFold ClassifyPredicate(const Predicate& p, const ColumnStats& s);

/// Stats-driven pass-fraction estimate for a kKeep predicate, replacing
/// the System R constants when the column carries statistics: equality
/// passes ~1/distinct, inequality its complement, and ranges the covered
/// fraction of the [min, max] span (uniformity assumption). Clamped to
/// [1e-4, 1].
double EstimateSelectivity(const Predicate& p, const ColumnStats& s);

}  // namespace hierdb::mt

#endif  // HIERDB_MT_COLUMN_BATCH_H_
