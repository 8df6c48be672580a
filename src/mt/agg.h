// Relational filter predicates and two-phase GROUP BY aggregation — the
// first operator class beyond hash joins.
//
// The paper's execution model is operator-agnostic: work is decomposed
// into self-contained activations flowing through pipeline chains, and the
// load-balancing hierarchy never inspects what an operator computes. This
// module supplies the operator *bodies* that extend the join pipelines to
// warehouse-style reporting queries:
//
//   Predicate   a scan-level comparison on one column of a base relation,
//               applied where the relation's rows first enter the pipeline
//               (the driving scan's morsels or a build's scatter), so
//               filtered rows never cost a queue operation downstream;
//
//   AggSpec     GROUP BY columns (of the final chain's output row) plus
//               COUNT/SUM/MIN/MAX/AVG aggregates, executed in two phases
//               exactly like the parallel-groupby literature's local
//               partial -> partitioned global merge: every worker (or
//               cluster node) accumulates a private partial hash table
//               over the final rows it produces, then partials repartition
//               by group-key hash and disjoint partitions merge in
//               parallel.
//
// Phase 1 reads the final probe's match list, never a copied row: the
// engine hands AccumulateJoined a JoinedRows view (probe batch, probe-row
// indexes, build-row pointers), so the joined row a GROUP BY consumes is
// never materialized. A join-less terminal passes its own rows.
//
// Partial state is itself a flat int64 row — group values followed by one
// or two accumulator slots per aggregate — so partials ship between
// cluster nodes through the existing tuple-batch encoding and merge on
// arrival with no extra wire format.
//
// Determinism: every accumulator is exact integer arithmetic (sums in
// two's-complement via unsigned adds, AVG emitted as truncated sum/count),
// so the same input multiset yields bit-identical group rows on every
// backend and thread interleaving — the property the cross-backend digest
// tests rely on.

#ifndef HIERDB_MT_AGG_H_
#define HIERDB_MT_AGG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mt/row.h"

namespace hierdb::mt {

// ---------------------------------------------------------------------
// Scan-level filter predicates.

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// One comparison on one column of a base relation's rows.
struct Predicate {
  uint32_t col = 0;
  CmpOp cmp = CmpOp::kEq;
  int64_t value = 0;

  bool Matches(int64_t v) const {
    switch (cmp) {
      case CmpOp::kEq: return v == value;
      case CmpOp::kNe: return v != value;
      case CmpOp::kLt: return v < value;
      case CmpOp::kLe: return v <= value;
      case CmpOp::kGt: return v > value;
      case CmpOp::kGe: return v >= value;
    }
    return false;
  }
};

/// Conjunction over one row (empty list = all rows pass).
inline bool MatchesAll(const std::vector<Predicate>& preds,
                       const int64_t* row) {
  for (const Predicate& p : preds) {
    if (!p.Matches(row[p.col])) return false;
  }
  return true;
}

/// Order-insensitive identity of a predicate list (folded into build-cache
/// keys so a filtered build never aliases an unfiltered one). 0 = empty.
uint64_t PredicatesHash(const std::vector<Predicate>& preds);

// ---------------------------------------------------------------------
// GROUP BY / aggregation.

enum class AggFn : uint8_t { kCount, kSum, kMin, kMax, kAvg };

const char* AggFnName(AggFn fn);

/// One aggregate over a column of the final chain's output row (the column
/// is ignored for kCount).
struct AggExpr {
  AggFn fn = AggFn::kCount;
  uint32_t col = 0;
};

/// The aggregation applied to the final chain's output. Output rows are
/// the group-by values followed by one value per aggregate; with no
/// group columns the whole result is one group (a global aggregate), and
/// with no aggregates the output is the distinct group-value combinations.
/// Zero input rows produce zero groups on every backend.
struct AggSpec {
  std::vector<uint32_t> group_cols;
  std::vector<AggExpr> aggs;

  /// HAVING: predicates over the *output* row (group values then
  /// aggregates, so col < OutputWidth()), applied as groups are finalized
  /// — EmitFinal skips non-matching groups in both the row and the digest,
  /// which keeps every backend's funnel (thread merge, cluster node merge,
  /// the reference executor) bit-identical.
  std::vector<Predicate> having;

  /// Internal partial-row width: group values + accumulator slots (AVG
  /// carries sum and count; every other aggregate one slot).
  uint32_t PartialWidth() const;
  /// Final output-row width: group values + one column per aggregate.
  uint32_t OutputWidth() const;

  /// Column-bound and non-emptiness checks against the aggregated row
  /// width.
  Status Validate(uint32_t input_width) const;

  std::string ToString() const;
};

/// Deterministic hash of a group-value prefix — the one hash function the
/// thread-level merge partitioning and the cluster's node repartitioning
/// share (partials for one group always land in the same partition). An
/// FNV mix over the values, finished with HashKey so every bit avalanches.
uint64_t GroupHash(const int64_t* vals, uint32_t n);

/// An open-addressing hash table from group values to an accumulator
/// (partial) row. Partial rows live in a pool in insertion order, with
/// each group's hash beside it so merge phases select partitions without
/// rehashing; partitions read `hash % parts`, the home slot the top bits
/// (SlotOf), so a merge table holding one partition uses all its slots.
/// Each slot packs the low 32 hash bits (a tag) over the group's pool
/// index, and a lookup probes linearly, comparing the tag and then the
/// int64 group values in place; the table grows at a quarter load. Every
/// path — AccumulateJoined, the scalar Accumulate and MergePartial —
/// resolves groups through that one lookup. Not thread-safe: one table
/// per worker/partition.
class AggTable {
 public:
  AggTable() = default;
  explicit AggTable(const AggSpec* spec) { Init(spec); }

  void Init(const AggSpec* spec);
  bool initialized() const { return spec_ != nullptr; }

  /// Phase 1, one row at a time: folds one final-chain output row into
  /// its group's partial (the reference executor's oracle).
  void Accumulate(const int64_t* row);

  /// Reusable tile buffers for AccumulateJoined.
  struct Scratch {
    std::vector<uint64_t> hashes;
    std::vector<int64_t> keys;  ///< column-major, kTile per group column
    std::vector<uint32_t> groups;
  };

  /// Phase 1, the kernel: folds the joined rows of `rows` into their
  /// groups' partials, kTile rows at a time, in three passes per tile:
  ///   1. gathers the group columns column-at-a-time and mixes GroupHash
  ///      across the tile (bit-identical to the scalar per-row hash, on
  ///      which partitioning and the cluster's repartition homes depend);
  ///   2. resolves every row's group *index* with the lookup inlined —
  ///      direct int64 compares, no call per row, an insert on a miss
  ///      (indexes, not pointers: an insert may grow the pool);
  ///   3. updates one aggregate at a time over the tile, its AggFn
  ///      dispatched once per tile rather than per row.
  /// Same groups, in the same insertion order, as Accumulate over the
  /// rows in order.
  void AccumulateJoined(const JoinedRows& rows, Scratch* scratch);

  /// Merge phase: folds one partial row (PartialWidth layout) produced by
  /// another table over the same spec.
  void MergePartial(const int64_t* partial);

  size_t groups() const { return hashes_.size(); }
  uint64_t bytes() const {
    return pool_.size() * sizeof(int64_t) +
           (hashes_.size() + slots_.size()) * sizeof(uint64_t);
  }

  /// Appends the partial rows whose group hash lands in partition `part`
  /// of `parts` to `out` (width = PartialWidth). `parts` = 1 emits all.
  void EmitPartials(uint32_t part, uint32_t parts, Batch* out) const;

  /// Visits the partial rows of one partition in place (the zero-copy
  /// variant of EmitPartials, used by the shared-memory merge phase).
  template <typename Fn>
  void ForEachPartial(uint32_t part, uint32_t parts, Fn&& fn) const {
    const size_t n = groups();
    for (size_t i = 0; i < n; ++i) {
      if (parts > 1 && hashes_[i] % parts != part) continue;
      fn(pool_.data() + i * partial_width_);
    }
  }

  /// Appends the finalized output rows (AVG divided out) to `out` and/or
  /// the order-independent digest; either may be null.
  void EmitFinal(Batch* out, ResultDigest* digest) const;

  /// Rows per AccumulateJoined tile.
  static constexpr size_t kTile = 256;

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;
  static constexpr uint32_t kMiss = UINT32_MAX;
  static constexpr size_t kMinSlots = 16;

  /// The table state a lookup reads, hoisted out of a row loop; an
  /// insert invalidates it.
  struct LookupView {
    const uint64_t* slots;
    size_t mask;
    int shift;  ///< SlotOf as a shift: 64 - log2(slots)
    const int64_t* pool;
    size_t pw;
    uint32_t g;
  };
  LookupView View() const;

  /// The one lookup: the pool index of the group whose values are
  /// key[0], key[stride], ... (hash `h`), or kMiss.
  static uint32_t Lookup(const LookupView& v, const int64_t* key,
                         size_t stride, uint64_t h);
  /// Lookup with an insert on a miss, for one contiguous key.
  uint32_t FindOrInsert(const int64_t* key, uint64_t h);
  uint32_t Insert(const int64_t* key, size_t stride, uint64_t h);
  /// Claims the first free slot from h's home slot for group `id`.
  void Place(uint64_t h, uint32_t id);
  void Grow();

  const AggSpec* spec_ = nullptr;
  uint32_t group_width_ = 0;
  uint32_t partial_width_ = 0;
  std::vector<int64_t> pool_;     ///< partial rows, row-major
  std::vector<uint64_t> hashes_;  ///< group hash per partial row
  std::vector<uint64_t> slots_;   ///< (hash << 32) | index, or kEmpty
};

/// Single-threaded reference aggregation of `rows` (final-chain output)
/// under `spec` — the oracle the parallel paths are validated against.
Batch ReferenceAggregate(const Batch& rows, const AggSpec& spec);

}  // namespace hierdb::mt

#endif  // HIERDB_MT_AGG_H_
