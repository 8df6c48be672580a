#include "mt/column_batch.h"

#include <algorithm>
#include <numeric>

#include "mt/hash.h"

namespace hierdb::mt {

void ColumnBatch::GatherFrom(const Batch& src, size_t begin,
                             const uint32_t* sel, size_t n) {
  const uint32_t w = src.width();
  cols_.resize(w);
  rows_ = n;
  const size_t stride = w;
  for (uint32_t c = 0; c < w; ++c) {
    cols_[c].resize(n);
    const int64_t* base = src.data().data() + begin * stride + c;
    GatherStrided(base, stride, sel, n, cols_[c].data());
  }
}

void ColumnBatch::GatherColumns(const Batch& src, size_t begin,
                                const uint32_t* sel, size_t n,
                                const uint32_t* cols, uint32_t ncols) {
  cols_.resize(ncols);
  rows_ = n;
  const size_t stride = src.width();
  for (uint32_t c = 0; c < ncols; ++c) {
    cols_[c].resize(n);
    const int64_t* base = src.data().data() + begin * stride + cols[c];
    GatherStrided(base, stride, sel, n, cols_[c].data());
  }
}

Batch ColumnBatch::ToBatch() const {
  Batch out(width());
  out.Reserve(rows_);
  std::vector<int64_t> row(width());
  for (size_t i = 0; i < rows_; ++i) {
    for (uint32_t c = 0; c < width(); ++c) row[c] = cols_[c][i];
    out.AppendRow(row.data());
  }
  return out;
}

ColumnBatch ColumnBatch::FromBatch(const Batch& src) {
  ColumnBatch out(src.width());
  out.GatherFrom(src, 0, nullptr, src.rows());
  return out;
}

namespace {

/// One compare loop per CmpOp: the switch is hoisted out of the row loop
/// so each instantiation is a branch-free strided compare the compiler
/// can unroll/vectorize.
template <typename Pass>
size_t FilterDense(const int64_t* base, size_t stride, size_t n,
                   uint32_t* sel_out, Pass pass) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    sel_out[m] = static_cast<uint32_t>(i);
    m += pass(base[i * stride]) ? 1 : 0;
  }
  return m;
}

template <typename Pass>
size_t FilterRefine(const int64_t* base, size_t stride, uint32_t* sel,
                    size_t n, Pass pass) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t r = sel[i];
    sel[m] = r;
    m += pass(base[static_cast<size_t>(r) * stride]) ? 1 : 0;
  }
  return m;
}

template <typename Fn>
auto DispatchCmp(CmpOp cmp, int64_t value, Fn&& fn) {
  switch (cmp) {
    case CmpOp::kEq:
      return fn([value](int64_t v) { return v == value; });
    case CmpOp::kNe:
      return fn([value](int64_t v) { return v != value; });
    case CmpOp::kLt:
      return fn([value](int64_t v) { return v < value; });
    case CmpOp::kLe:
      return fn([value](int64_t v) { return v <= value; });
    case CmpOp::kGt:
      return fn([value](int64_t v) { return v > value; });
    case CmpOp::kGe:
    default:
      return fn([value](int64_t v) { return v >= value; });
  }
}

}  // namespace

size_t FilterStrided(const int64_t* base, size_t stride, size_t n, CmpOp cmp,
                     int64_t value, uint32_t* sel_out) {
  return DispatchCmp(cmp, value, [&](auto pass) {
    return FilterDense(base, stride, n, sel_out, pass);
  });
}

size_t FilterRefineStrided(const int64_t* base, size_t stride, CmpOp cmp,
                           int64_t value, uint32_t* sel, size_t n) {
  return DispatchCmp(cmp, value, [&](auto pass) {
    return FilterRefine(base, stride, sel, n, pass);
  });
}

size_t FilterBatch(const Batch& rows, size_t begin, size_t n,
                   const std::vector<Predicate>& preds, SelVec* sel) {
  sel->resize(n);
  if (preds.empty()) {
    std::iota(sel->begin(), sel->end(), 0u);
    return n;
  }
  const size_t stride = rows.width();
  const int64_t* origin = rows.data().data() + begin * stride;
  size_t m =
      FilterStrided(origin + preds[0].col, stride, n, preds[0].cmp,
                    preds[0].value, sel->data());
  for (size_t p = 1; p < preds.size() && m > 0; ++p) {
    m = FilterRefineStrided(origin + preds[p].col, stride, preds[p].cmp,
                            preds[p].value, sel->data(), m);
  }
  sel->resize(m);
  return m;
}

void HashStrided(const int64_t* base, size_t stride, const uint32_t* sel,
                 size_t n, uint64_t* out) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = HashKey(base[i * stride]);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashKey(base[static_cast<size_t>(sel[i]) * stride]);
  }
}

void GatherStrided(const int64_t* base, size_t stride, const uint32_t* sel,
                   size_t n, int64_t* out) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = base[i * stride];
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = base[static_cast<size_t>(sel[i]) * stride];
  }
}

std::vector<ColumnStats> ComputeColumnStats(const Batch& batch) {
  const uint32_t w = batch.width();
  std::vector<ColumnStats> stats(w);
  const size_t n = batch.rows();
  if (n == 0) return stats;
  // KMV distinct sketch: keep the k smallest distinct hash values; with
  // m >= k observed, distinct ~= (k - 1) / max_kept_normalized. Exact
  // below k kept values.
  constexpr size_t kK = 256;
  std::vector<uint64_t> kmv;
  for (uint32_t c = 0; c < w; ++c) {
    const int64_t* base = batch.data().data() + c;
    int64_t mn = base[0], mx = base[0];
    kmv.clear();
    for (size_t i = 0; i < n; ++i) {
      int64_t v = base[i * w];
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      uint64_t h = HashKey(v);
      // Keep a sorted set of the k smallest distinct hashes (k is tiny,
      // so the insertion is a short memmove amortized to near-nothing
      // once the threshold stabilizes).
      if (kmv.size() == kK && h >= kmv.back()) continue;
      auto it = std::lower_bound(kmv.begin(), kmv.end(), h);
      if (it != kmv.end() && *it == h) continue;
      kmv.insert(it, h);
      if (kmv.size() > kK) kmv.pop_back();
    }
    uint64_t distinct;
    if (kmv.size() < kK) {
      distinct = kmv.size();
    } else {
      double frac = static_cast<double>(kmv.back()) /
                    static_cast<double>(UINT64_MAX);
      distinct = frac <= 0.0
                     ? kmv.size()
                     : static_cast<uint64_t>((kK - 1) / frac);
    }
    stats[c] = {mn, mx, distinct};
  }
  return stats;
}

PredicateFold ClassifyPredicate(const Predicate& p, const ColumnStats& s) {
  switch (p.cmp) {
    case CmpOp::kEq:
      if (p.value < s.min || p.value > s.max) return PredicateFold::kAlwaysFalse;
      if (s.min == s.max && p.value == s.min) return PredicateFold::kAlwaysTrue;
      return PredicateFold::kKeep;
    case CmpOp::kNe:
      if (p.value < s.min || p.value > s.max) return PredicateFold::kAlwaysTrue;
      if (s.min == s.max && p.value == s.min) return PredicateFold::kAlwaysFalse;
      return PredicateFold::kKeep;
    case CmpOp::kLt:
      if (s.max < p.value) return PredicateFold::kAlwaysTrue;
      if (s.min >= p.value) return PredicateFold::kAlwaysFalse;
      return PredicateFold::kKeep;
    case CmpOp::kLe:
      if (s.max <= p.value) return PredicateFold::kAlwaysTrue;
      if (s.min > p.value) return PredicateFold::kAlwaysFalse;
      return PredicateFold::kKeep;
    case CmpOp::kGt:
      if (s.min > p.value) return PredicateFold::kAlwaysTrue;
      if (s.max <= p.value) return PredicateFold::kAlwaysFalse;
      return PredicateFold::kKeep;
    case CmpOp::kGe:
    default:
      if (s.min >= p.value) return PredicateFold::kAlwaysTrue;
      if (s.max < p.value) return PredicateFold::kAlwaysFalse;
      return PredicateFold::kKeep;
  }
}

double EstimateSelectivity(const Predicate& p, const ColumnStats& s) {
  const double d = static_cast<double>(std::max<uint64_t>(s.distinct_est, 1));
  const double lo = static_cast<double>(s.min);
  const double hi = static_cast<double>(s.max);
  const double span = hi - lo + 1.0;
  const double v = static_cast<double>(p.value);
  double sel;
  switch (p.cmp) {
    case CmpOp::kEq: sel = 1.0 / d; break;
    case CmpOp::kNe: sel = 1.0 - 1.0 / d; break;
    case CmpOp::kLt: sel = (v - lo) / span; break;
    case CmpOp::kLe: sel = (v - lo + 1.0) / span; break;
    case CmpOp::kGt: sel = (hi - v) / span; break;
    case CmpOp::kGe:
    default: sel = (hi - v + 1.0) / span; break;
  }
  return std::min(1.0, std::max(1e-4, sel));
}

}  // namespace hierdb::mt
