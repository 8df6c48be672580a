#include "mt/agg.h"

#include <algorithm>

namespace hierdb::mt {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kSum: return "sum";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
    case AggFn::kAvg: return "avg";
  }
  return "?";
}

namespace {

uint64_t MixU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Accumulator slots one aggregate occupies in a partial row.
uint32_t SlotsOf(AggFn fn) { return fn == AggFn::kAvg ? 2 : 1; }

}  // namespace

uint64_t PredicatesHash(const std::vector<Predicate>& preds) {
  if (preds.empty()) return 0;
  uint64_t h = 0x6A09E667F3BCC909ULL;
  for (const Predicate& p : preds) {
    h = MixU64(h, p.col);
    h = MixU64(h, static_cast<uint64_t>(p.cmp));
    h = MixU64(h, static_cast<uint64_t>(p.value));
  }
  return h == 0 ? 1 : h;
}

uint32_t AggSpec::PartialWidth() const {
  uint32_t w = static_cast<uint32_t>(group_cols.size());
  for (const AggExpr& a : aggs) w += SlotsOf(a.fn);
  return w;
}

uint32_t AggSpec::OutputWidth() const {
  return static_cast<uint32_t>(group_cols.size() + aggs.size());
}

Status AggSpec::Validate(uint32_t input_width) const {
  if (group_cols.empty() && aggs.empty()) {
    return Status::InvalidArgument(
        "aggregation needs at least one group column or aggregate");
  }
  for (uint32_t c : group_cols) {
    if (c >= input_width) {
      return Status::OutOfRange("group column " + std::to_string(c) +
                                " >= aggregated row width " +
                                std::to_string(input_width));
    }
  }
  for (const AggExpr& a : aggs) {
    if (a.fn != AggFn::kCount && a.col >= input_width) {
      return Status::OutOfRange("aggregate column " + std::to_string(a.col) +
                                " >= aggregated row width " +
                                std::to_string(input_width));
    }
  }
  for (const Predicate& h : having) {
    if (h.col >= OutputWidth()) {
      return Status::OutOfRange("having column " + std::to_string(h.col) +
                                " >= aggregate output width " +
                                std::to_string(OutputWidth()));
    }
  }
  return Status::OK();
}

std::string AggSpec::ToString() const {
  std::string s = "group by [";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    if (i > 0) s += ", ";
    s += "c" + std::to_string(group_cols[i]);
  }
  s += "] -> [";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) s += ", ";
    s += AggFnName(aggs[i].fn);
    if (aggs[i].fn != AggFn::kCount) {
      s += "(c" + std::to_string(aggs[i].col) + ")";
    } else {
      s += "(*)";
    }
  }
  s += "]";
  for (const Predicate& h : having) {
    s += " having c" + std::to_string(h.col) + " " + CmpOpName(h.cmp) + " " +
         std::to_string(h.value);
  }
  return s;
}

uint64_t GroupHash(const int64_t* vals, uint32_t n) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint32_t i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(vals[i]);
    h *= 0x100000001B3ULL;
    h ^= h >> 29;
  }
  // The FNV mix barely moves the top bits for small values, and SlotOf
  // reads exactly those: finish with the full-avalanche key hash.
  return HashKey(static_cast<int64_t>(h));
}

void AggTable::Init(const AggSpec* spec) {
  spec_ = spec;
  partial_width_ = spec->PartialWidth();
  pool_.clear();
  hashes_.clear();
  next_.clear();
  heads_.clear();
}

void AggTable::Rehash() {
  size_t target = heads_.empty() ? 16 : heads_.size() * 2;
  heads_.assign(target, kNoEntry);
  size_t n = groups();
  for (size_t i = 0; i < n; ++i) {
    uint64_t slot = SlotOf(hashes_[i], heads_.size());
    next_[i] = heads_[slot];
    heads_[slot] = static_cast<uint32_t>(i);
  }
}

int64_t* AggTable::FindOrInsert(const int64_t* vals, uint64_t h) {
  const uint32_t g = static_cast<uint32_t>(spec_->group_cols.size());
  if (!heads_.empty()) {
    uint64_t slot = SlotOf(h, heads_.size());
    for (uint32_t e = heads_[slot]; e != kNoEntry; e = next_[e]) {
      if (hashes_[e] != h) continue;
      int64_t* row = pool_.data() + static_cast<size_t>(e) * partial_width_;
      if (std::equal(row, row + g, vals)) return row;
    }
  }
  if (groups() + 1 > heads_.size() * 2) Rehash();
  uint32_t id = static_cast<uint32_t>(groups());
  size_t base = pool_.size();
  pool_.resize(base + partial_width_);
  int64_t* row = pool_.data() + base;
  std::copy(vals, vals + g, row);
  // Identity-initialize the accumulator slots.
  uint32_t s = g;
  for (const AggExpr& a : spec_->aggs) {
    switch (a.fn) {
      case AggFn::kCount: row[s++] = 0; break;
      case AggFn::kSum: row[s++] = 0; break;
      case AggFn::kMin: row[s++] = INT64_MAX; break;
      case AggFn::kMax: row[s++] = INT64_MIN; break;
      case AggFn::kAvg:
        row[s++] = 0;  // sum
        row[s++] = 0;  // count
        break;
    }
  }
  hashes_.push_back(h);
  uint64_t slot = SlotOf(h, heads_.size());
  next_.push_back(heads_[slot]);
  heads_[slot] = id;
  return row;
}

namespace {

/// Wrap-around add without signed-overflow UB (two's-complement sum).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace

void AggTable::Accumulate(const int64_t* row) {
  const uint32_t g = static_cast<uint32_t>(spec_->group_cols.size());
  // Gather the group values (group_cols index the input row; the partial
  // stores them densely in front).
  int64_t stack_vals[8];
  std::vector<int64_t> heap_vals;
  int64_t* vals = stack_vals;
  if (g > 8) {
    heap_vals.resize(g);
    vals = heap_vals.data();
  }
  for (uint32_t i = 0; i < g; ++i) vals[i] = row[spec_->group_cols[i]];
  int64_t* p = FindOrInsert(vals, GroupHash(vals, g));
  uint32_t s = g;
  for (const AggExpr& a : spec_->aggs) {
    switch (a.fn) {
      case AggFn::kCount: p[s] = WrapAdd(p[s], 1); ++s; break;
      case AggFn::kSum: p[s] = WrapAdd(p[s], row[a.col]); ++s; break;
      case AggFn::kMin: p[s] = std::min(p[s], row[a.col]); ++s; break;
      case AggFn::kMax: p[s] = std::max(p[s], row[a.col]); ++s; break;
      case AggFn::kAvg:
        p[s] = WrapAdd(p[s], row[a.col]);
        p[s + 1] = WrapAdd(p[s + 1], 1);
        s += 2;
        break;
    }
  }
}

void AggTable::AccumulateBatch(const Batch& rows, size_t begin,
                               const uint32_t* sel, size_t n,
                               const uint32_t* col_map,
                               BatchScratch* scratch) {
  if (n == 0) return;
  const uint32_t g = static_cast<uint32_t>(spec_->group_cols.size());
  const size_t stride = rows.width();
  const int64_t* origin = rows.data().data() + begin * stride;
  // Column-at-a-time gather + hash: GroupHash's per-column mix
  //   h ^= v; h *= FNV_PRIME; h ^= h >> 29
  // is sequential per row, so running it one column across all rows and
  // then applying its HashKey finish yields exactly the scalar per-row
  // hashes.
  scratch->hashes.assign(n, 0xCBF29CE484222325ULL);
  scratch->keys.resize(n * g);
  uint64_t* hashes = scratch->hashes.data();
  int64_t* keys = scratch->keys.data();
  for (uint32_t j = 0; j < g; ++j) {
    uint32_t c = spec_->group_cols[j];
    if (col_map != nullptr) c = col_map[c];
    const int64_t* base = origin + c;
    for (size_t i = 0; i < n; ++i) {
      const size_t r = sel == nullptr ? i : sel[i];
      const int64_t v = base[r * stride];
      keys[i * g + j] = v;
      uint64_t h = hashes[i];
      h ^= static_cast<uint64_t>(v);
      h *= 0x100000001B3ULL;
      h ^= h >> 29;
      hashes[i] = h;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = HashKey(static_cast<int64_t>(hashes[i]));
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t r = sel == nullptr ? i : sel[i];
    const int64_t* row = origin + r * stride;
    int64_t* p = FindOrInsert(keys + i * g, hashes[i]);
    uint32_t s = g;
    for (const AggExpr& a : spec_->aggs) {
      // kCount ignores its column, so only value aggregates map it.
      const uint32_t c =
          a.fn != AggFn::kCount && col_map != nullptr ? col_map[a.col] : a.col;
      switch (a.fn) {
        case AggFn::kCount: p[s] = WrapAdd(p[s], 1); ++s; break;
        case AggFn::kSum: p[s] = WrapAdd(p[s], row[c]); ++s; break;
        case AggFn::kMin: p[s] = std::min(p[s], row[c]); ++s; break;
        case AggFn::kMax: p[s] = std::max(p[s], row[c]); ++s; break;
        case AggFn::kAvg:
          p[s] = WrapAdd(p[s], row[c]);
          p[s + 1] = WrapAdd(p[s + 1], 1);
          s += 2;
          break;
      }
    }
  }
}

void AggTable::MergePartial(const int64_t* partial) {
  const uint32_t g = static_cast<uint32_t>(spec_->group_cols.size());
  int64_t* p = FindOrInsert(partial, GroupHash(partial, g));
  uint32_t s = g;
  for (const AggExpr& a : spec_->aggs) {
    switch (a.fn) {
      case AggFn::kCount:
      case AggFn::kSum:
        p[s] = WrapAdd(p[s], partial[s]);
        ++s;
        break;
      case AggFn::kMin: p[s] = std::min(p[s], partial[s]); ++s; break;
      case AggFn::kMax: p[s] = std::max(p[s], partial[s]); ++s; break;
      case AggFn::kAvg:
        p[s] = WrapAdd(p[s], partial[s]);
        p[s + 1] = WrapAdd(p[s + 1], partial[s + 1]);
        s += 2;
        break;
    }
  }
}

void AggTable::EmitPartials(uint32_t part, uint32_t parts, Batch* out) const {
  if (out->width() == 0) *out = Batch(partial_width_);
  ForEachPartial(part, parts, [&](const int64_t* row) { out->AppendRow(row); });
}

void AggTable::EmitFinal(Batch* out, ResultDigest* digest) const {
  const uint32_t g = static_cast<uint32_t>(spec_->group_cols.size());
  const uint32_t ow = spec_->OutputWidth();
  std::vector<int64_t> row(ow);
  const size_t n = groups();
  for (size_t i = 0; i < n; ++i) {
    const int64_t* p = pool_.data() + i * partial_width_;
    std::copy(p, p + g, row.begin());
    uint32_t s = g, o = g;
    for (const AggExpr& a : spec_->aggs) {
      if (a.fn == AggFn::kAvg) {
        // Truncated integer mean; the count is never 0 (a group exists
        // only once a row reached it).
        row[o++] = p[s + 1] == 0 ? 0 : p[s] / p[s + 1];
        s += 2;
      } else {
        row[o++] = p[s++];
      }
    }
    if (!spec_->having.empty() && !MatchesAll(spec_->having, row.data())) {
      continue;
    }
    if (out != nullptr) {
      if (out->width() == 0) *out = Batch(ow);
      out->AppendRow(row.data());
    }
    if (digest != nullptr) digest->Add(row.data(), ow);
  }
}

Batch ReferenceAggregate(const Batch& rows, const AggSpec& spec) {
  AggTable table(&spec);
  for (size_t i = 0; i < rows.rows(); ++i) table.Accumulate(rows.row(i));
  Batch out(spec.OutputWidth());
  table.EmitFinal(&out, nullptr);
  return out;
}

}  // namespace hierdb::mt
