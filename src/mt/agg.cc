#include "mt/agg.h"

#include <algorithm>
#include <bit>

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

namespace {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/// One group column's step of GroupHash.
inline uint64_t GroupMix(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v);
  h *= kFnvPrime;
  return h ^ (h >> 29);
}

/// Wrap-around add without signed-overflow UB (two's-complement sum).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace

uint64_t GroupHash(const int64_t* vals, uint32_t n) {
  uint64_t h = kFnvOffset;
  for (uint32_t i = 0; i < n; ++i) h = GroupMix(h, vals[i]);
  // The FNV mix barely moves the top bits for small values, and SlotOf
  // reads exactly those: finish with the full-avalanche key hash.
  return HashKey(static_cast<int64_t>(h));
}

void AggTable::Init(const AggSpec* spec) {
  spec_ = spec;
  group_width_ = static_cast<uint32_t>(spec->group_cols.size());
  partial_width_ = spec->PartialWidth();
  pool_.clear();
  hashes_.clear();
  slots_.assign(kMinSlots, kEmpty);
}

void AggTable::Place(uint64_t h, uint32_t id) {
  const size_t mask = slots_.size() - 1;
  size_t s = SlotOf(h, slots_.size());
  while (slots_[s] != kEmpty) s = (s + 1) & mask;
  slots_[s] = (h << 32) | id;
}

void AggTable::Grow() {
  slots_.assign(slots_.size() * 2, kEmpty);
  for (size_t i = 0; i < hashes_.size(); ++i) {
    Place(hashes_[i], static_cast<uint32_t>(i));
  }
}

AggTable::LookupView AggTable::View() const {
  return {slots_.data(), slots_.size() - 1,
          64 - std::countr_zero(slots_.size()), pool_.data(), partial_width_,
          group_width_};
}

// The one lookup, inlined into every caller: a hit costs no call, no
// memcmp and no branch per group column.
inline uint32_t AggTable::Lookup(const LookupView& v, const int64_t* key,
                                 size_t stride, uint64_t h) {
  const uint64_t tag = h << 32;
  for (size_t s = h >> v.shift;; s = (s + 1) & v.mask) {
    const uint64_t e = v.slots[s];
    if (e == kEmpty) return kMiss;
    if ((e & ~uint64_t{UINT32_MAX}) != tag) continue;
    const int64_t* row = v.pool + static_cast<uint32_t>(e) * v.pw;
    bool eq = true;
    for (uint32_t j = 0; j < v.g; ++j) eq &= row[j] == key[j * stride];
    if (eq) return static_cast<uint32_t>(e);
  }
}

uint32_t AggTable::FindOrInsert(const int64_t* key, uint64_t h) {
  const uint32_t id = Lookup(View(), key, 1, h);
  return id != kMiss ? id : Insert(key, 1, h);
}

// A miss: appends an identity-initialized partial for the group and
// claims its slot, growing the table first at a quarter load (short
// probe sequences keep the lookup's branches predictable).
__attribute__((noinline)) uint32_t AggTable::Insert(const int64_t* key,
                                                    size_t stride,
                                                    uint64_t h) {
  if (groups() + 1 > slots_.size() / 4) Grow();
  const uint32_t id = static_cast<uint32_t>(groups());
  const size_t base = pool_.size();
  pool_.resize(base + partial_width_);
  int64_t* row = pool_.data() + base;
  for (uint32_t j = 0; j < group_width_; ++j) row[j] = key[j * stride];
  uint32_t s = group_width_;
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
  Place(h, id);
  return id;
}

void AggTable::Accumulate(const int64_t* row) {
  const uint32_t g = group_width_;
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
  const uint32_t id = FindOrInsert(vals, GroupHash(vals, g));
  int64_t* p = pool_.data() + static_cast<size_t>(id) * partial_width_;
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

void AggTable::AccumulateJoined(const JoinedRows& rows, Scratch* scratch) {
  const uint32_t g = group_width_;
  const size_t pw = partial_width_;
  scratch->hashes.resize(kTile);
  scratch->keys.resize(kTile * g);
  scratch->groups.resize(kTile);
  uint64_t* hashes = scratch->hashes.data();
  int64_t* keys = scratch->keys.data();
  uint32_t* groups = scratch->groups.data();
  for (size_t at = 0; at < rows.n; at += kTile) {
    const size_t m = std::min(kTile, rows.n - at);
    // Pass 1: GroupHash's per-column mix is sequential per row, so
    // running it one column across the tile and then finishing every
    // row with HashKey yields exactly the scalar per-row hashes.
    for (size_t i = 0; i < m; ++i) hashes[i] = kFnvOffset;
    for (uint32_t j = 0; j < g; ++j) {
      int64_t* col = keys + j * kTile;
      rows.ForColumn(spec_->group_cols[j], at, m, [&](size_t i, int64_t v) {
        col[i] = v;
        hashes[i] = GroupMix(hashes[i], v);
      });
    }
    for (size_t i = 0; i < m; ++i) {
      hashes[i] = HashKey(static_cast<int64_t>(hashes[i]));
    }
    // Pass 2: each row's group index (row i's key is keys[i + j*kTile]).
    LookupView v = View();
    for (size_t i = 0; i < m; ++i) {
      uint32_t id = Lookup(v, keys + i, kTile, hashes[i]);
      if (id == kMiss) {
        id = Insert(keys + i, kTile, hashes[i]);
        v = View();
      }
      groups[i] = id;
    }
    // Pass 3: one aggregate at a time; the pool no longer grows.
    int64_t* acc = pool_.data() + g;
    auto update = [&](uint32_t col, auto&& op) {
      rows.ForColumn(col, at, m, [&](size_t i, int64_t v) {
        op(acc + groups[i] * pw, v);
      });
    };
    for (const AggExpr& a : spec_->aggs) {
      switch (a.fn) {
        case AggFn::kCount:
          for (size_t i = 0; i < m; ++i) {
            int64_t& x = acc[groups[i] * pw];
            x = WrapAdd(x, 1);
          }
          break;
        case AggFn::kSum:
          update(a.col, [](int64_t* x, int64_t v) { *x = WrapAdd(*x, v); });
          break;
        case AggFn::kMin:
          update(a.col, [](int64_t* x, int64_t v) { *x = std::min(*x, v); });
          break;
        case AggFn::kMax:
          update(a.col, [](int64_t* x, int64_t v) { *x = std::max(*x, v); });
          break;
        case AggFn::kAvg:
          update(a.col, [](int64_t* x, int64_t v) {
            x[0] = WrapAdd(x[0], v);
            x[1] = WrapAdd(x[1], 1);
          });
          break;
      }
      acc += SlotsOf(a.fn);
    }
  }
}

void AggTable::MergePartial(const int64_t* partial) {
  const uint32_t g = group_width_;
  const uint32_t id = FindOrInsert(partial, GroupHash(partial, g));
  int64_t* p = pool_.data() + static_cast<size_t>(id) * partial_width_;
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
  const uint32_t g = group_width_;
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
