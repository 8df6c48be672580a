#include "mt/build_cache.h"

#include <chrono>

namespace hierdb::mt {

namespace {

/// Poll cadence while waiting on another query's in-flight build (also
/// bounds how stale a cancelled waiter can be) and the liveness valve: a
/// waiter that has seen no publish/abandon for this long proceeds solo, so
/// a lost builder can delay but never wedge other queries.
constexpr auto kWaitPoll = std::chrono::milliseconds(2);
constexpr auto kWaitCap = std::chrono::seconds(5);

uint64_t FiltersHash(const PipelinePlan& plan, uint32_t table) {
  const std::vector<Predicate>* preds = plan.FiltersFor(table);
  return preds != nullptr ? PredicatesHash(*preds) : 0;
}

uint64_t ProjectionHash(const PipelinePlan& plan, uint32_t table) {
  const std::vector<uint32_t>* proj = plan.ProjectionFor(table);
  if (proj == nullptr) return 0;
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint32_t c : *proj) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h == 0 ? 1 : h;
}

/// Identity of the rows `s` produces (0 = unidentifiable): a table's
/// content hash folded with its filters and projection, or a chain's
/// recursive identity (input, then each join's build identity and
/// columns).
uint64_t SourceIdentity(const std::vector<uint64_t>& table_ids,
                        const PipelinePlan& plan, const Source& s) {
  if (s.kind == Source::Kind::kTable) {
    if (s.index >= table_ids.size() || table_ids[s.index] == 0) return 0;
    uint64_t h = HashCombine(table_ids[s.index], FiltersHash(plan, s.index));
    return HashCombine(h, ProjectionHash(plan, s.index));
  }
  const Chain& chain = plan.chains[s.index];
  uint64_t h = SourceIdentity(table_ids, plan, chain.input);
  if (h == 0) return 0;
  for (const JoinStep& js : chain.joins) {
    const uint64_t b = SourceIdentity(table_ids, plan, js.build);
    if (b == 0) return 0;
    h = HashCombine(HashCombine(h, b),
                    static_cast<uint64_t>(js.probe_col) << 32 | js.build_col);
  }
  return h == 0 ? 1 : h;
}

}  // namespace

uint64_t TableContentHash(const Batch& batch) {
  // FNV-1a over the raw row data, seeded with the width so two tables
  // holding the same flat values at different widths hash apart.
  uint64_t h = 0xCBF29CE484222325ULL ^ batch.width();
  for (int64_t v : batch.data()) {
    h ^= static_cast<uint64_t>(v);
    h *= 0x100000001B3ULL;
  }
  // A zero hash is reserved for "uncacheable".
  return h == 0 ? 1 : h;
}

bool BuildCacheKeyFor(const std::vector<uint64_t>& table_ids,
                      uint64_t seed_skew, const PipelinePlan& plan,
                      uint32_t buckets, const Source& build,
                      uint32_t build_col, BuildKey* key) {
  *key = BuildKey{};
  key->column = build_col;
  key->buckets = buckets;
  key->seed_skew = seed_skew;
  if (build.kind == Source::Kind::kChain) {
    key->chain = true;
    key->table = SourceIdentity(table_ids, plan, build);
    return key->table != 0;
  }
  if (build.index >= table_ids.size() || table_ids[build.index] == 0) {
    return false;
  }
  key->table = table_ids[build.index];
  key->filters = FiltersHash(plan, build.index);
  key->projection = ProjectionHash(plan, build.index);
  return true;
}

BuildCache::Acquired BuildCache::Acquire(
    const BuildKey& key, const std::function<bool()>& cancelled,
    bool allow_wait) {
  std::unique_lock<std::mutex> lock(mu_);
  Acquired out;
  const auto deadline = std::chrono::steady_clock::now() + kWaitCap;
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      // First miss: the caller becomes this key's builder.
      Entry e;
      e.building = true;
      map_.emplace(key, std::move(e));
      ++stats_.misses;
      out.builder = true;
      return out;
    }
    if (!it->second.building) {
      ++stats_.hits;
      if (out.waited) ++stats_.dedup_waits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      out.tables = it->second.tables;
      return out;
    }
    if (!allow_wait) {
      // The caller holds an unpublished builder entry: waiting here could
      // stall against another query doing the same in the opposite key
      // order. Build solo instead.
      ++stats_.misses;
      return out;
    }
    // Another query is building this key right now: wait for its publish
    // instead of duplicating the work.
    out.waited = true;
    cv_.wait_for(lock, kWaitPoll);
    if ((cancelled != nullptr && cancelled()) ||
        std::chrono::steady_clock::now() >= deadline) {
      // Proceed solo: build locally, publish nothing.
      ++stats_.misses;
      return out;
    }
  }
}

void BuildCache::Publish(const BuildKey& key,
                         std::shared_ptr<const JoinBuild> tables) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.insertions;
  auto [it, inserted] = map_.try_emplace(key);
  Entry& e = it->second;
  if (!inserted && !e.building) {
    // Duplicate publish (two solo builds raced): last writer wins.
    resident_bytes_ -= e.bytes;
    lru_.erase(e.lru);
  }
  e.building = false;
  e.bytes = tables->bytes();
  e.tables = std::move(tables);
  lru_.push_front(key);
  e.lru = lru_.begin();
  resident_bytes_ += e.bytes;
  EvictLocked(key);
  cv_.notify_all();
}

void BuildCache::Abandon(const BuildKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.building) return;
  map_.erase(it);
  cv_.notify_all();
}

void BuildCache::SetByteBudget(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = bytes;
}

void BuildCache::EvictLocked(const BuildKey& keep) {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_ && !lru_.empty()) {
    BuildKey victim = lru_.back();
    if (victim == keep) break;  // never evict the just-published entry
    auto it = map_.find(victim);
    resident_bytes_ -= it->second.bytes;
    lru_.pop_back();
    map_.erase(it);
    ++stats_.evictions;
  }
}

void BuildCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.invalidations;
  // In-flight entries go too: their waiters re-acquire as builders, and a
  // late Publish simply re-inserts under the (content-hash) key.
  map_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  cv_.notify_all();
}

BuildCache::Stats BuildCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  for (const auto& [key, e] : map_) {
    if (e.building) continue;
    ++s.entries;
    s.bytes += e.bytes;
  }
  return s;
}

}  // namespace hierdb::mt
