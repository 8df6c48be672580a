// The hash layout the real-thread executors share: the chain-slot rule of
// mt/hash.h (SlotOf) against the bucket rule (HashKey % B), and the
// RowTable built on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "mt/hash.h"
#include "mt/row_table.h"

namespace hierdb::mt {
namespace {

// Heads occupied by the keys of bucket `b` of `buckets`, under a slot rule.
template <typename Slot>
size_t HeadsUsedByBucket(uint32_t buckets, uint32_t b, size_t heads,
                         Slot slot) {
  std::set<uint64_t> used;
  size_t keys = 0;
  // Four keys per head: a uniform rule fills ~98% of the heads.
  for (int64_t k = 0; keys < 4 * heads; ++k) {
    const uint64_t h = HashKey(k);
    if (h % buckets != b) continue;
    ++keys;
    used.insert(slot(h, heads));
  }
  return used.size();
}

TEST(SlotOf, BucketKeysSpreadOverTheHeads) {
  for (uint32_t buckets : {16u, 64u, 100u, 128u}) {
    for (size_t heads : {size_t{16}, size_t{64}, size_t{1024}}) {
      for (uint32_t b : {0u, buckets / 2, buckets - 1}) {
        const size_t used = HeadsUsedByBucket(
            buckets, b, heads,
            [](uint64_t h, size_t n) { return SlotOf(h, n); });
        EXPECT_GE(4 * used, 3 * heads)
            << "B=" << buckets << " heads=" << heads << " bucket=" << b;
      }
    }
  }
}

TEST(SlotOf, LowBitSlotsCollapseAPowerOfTwoBucket) {
  // The rule SlotOf replaces: with B >= heads both powers of two, the
  // bucket fixes every low bit the slot reads, so one head takes it all.
  for (uint32_t buckets : {16u, 64u, 128u}) {
    for (size_t heads : {size_t{16}, size_t{64}}) {
      if (buckets < heads) continue;
      EXPECT_EQ(HeadsUsedByBucket(
                    buckets, 1, heads,
                    [](uint64_t h, size_t n) { return h & (n - 1); }),
                1u)
          << "B=" << buckets << " heads=" << heads;
    }
  }
}

TEST(SlotOf, StaysInRange) {
  for (size_t heads = 2; heads <= (size_t{1} << 20); heads *= 2) {
    for (int64_t k = -50; k < 50; ++k) {
      EXPECT_LT(SlotOf(HashKey(k), heads), heads);
    }
    EXPECT_EQ(SlotOf(UINT64_MAX, heads), heads - 1);
    EXPECT_EQ(SlotOf(0, heads), 0u);
  }
}

TEST(RowTable, MatchesSurviveRehashWithinOneBucket) {
  // One bucket's rows of a 64-way fragmented build: keys sharing their
  // low six hash bits, through several rehashes.
  constexpr uint32_t kBuckets = 64;
  RowTable t(2, 0);
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < 500; ++k) {
    if (HashKey(k) % kBuckets != 3) continue;
    keys.push_back(k);
    for (int64_t copy = 0; copy < 2; ++copy) {
      const int64_t row[2] = {k, copy};
      t.Insert(row);
    }
  }
  ASSERT_EQ(t.rows(), 2 * keys.size());
  std::vector<uint64_t> hashes;
  for (int64_t k : keys) {
    size_t hits = 0;
    t.ForEachMatch(k, [&](const int64_t* row) {
      EXPECT_EQ(row[0], k);
      ++hits;
    });
    EXPECT_EQ(hits, 2u) << k;
    hashes.push_back(HashKey(k));
  }
  std::vector<size_t> batch_hits(keys.size(), 0);
  ProbeScratch scratch;
  Matches matches;
  ProbeMatches(&t, 1, keys.data(), hashes.data(), keys.size(), &scratch,
               &matches);
  for (size_t m = 0; m < matches.size(); ++m) {
    EXPECT_EQ(matches.build[m][0], keys[matches.probe[m]]);
    ++batch_hits[matches.probe[m]];
  }
  for (size_t hits : batch_hits) EXPECT_EQ(hits, 2u);
  size_t misses = 0;
  t.ForEachMatch(keys.back() + 1, [&](const int64_t*) { ++misses; });
  EXPECT_EQ(misses, 0u);
}

}  // namespace
}  // namespace hierdb::mt
