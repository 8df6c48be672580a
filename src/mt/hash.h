// The join-key hash behind every bucket, node, disk and chain-slot
// decision of the real backends.

#ifndef HIERDB_MT_HASH_H_
#define HIERDB_MT_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hierdb::mt {

/// 64-bit mix hash for join keys (SplitMix finalizer).
inline uint64_t HashKey(int64_t key) {
  uint64_t z = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-dependent combine of `v` into the running hash `h`.
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

/// Chain slot of `hash` in a hash table with `heads` chain heads (a power
/// of two, at least 2): the top log2(heads) bits. Partitioning reads the
/// low and middle bits: a build bucket is `hash % B`, a cluster node
/// `(hash >> 32) % nodes` (`NodeOfKey`), a disk `(hash >> 16) % disks`
/// (`DiskOfKey`). The keys of one bucket share their low log2(B) bits
/// when B is a power of two, so a low-bit slot would leave a bucket table
/// on heads / B of its heads (one chain once B >= heads); their top bits
/// stay uniform for any B, a non-power of two included.
inline uint64_t SlotOf(uint64_t hash, size_t heads) {
  return hash >> (64 - std::countr_zero(heads));
}

}  // namespace hierdb::mt

#endif  // HIERDB_MT_HASH_H_
