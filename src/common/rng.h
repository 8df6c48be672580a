// Deterministic pseudo-random number generation.
//
// Every experiment in the harness derives all randomness from a single
// 64-bit seed so that runs are reproducible bit-for-bit. We use
// xoshiro256** seeded via SplitMix64, the combination recommended by the
// xoshiro authors. std::mt19937 is avoided because its state is large and
// its distributions are not specified identically across standard
// libraries.

#ifndef HIERDB_COMMON_RNG_H_
#define HIERDB_COMMON_RNG_H_

#include <cstdint>

namespace hierdb {

/// SplitMix64: used to expand a user seed into xoshiro state.
inline uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** deterministic PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64Next(&sm);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [lo, hi).
  double NextDoubleInRange(double lo, double hi) {
    return lo + NextDouble() * (hi - lo);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace hierdb

#endif  // HIERDB_COMMON_RNG_H_
