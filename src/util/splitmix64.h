// The one SplitMix64. It lives in util/, the lowest layer, so failpoint
// probabilities and client retry jitter share it with the hash seeds;
// hash/random.h re-exports it next to Xoshiro256.
#pragma once

#include <cstdint>

namespace streamfreq {

/// SplitMix64: a tiny, high-quality seed expander (Steele, Lea, Flood 2014).
/// Each Next() returns an independent-looking 64-bit value; primarily used to
/// derive sub-seeds for hash functions and engines.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit output.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Returns the next output, guaranteed non-zero (hash parameter seeds).
  uint64_t NextNonZero() {
    uint64_t v;
    do {
      v = Next();
    } while (v == 0);
    return v;
  }

 private:
  uint64_t state_;
};

}  // namespace streamfreq
