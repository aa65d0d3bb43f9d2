// Deterministic pseudo-random number generation.
//
// All randomness in streamfreq flows from explicit 64-bit seeds so that every
// experiment is reproducible run-to-run. SplitMix64 expands a single seed
// into independent sub-seeds; Xoshiro256** is the workhorse engine and
// satisfies std::uniform_random_bit_generator so it composes with <random>
// distributions.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/bit_util.h"
#include "util/splitmix64.h"

namespace streamfreq {

/// Xoshiro256** 1.0 (Blackman & Vigna): fast, 256-bit state, passes BigCrush.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  explicit Xoshiro256(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  result_type operator()() {
    const uint64_t result = bit_util::RotateLeft(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = bit_util::RotateLeft(state_[3], 45);
    return result;
  }

  /// Uniform value in [0, n) via Lemire's multiply-shift reduction.
  uint64_t UniformBelow(uint64_t n) { return bit_util::FastRange64((*this)(), n); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  std::array<uint64_t, 4> state_;
};

}  // namespace streamfreq
