// Broken on purpose: hand-rolls an AVX2 path behind a raw instruction-set
// ifdef instead of programming against simd::U64x8. This reintroduces
// per-translation-unit ISA divergence — the sketch library would execute
// different arithmetic depending on which TU's flags won — and breaks the
// single-file auditability of the scalar/vector bit-identity argument
// (docs/PERFORMANCE.md). SIMD conditionals and intrinsics belong in
// src/util/simd.h and nowhere else. So does run-time CPU dispatch: the
// hand-rolled CRC below picks an SSE4.2 path with its own CPU check and
// target attribute, which would let a second dispatch site drift from the
// one in simd.h unnoticed.
//
// sfq-lint-path: src/core/hand_rolled_simd.cc
// sfq-lint-expect: simd-ifdef

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#include <nmmintrin.h>

namespace streamfreq {

uint64_t SumKeys(const uint64_t* keys, size_t n) {
  uint64_t total = 0;
#if defined(__AVX2__)
  __m256i acc = _mm256_setzero_si256();
  for (size_t i = 0; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)));
  }
#endif
  for (size_t i = 0; i < n; ++i) total += keys[i];
  return total;
}

__attribute__((target("sse4.2"))) uint32_t CrcWords(const uint64_t* words,
                                                    size_t n) {
  uint64_t crc = ~0ULL;
  for (size_t i = 0; i < n; ++i) crc = __builtin_ia32_crc32di(crc, words[i]);
  return static_cast<uint32_t>(crc);
}

bool UseHardwareCrc() { return __builtin_cpu_supports("sse4.2"); }

}  // namespace streamfreq
