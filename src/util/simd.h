// SIMD dispatch: the ONE translation-unit-visible place where instruction-
// set conditionals are allowed (enforced by the sfq-simd-ifdef lint rule).
//
// Everything above this header programs against a fixed-width bundle of
// eight 64-bit lanes (`U64x8`) with exact unsigned two's-complement
// semantics. On GCC/Clang the bundle is a compiler vector type, so the
// same source lowers to AVX-512/AVX2/SSE2/NEON depending on the flags the
// build selected (see STREAMFREQ_SIMD in the top-level CMakeLists.txt); on
// other compilers it degrades to a plain struct-of-lanes that optimizers
// still unroll. Either way the arithmetic is bit-identical — lane math is
// ordinary uint64_t math — which is what lets simd_equivalence_test demand
// exact equality between the scalar and vectorized sketch paths instead of
// a tolerance.
//
// The backend *name* reported by kSimdBackend describes the instruction
// set this translation unit was compiled for. The authoritative value for
// the library hot path is batch_hash::BackendName() (compiled into
// streamfreq_hash, the only library that receives the SIMD flags).
//
// It also holds the one run-time-dispatched kernel, the SSE4.2 CRC-32C
// behind util/crc32.h: streamfreq_util gets no SIMD flags, so the kernel
// carries its own target attribute and is handed out after a CPU check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX__) && !defined(STREAMFREQ_FORCE_SCALAR_SIMD)
// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on its own
// _mm512_undefined_epi32 self-initialization idiom under -Werror.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

// The crc32 intrinsics are declared for any x86-64 unit; no flags needed.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(STREAMFREQ_FORCE_SCALAR_SIMD)
#define SFQ_SIMD_HW_CRC32C 1
#include <nmmintrin.h>
#else
#define SFQ_SIMD_HW_CRC32C 0
#endif

namespace streamfreq {
namespace simd {

// -- backend identification (ifdefs live here and nowhere else) -----------

#if defined(STREAMFREQ_FORCE_SCALAR_SIMD)
inline constexpr const char kSimdBackend[] = "scalar-forced";
#elif defined(__AVX512F__) && defined(__AVX512DQ__)
inline constexpr const char kSimdBackend[] = "avx512";
#elif defined(__AVX2__)
inline constexpr const char kSimdBackend[] = "avx2";
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
inline constexpr const char kSimdBackend[] = "sse2";
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
inline constexpr const char kSimdBackend[] = "neon";
#else
inline constexpr const char kSimdBackend[] = "scalar";
#endif

#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(STREAMFREQ_FORCE_SCALAR_SIMD)
#define SFQ_SIMD_VECTOR_EXT 1
#else
#define SFQ_SIMD_VECTOR_EXT 0
#endif

/// Lanes processed per bundle. Eight regardless of ISA: one AVX-512
/// register, two AVX2 registers, four SSE2/NEON registers — the compiler
/// splits as needed, and the kernels in src/hash/batch_hash.cc consume two
/// bundles (16 keys) per iteration.
inline constexpr size_t kLanes = 8;

/// Marks a function whose loops must stay scalar. The kScalar reference
/// kernels live in the same translation unit as the vector kernels and
/// would otherwise be auto-vectorized under the unit's -march flags,
/// which would make the "scalar baseline" rows in BENCH_throughput.json
/// measure a second, accidental SIMD path instead of the historical
/// one-key-at-a-time code.
#if defined(__clang__)
#define SFQ_SIMD_NO_AUTOVEC
#elif defined(__GNUC__)
#define SFQ_SIMD_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define SFQ_SIMD_NO_AUTOVEC
#endif

/// Zeroes the upper halves of the vector registers (vzeroupper). While an
/// AVX kernel leaves them dirty, the thread's later SSE code -- anything
/// built without streamfreq_hash's -march flags, such as the counter
/// scatter in core -- pays a state-transition penalty, and GCC emits no
/// vzeroupper on its own under -march=native here. Vectorized kernels
/// call this before they return; a no-op on builds without AVX.
inline void ZeroUpper() {
#if defined(__AVX__) && !defined(STREAMFREQ_FORCE_SCALAR_SIMD)
  _mm256_zeroupper();
#endif
}

// -- hardware CRC-32C ------------------------------------------------------

/// A raw CRC-32C update of `state` by `data[0, n)`, without the pre- and
/// post-inversion util/crc32.cc adds: the reflected-table loop's contract.
using Crc32cKernel = uint32_t (*)(uint32_t state, const unsigned char* data,
                                  size_t n);

#if SFQ_SIMD_HW_CRC32C
/// Eight bytes per crc32 instruction, then a byte tail.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cSse42(
    uint32_t state, const unsigned char* data, size_t n) {
  uint64_t wide = state;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    wide = _mm_crc32_u64(wide, word);
  }
  uint32_t narrow = static_cast<uint32_t>(wide);
  for (; n > 0; --n, ++data) narrow = _mm_crc32_u8(narrow, *data);
  return narrow;
}
#endif

/// The hardware CRC-32C kernel, or nullptr when the build
/// (STREAMFREQ_SIMD=OFF, non-x86) or the CPU has none.
inline Crc32cKernel HardwareCrc32c() {
#if SFQ_SIMD_HW_CRC32C
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return nullptr;
}

// -- the lane bundle ------------------------------------------------------

// util/crc32.cc, built without SIMD flags, never calls the lane math below
// (all callers are in streamfreq_hash), so GCC's AVX-512 ABI note is moot.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#if SFQ_SIMD_VECTOR_EXT

typedef uint64_t U64x8 __attribute__((vector_size(8 * sizeof(uint64_t))));
// Comparison results are a same-sized signed vector; used only as an
// all-ones/all-zeros mask and immediately recast to U64x8.
typedef int64_t I64x8 __attribute__((vector_size(8 * sizeof(int64_t))));

inline U64x8 Broadcast(uint64_t v) {
  return U64x8{v, v, v, v, v, v, v, v};
}

inline U64x8 LoadUnaligned(const uint64_t* p) {
  U64x8 out;
  std::memcpy(&out, p, sizeof(out));
  return out;
}

inline void StoreUnaligned(uint64_t* p, U64x8 v) {
  std::memcpy(p, &v, sizeof(v));
}

/// All-ones mask in lanes where a >= b (unsigned), zero elsewhere.
/// (Vector comparisons yield a same-sized signed vector; the C-style cast
/// is the blessed GCC/Clang idiom for the same-width reinterpret.)
inline U64x8 MaskGe(U64x8 a, U64x8 b) { return (U64x8)(a >= b); }

/// All-ones mask in lanes where a < b (unsigned), zero elsewhere.
inline U64x8 MaskLt(U64x8 a, U64x8 b) { return (U64x8)(a < b); }

inline uint64_t Lane(U64x8 v, size_t i) { return v[i]; }

#else  // portable struct-of-lanes fallback (non-GNU compilers)

struct U64x8 {
  uint64_t lane[8];

  friend U64x8 operator+(U64x8 a, U64x8 b) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend U64x8 operator-(U64x8 a, U64x8 b) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend U64x8 operator*(U64x8 a, U64x8 b) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend U64x8 operator&(U64x8 a, U64x8 b) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] & b.lane[i];
    return r;
  }
  friend U64x8 operator|(U64x8 a, U64x8 b) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] | b.lane[i];
    return r;
  }
  friend U64x8 operator>>(U64x8 a, int s) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] >> s;
    return r;
  }
  friend U64x8 operator<<(U64x8 a, int s) {
    U64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] << s;
    return r;
  }
};

inline U64x8 Broadcast(uint64_t v) {
  U64x8 r;
  for (int i = 0; i < 8; ++i) r.lane[i] = v;
  return r;
}

inline U64x8 LoadUnaligned(const uint64_t* p) {
  U64x8 r;
  std::memcpy(r.lane, p, sizeof(r.lane));
  return r;
}

inline void StoreUnaligned(uint64_t* p, U64x8 v) {
  std::memcpy(p, v.lane, sizeof(v.lane));
}

inline U64x8 MaskGe(U64x8 a, U64x8 b) {
  U64x8 r;
  for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] >= b.lane[i] ? ~0ULL : 0;
  return r;
}

inline U64x8 MaskLt(U64x8 a, U64x8 b) {
  U64x8 r;
  for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] < b.lane[i] ? ~0ULL : 0;
  return r;
}

inline uint64_t Lane(U64x8 v, size_t i) { return v.lane[i]; }

#endif  // SFQ_SIMD_VECTOR_EXT

// -- derived arithmetic (ISA-independent, exact) --------------------------

/// Full 64-bit product of the LOW 32-bit halves of each lane (the high
/// halves are ignored). This is the one multiply shape every x86 vector
/// ISA executes natively (vpmuludq, one uop); AVX-512DQ's full 64-bit
/// vpmullq is 3 uops on current cores, and GCC does not pattern-match the
/// masked-limb idiom back to vpmuludq on its own — hence the intrinsic.
inline U64x8 MulLo32(U64x8 a, U64x8 b) {
#if defined(__AVX512F__) && SFQ_SIMD_VECTOR_EXT
  return (U64x8)_mm512_mul_epu32((__m512i)a, (__m512i)b);
#else
  const U64x8 lo32 = Broadcast(0xFFFFFFFFULL);
  return (a & lo32) * (b & lo32);
#endif
}

/// The full 128-bit product a*b per lane, as (low 64, high 64) halves —
/// the vector twin of the scalar __int128 multiply in
/// bit_util::FastRange64 and CarterWegmanHash::Eval. The textbook
/// four-limb decomposition: each 32x32 partial is exact in 64 bits, the
/// carry lane `cross` cannot overflow (max 2^32-1 summands), and the low
/// half's `(lh + hl) << 32` wraps exactly as the product does mod 2^64.
struct U64x8Pair {
  U64x8 lo;
  U64x8 hi;
};

inline U64x8Pair Mul64Wide(U64x8 a, U64x8 b) {
  const U64x8 lo32 = Broadcast(0xFFFFFFFFULL);
  const U64x8 a_hi = a >> 32;
  const U64x8 b_hi = b >> 32;
  const U64x8 ll = MulLo32(a, b);
  const U64x8 lh = MulLo32(a, b_hi);
  const U64x8 hl = MulLo32(a_hi, b);
  const U64x8 hh = MulLo32(a_hi, b_hi);
  const U64x8 cross = (ll >> 32) + (lh & lo32) + (hl & lo32);
  return {ll + ((lh + hl) << 32),
          hh + (lh >> 32) + (hl >> 32) + (cross >> 32)};
}

/// High 64 bits of the full 128-bit product a*b, lane-wise.
inline U64x8 MulHi64(U64x8 a, U64x8 b) { return Mul64Wide(a, b).hi; }

/// Lane-wise FastRange64: maps a uniform 64-bit hash into [0, n) with the
/// same multiply-shift reduction as bit_util::FastRange64.
inline U64x8 FastRange64(U64x8 hash, U64x8 n) { return MulHi64(hash, n); }

/// Lane-wise conditional subtract: a - m where a >= m, else a.
inline U64x8 SubWhereGe(U64x8 a, U64x8 m) { return a - (m & MaskGe(a, m)); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace simd
}  // namespace streamfreq
