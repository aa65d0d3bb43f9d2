#include "hash/batch_hash.h"

#include "util/simd.h"

namespace streamfreq {
namespace batch_hash {
namespace {

using simd::Broadcast;
using simd::LoadUnaligned;
using simd::MaskLt;
using simd::StoreUnaligned;
using simd::U64x8;

/// Lane-wise CarterWegmanHash::Eval, operation-for-operation:
///   xr = x >= p ? x - p : x
///   v  = a * xr + b                      (full 128-bit product + carry)
///   ModMersenne61(v)                     (two shift-add folds + one
///                                         conditional subtract)
/// Each lane's arithmetic is the scalar arithmetic, so the result is
/// bit-identical to h.Eval(x) for every key.
// sfq-hot-path
inline U64x8 CwEval(U64x8 x, U64x8 a, U64x8 b, U64x8 p) {
  const U64x8 xr = simd::SubWhereGe(x, p);
  // One widening multiply yields both halves of a*xr from shared partial
  // products (4 vpmuludq on AVX-512 instead of 5 vpmullq).
  const simd::U64x8Pair prod = simd::Mul64Wide(a, xr);
  U64x8 hi_prod = prod.hi;
  const U64x8 lo = prod.lo + b;
  // 128-bit carry of the +b: lanes where lo wrapped below b.
  hi_prod = hi_prod - MaskLt(lo, b);  // mask is all-ones == -1 per lane
  const U64x8 lo61 = lo & p;
  const U64x8 hi61 = (lo >> 61) | (hi_prod << 3);  // low 64 of v >> 61
  U64x8 r = lo61 + hi61;                           // < 2^63
  r = (r & p) + (r >> 61);
  return simd::SubWhereGe(r, p);
}

/// Lane-wise MultiplyShiftHash::Mix: a*x + b mod 2^64.
// sfq-hot-path
inline U64x8 MsMix(U64x8 x, U64x8 a, U64x8 b) { return a * x + b; }

/// ±1 from bit `shift` of the lane-wise hash value: bit set -> +1, clear
/// -> -1 (matches CarterWegmanHash::Sign / MultiplyShiftHash::Sign).
// sfq-hot-path
inline U64x8 SignFromBit(U64x8 v, int shift) {
  const U64x8 bit = (v >> shift) & Broadcast(1);
  return (bit << 1) - Broadcast(1);  // 1 -> +1, 0 -> ~0 (== -1 as int64)
}

/// Stores a U64x8 of ±1 lanes into an int64_t output block.
// sfq-hot-path
inline void StoreSigns(int64_t* out, U64x8 s) {
  StoreUnaligned(reinterpret_cast<uint64_t*>(out), s);
}

/// Scalar reference loops. SFQ_SIMD_NO_AUTOVEC keeps the compiler from
/// auto-vectorizing them under this TU's -march flags: the kScalar
/// backend must measure (and replicate) the historical one-key-at-a-time
/// path, not an accidental second SIMD path. Also used for the sub-bundle
/// tails of the vectorized kernels.
// sfq-hot-path
template <typename HashT>
SFQ_SIMD_NO_AUTOVEC void ScalarBuckets(const HashT& h, const uint64_t* keys,
                                       size_t n, uint64_t range,
                                       uint64_t* out_bucket) {
  for (size_t i = 0; i < n; ++i) out_bucket[i] = h.Bucket(keys[i], range);
}

// sfq-hot-path
template <typename HashT>
SFQ_SIMD_NO_AUTOVEC void ScalarBucketsAndSigns(const HashT& hb,
                                               const HashT& hs,
                                               const uint64_t* keys, size_t n,
                                               uint64_t range,
                                               uint64_t* out_bucket,
                                               int64_t* out_sign) {
  for (size_t i = 0; i < n; ++i) {
    out_bucket[i] = hb.Bucket(keys[i], range);
    out_sign[i] = hs.Sign(keys[i]);
  }
}

}  // namespace

const char* BackendName() { return simd::kSimdBackend; }

// -- CarterWegman ----------------------------------------------------------

// sfq-hot-path
void Buckets(const CarterWegmanHash& h, std::span<const uint64_t> keys,
             uint64_t range, uint64_t* out_bucket, Backend backend) {
  const size_t n = keys.size();
  size_t i = 0;
  if (backend == Backend::kVectorized) {
    const U64x8 a = Broadcast(h.a());
    const U64x8 b = Broadcast(h.b());
    const U64x8 p = Broadcast(kMersenne61);
    const U64x8 r = Broadcast(range);
    for (; i + kBlock <= n; i += kBlock) {
      const U64x8 e0 = CwEval(LoadUnaligned(keys.data() + i), a, b, p);
      const U64x8 e1 =
          CwEval(LoadUnaligned(keys.data() + i + simd::kLanes), a, b, p);
      StoreUnaligned(out_bucket + i, simd::FastRange64(e0 << 3, r));
      StoreUnaligned(out_bucket + i + simd::kLanes,
                     simd::FastRange64(e1 << 3, r));
    }
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      const U64x8 e = CwEval(LoadUnaligned(keys.data() + i), a, b, p);
      StoreUnaligned(out_bucket + i, simd::FastRange64(e << 3, r));
    }
    simd::ZeroUpper();
  }
  ScalarBuckets(h, keys.data() + i, n - i, range, out_bucket + i);
}

// sfq-hot-path
void BucketsAndSigns(const CarterWegmanHash& hb, const CarterWegmanHash& hs,
                     std::span<const uint64_t> keys, uint64_t range,
                     uint64_t* out_bucket, int64_t* out_sign,
                     Backend backend) {
  const size_t n = keys.size();
  size_t i = 0;
  if (backend == Backend::kVectorized) {
    const U64x8 ab = Broadcast(hb.a());
    const U64x8 bb = Broadcast(hb.b());
    const U64x8 as = Broadcast(hs.a());
    const U64x8 bs = Broadcast(hs.b());
    const U64x8 p = Broadcast(kMersenne61);
    const U64x8 r = Broadcast(range);
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      const U64x8 x = LoadUnaligned(keys.data() + i);
      const U64x8 eb = CwEval(x, ab, bb, p);
      const U64x8 es = CwEval(x, as, bs, p);
      StoreUnaligned(out_bucket + i, simd::FastRange64(eb << 3, r));
      StoreSigns(out_sign + i, SignFromBit(es, 60));
    }
    simd::ZeroUpper();
  }
  ScalarBucketsAndSigns(hb, hs, keys.data() + i, n - i, range, out_bucket + i,
                        out_sign + i);
}

// -- MultiplyShift ---------------------------------------------------------

// sfq-hot-path
void Buckets(const MultiplyShiftHash& h, std::span<const uint64_t> keys,
             uint64_t range, uint64_t* out_bucket, Backend backend) {
  const size_t n = keys.size();
  size_t i = 0;
  if (backend == Backend::kVectorized) {
    const U64x8 a = Broadcast(h.a());
    const U64x8 b = Broadcast(h.b());
    const U64x8 r = Broadcast(range);
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      const U64x8 mix = MsMix(LoadUnaligned(keys.data() + i), a, b);
      StoreUnaligned(out_bucket + i, simd::FastRange64(mix, r));
    }
    simd::ZeroUpper();
  }
  ScalarBuckets(h, keys.data() + i, n - i, range, out_bucket + i);
}

// sfq-hot-path
void BucketsAndSigns(const MultiplyShiftHash& hb, const MultiplyShiftHash& hs,
                     std::span<const uint64_t> keys, uint64_t range,
                     uint64_t* out_bucket, int64_t* out_sign,
                     Backend backend) {
  const size_t n = keys.size();
  size_t i = 0;
  if (backend == Backend::kVectorized) {
    const U64x8 ab = Broadcast(hb.a());
    const U64x8 bb = Broadcast(hb.b());
    const U64x8 as = Broadcast(hs.a());
    const U64x8 bs = Broadcast(hs.b());
    const U64x8 r = Broadcast(range);
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      const U64x8 x = LoadUnaligned(keys.data() + i);
      StoreUnaligned(out_bucket + i, simd::FastRange64(MsMix(x, ab, bb), r));
      StoreSigns(out_sign + i, SignFromBit(MsMix(x, as, bs), 63));
    }
    simd::ZeroUpper();
  }
  ScalarBucketsAndSigns(hb, hs, keys.data() + i, n - i, range, out_bucket + i,
                        out_sign + i);
}

// -- Tabulation (scalar on every backend; see header) ----------------------

// sfq-hot-path
void Buckets(const TabulationHash& h, std::span<const uint64_t> keys,
             uint64_t range, uint64_t* out_bucket, Backend /*backend*/) {
  ScalarBuckets(h, keys.data(), keys.size(), range, out_bucket);
}

// sfq-hot-path
void BucketsAndSigns(const TabulationHash& hb, const TabulationHash& hs,
                     std::span<const uint64_t> keys, uint64_t range,
                     uint64_t* out_bucket, int64_t* out_sign,
                     Backend /*backend*/) {
  ScalarBucketsAndSigns(hb, hs, keys.data(), keys.size(), range, out_bucket,
                        out_sign);
}

}  // namespace batch_hash
}  // namespace streamfreq
