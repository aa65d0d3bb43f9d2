// The COUNT SKETCH data structure (Charikar, Chen, Farach-Colton).
//
// A t x b array of counters with, per row i, a pairwise-independent bucket
// hash h_i : O -> [b] and an independent pairwise-independent sign hash
// s_i : O -> {+1, -1}:
//
//   Add(q, w):     for each row i,  C[i][h_i(q)] += w * s_i(q)
//   Estimate(q):   median_i { C[i][h_i(q)] * s_i(q) }
//
// Guarantees (paper Lemmas 1-5, Theorem 1): each row estimate is unbiased
// with variance bounded by the colliding mass; with t = Theta(log(n/delta))
// the median is within 8 * gamma of the true count for every prefix of the
// stream, where gamma = sqrt(F2^{>k} / b). Sketches built with the same
// parameters and seed are compatible and form a group under Merge/Subtract,
// which is what enables the two-pass max-change algorithm (Section 4.2).
//
// Add and Estimate never fail and never allocate; fallible operations
// (construction, merging, serialization) return Status/Result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/counter_matrix.h"
#include "hash/batch_hash.h"
#include "hash/pairwise.h"
#include "stream/types.h"
#include "util/result.h"

namespace streamfreq {

/// Which hash family backs the rows. The paper requires pairwise
/// independence, which kCarterWegman provides exactly; the others are
/// faster heuristic substitutes evaluated in the ablation bench (E11).
enum class HashFamily : uint8_t {
  kCarterWegman = 0,   ///< (a*x+b) mod (2^61-1): pairwise independent
  kMultiplyShift = 1,  ///< Dietzfelbinger multiply-shift: 2-universal
  kTabulation = 2,     ///< simple tabulation: 3-independent
};

/// How row estimates are combined. The paper argues for the median
/// (Section 3.2: the mean is destroyed by heavy-hitter collisions); the
/// mean is provided for the ablation.
enum class Estimator : uint8_t {
  kMedian = 0,
  kMean = 1,
};

/// Construction parameters.
struct CountSketchParams {
  size_t depth = 5;    ///< t: number of hash tables (rows)
  size_t width = 256;  ///< b: buckets (counters) per table
  uint64_t seed = 1;   ///< seeds all hash functions deterministically
  HashFamily family = HashFamily::kCarterWegman;
  Estimator estimator = Estimator::kMedian;
};

/// The Count-Sketch. Copyable; copies share no state.
class CountSketch {
 public:
  /// Validates parameters (depth and width must be positive) and builds a
  /// zeroed sketch with freshly seeded hash functions. IoError when the
  /// counter array cannot be allocated.
  static Result<CountSketch> Make(const CountSketchParams& params);

  /// ADD(C, q): processes `weight` occurrences of `item` (weight may be
  /// negative — turnstile model).
  void Add(ItemId item, Count weight = 1) noexcept;

  /// Batch ADD: processes `weight` occurrences of every item in `items`,
  /// with the final state exactly equal to item-at-a-time Add calls (the
  /// counters are a linear function of the multiset). Iterates row-major —
  /// one hash function and one cache-line-aligned counter stripe at a
  /// time — evaluating bucket and sign hashes 16 keys per iteration with
  /// the SIMD kernels in hash/batch_hash.h, then scattering the counter
  /// updates. The parallel ingestion fast path; bit-identical to the
  /// scalar path (tests/simd_equivalence_test.cc).
  void BatchAdd(std::span<const ItemId> items, Count weight = 1) noexcept;

  /// BatchAdd forced through the scalar reference kernels. The test and
  /// benchmark seam: simd_equivalence_test asserts BatchAdd == this ==
  /// an Add loop, and bench_throughput's scalar-baseline rows in
  /// BENCH_throughput.json are measured here.
  void BatchAddScalar(std::span<const ItemId> items,
                      Count weight = 1) noexcept;

  /// ESTIMATE(C, q): the median (or mean) over rows of C[i][h_i(q)]*s_i(q).
  /// Mean estimates round toward zero.
  Count Estimate(ItemId item) const noexcept;

  /// Add(item, weight), then Estimate(item), locating each row's bucket and
  /// sign once: counters and the returned estimate equal the two calls'.
  /// The tracker's path for an untracked arrival (CountSketchTopK). Like
  /// Estimate, it allocates only for sketches deeper than 64 rows.
  Count AddAndEstimate(ItemId item, Count weight = 1) noexcept;

  /// Estimate(item) on this − base, without building the difference: each
  /// row's counter minus base's (wrapping like Subtract), then Estimate's
  /// median or mean. Equal to copying this, Subtract(base) and Estimate.
  /// `base` must be CompatibleWith this sketch.
  Count EstimateDifference(ItemId item, const CountSketch& base) const noexcept;

  /// Counter-wise addition: this += other. Requires compatibility (same
  /// depth, width, seed, family); returns InvalidArgument otherwise.
  Status Merge(const CountSketch& other);

  /// Counter-wise subtraction: this -= other. After subtracting the sketch
  /// of S1 from the sketch of S2, Estimate(q) approximates
  /// n_q(S2) - n_q(S1) — the max-change primitive.
  Status Subtract(const CountSketch& other);

  /// True iff `other` was built with identical parameters and seed, i.e.
  /// shares hash functions and may be merged/subtracted.
  bool CompatibleWith(const CountSketch& other) const {
    return CompatibleWith(other.params_);
  }

  /// Serializes parameters + counters to `out` (appended), reserving
  /// exactly SerializedSize() more bytes first: AppendSerializedHeader,
  /// then every SerializedRow in order.
  void SerializeTo(std::string* out) const;

  /// SerializeTo's bytes in pieces, for writers that send the counters from
  /// where they live (sketch files, tenant snapshots): the 48-byte header
  /// appended to `out`, then one view per row.
  void AppendSerializedHeader(std::string* out) const;

  /// Row i's serialized bytes: a view of its `width` counters, padding
  /// skipped. Valid while the sketch is alive and unchanged.
  std::string_view SerializedRow(size_t row) const;

  /// Bytes SerializeTo appends: a 48-byte header plus depth·width counters.
  size_t SerializedSize() const;

  /// this += the sketch serialized in `data`, read straight from the bytes
  /// (no sketch is materialized). Corruption on exactly the inputs
  /// Deserialize rejects; InvalidArgument when `data` is well-formed but
  /// not CompatibleWith this sketch. Everything is checked before any
  /// counter changes, so a failed call leaves the sketch untouched.
  Status MergeSerialized(std::string_view data);

  /// Reconstructs a sketch serialized by SerializeTo: Make with the
  /// serialized parameters, then MergeSerialized. Returns Corruption on
  /// truncated or malformed input.
  static Result<CountSketch> Deserialize(std::string_view data);

  /// Resets all counters to zero (hash functions are kept).
  void Clear() noexcept;

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }
  uint64_t seed() const { return params_.seed; }
  const CountSketchParams& params() const { return params_; }

  /// Bytes held: the counter array plus hash-function parameters.
  size_t SpaceBytes() const;

  /// Raw counter access for tests and diagnostics.
  int64_t CounterAt(size_t row, size_t bucket) const {
    return counters_.At(row, bucket);
  }

 private:
  CountSketch(const CountSketchParams& params, CounterMatrix counters);

  /// CompatibleWith for a sketch described only by its parameters.
  bool CompatibleWith(const CountSketchParams& other) const;

  /// Row hash evaluation: bucket index and sign for `item` in row i.
  struct BucketSign {
    uint64_t bucket;
    int64_t sign;
  };
  BucketSign Locate(size_t row, ItemId item) const noexcept;

  /// Estimate's median or mean over the row estimates
  /// row_estimate(row, Locate(row, item)), one call per row in order.
  template <typename RowFn>
  Count CombineRows(ItemId item, RowFn row_estimate) const noexcept;

  /// Row-major batch update over one hash family's function vectors,
  /// through the selected batch-hash backend.
  template <typename HashT>
  void BatchAddRows(const std::vector<HashT>& bucket,
                    const std::vector<HashT>& sign,
                    std::span<const ItemId> items, Count weight,
                    batch_hash::Backend backend) noexcept;

  void BatchAddDispatch(std::span<const ItemId> items, Count weight,
                        batch_hash::Backend backend) noexcept;

  CountSketchParams params_;
  size_t depth_;
  size_t width_;
  // Per-row hash functions; only the family selected in params_ is
  // populated.
  std::vector<CarterWegmanHash> cw_bucket_, cw_sign_;
  std::vector<MultiplyShiftHash> ms_bucket_, ms_sign_;
  std::vector<TabulationHash> tab_bucket_, tab_sign_;
  // depth_ x width_ logical counters in a cache-line-aligned, padded
  // row-major layout (see counter_matrix.h); serialization stays in
  // logical row-major order, so the wire format is unchanged.
  CounterMatrix counters_;
};

}  // namespace streamfreq
