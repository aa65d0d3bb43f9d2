// Count-Min sketch (Cormode & Muthukrishnan), the standard sketch
// competitor to Count-Sketch in the frequent-items literature.
//
//   Add(q, w):   for each row i, C[i][h_i(q)] += w
//   Estimate(q): min_i C[i][h_i(q)]
//
// Estimates are one-sided overestimates: true <= est <= true + eps*n with
// probability 1-delta for width e/eps and depth ln(1/delta), assuming
// non-negative updates (cash-register model). The conservative-update
// variant only raises the counters that are at the current minimum, which
// tightens estimates at no extra space (evaluated in the ablation bench).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/counter_matrix.h"
#include "core/frequent.h"
#include "hash/batch_hash.h"
#include "hash/pairwise.h"
#include "util/result.h"

namespace streamfreq {

/// Construction parameters for CountMin.
struct CountMinParams {
  size_t depth = 4;
  size_t width = 256;
  uint64_t seed = 1;
  /// Conservative update: increment only the minimal counters.
  bool conservative = false;
};

/// The Count-Min sketch. Point-query estimates are upper bounds.
class CountMin {
 public:
  /// Validates parameters and builds a zeroed sketch; IoError when the
  /// counter array cannot be allocated.
  static Result<CountMin> Make(const CountMinParams& params);

  /// Processes `weight` occurrences. Weight must be non-negative; the
  /// min-estimator's guarantee does not survive deletions (checked in
  /// debug builds only — hot path).
  void Add(ItemId item, Count weight = 1) noexcept;

  /// Batch Add: `weight` occurrences of every item in `items`. For the
  /// plain sketch the update is row-major (hash constants and one
  /// cache-line-aligned counter stripe at a time), bucket hashes evaluated
  /// 16 keys per iteration by the SIMD kernels in hash/batch_hash.h, and
  /// the final state is exactly the item-at-a-time state; the
  /// conservative-update variant is order-dependent and falls back to
  /// per-item Add in stream order.
  void BatchAdd(std::span<const ItemId> items, Count weight = 1) noexcept;

  /// BatchAdd forced through the scalar reference kernels — the baseline
  /// side of simd_equivalence_test and of the scalar-baseline rows in
  /// BENCH_throughput.json.
  void BatchAddScalar(std::span<const ItemId> items,
                      Count weight = 1) noexcept;

  /// min over rows of the item's counter: an overestimate of the count.
  Count Estimate(ItemId item) const noexcept;

  /// Counter-wise addition of a compatible sketch.
  Status Merge(const CountMin& other);

  bool CompatibleWith(const CountMin& other) const;

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }
  bool conservative() const { return params_.conservative; }

  /// Raw counter at (row, bucket). The merge-tree property test compares
  /// counter states cell by cell to prove tree-shape independence.
  int64_t CounterAt(size_t row, size_t bucket) const noexcept {
    return counters_.At(row, bucket);
  }

  /// Bytes held (counters + hash parameters).
  size_t SpaceBytes() const;

 private:
  CountMin(const CountMinParams& params, CounterMatrix counters);

  void BatchAddDispatch(std::span<const ItemId> items, Count weight,
                        batch_hash::Backend backend) noexcept;

  CountMinParams params_;
  size_t depth_;
  size_t width_;
  std::vector<CarterWegmanHash> hashes_;
  // depth_ x width_ counters, cache-line aligned and stride-padded (see
  // counter_matrix.h).
  CounterMatrix counters_;
};

}  // namespace streamfreq
