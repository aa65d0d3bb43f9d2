// The paper's 1-pass ApproxTop algorithm (Section 3.2): a Count-Sketch plus
// a bounded set ("heap") of the l items with the largest estimated counts.
//
// For each arrival q:
//   1. ADD(C, q)
//   2. if q is tracked, increment its tracked count; otherwise, if
//      ESTIMATE(C, q) exceeds the smallest tracked count, evict that
//      minimum and start tracking q.
//
// With b chosen per Lemma 5 this solves ApproxTop(S, k, eps): every output
// item has n_i >= (1 - eps) n_k, and every item with n_i >= (1 + eps) n_k
// is output. Tracking l > k items (l = k/(1-eps)^{1/z} for Zipf(z), Section
// 4.1) upgrades the answer to CandidateTop(S, k, l). Total space O(t*b + l).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "core/frequent.h"
#include "core/tracked_set.h"
#include "util/result.h"

namespace streamfreq {

/// What Add() did to the tracked set — lets callers (e.g. the typed
/// adapter) maintain satellite data for exactly the tracked items.
struct TrackerEvent {
  /// True when `item` entered the tracked set on this arrival.
  bool inserted = false;
  /// When an insertion evicted another item, the evicted id (else 0, so
  /// the eviction of item 0 reads as none).
  ItemId evicted = 0;
};

/// Count-Sketch + top-l tracking: the paper's complete 1-pass algorithm.
class CountSketchTopK final : public StreamSummary {
 public:
  /// Builds the algorithm: a Count-Sketch with `sketch_params` and a
  /// tracked set of `tracked` items (the paper's heap of size l >= k).
  static Result<CountSketchTopK> Make(const CountSketchParams& sketch_params,
                                      size_t tracked);

  std::string Name() const override;

  /// Processes one arrival; returns what happened to the tracked set.
  TrackerEvent AddTracked(ItemId item, Count weight = 1);

  void Add(ItemId item, Count weight) override { AddTracked(item, weight); }
  using StreamSummary::Add;

  /// Sketch estimate for arbitrary items; tracked items report their
  /// tracked count (sketch estimate at insertion + exact increments since).
  Count Estimate(ItemId item) const override;

  /// The tracked items in RankByCount order (at most min(k, l)).
  std::vector<ItemCount> Candidates(size_t k) const override {
    return tracked_.Top(k);
  }

  /// True iff `item` is currently tracked.
  bool IsTracked(ItemId item) const { return tracked_.Contains(item); }

  const CountSketch& sketch() const { return sketch_; }
  size_t tracked_capacity() const { return tracked_.capacity(); }
  size_t SpaceBytes() const override {
    return sketch_.SpaceBytes() + tracked_.SpaceBytes();  // O(t*b + l)
  }

 private:
  CountSketchTopK(CountSketch sketch, size_t tracked);

  CountSketch sketch_;
  TrackedSet tracked_;
};

}  // namespace streamfreq
