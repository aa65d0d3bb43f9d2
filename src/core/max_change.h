// The 2-pass max-change algorithm (paper Section 4.2).
//
// Given streams S1 and S2, find the items maximizing |n_q(S2) - n_q(S1)|.
// Pass 1 builds a single Count-Sketch of the difference: each S1 arrival
// subtracts (h_i[q] -= s_i[q]), each S2 arrival adds. Pass 2 re-reads both
// streams; for each arrival q it computes nhat_q = ESTIMATE on the frozen
// difference sketch and maintains the set A of the l items with the largest
// |nhat_q|, keeping exact per-stream counts for members of A. Because the
// sketch is frozen in pass 2, an item's |nhat| is fixed, the admission
// threshold only rises, and an item can only be admitted at its first
// pass-2 occurrence — so exact counts for members are complete, as the
// paper observes ("once an item is removed it is never added back").
//
// Finally the k items with the largest exact |n_q(S2) - n_q(S1)| among A
// are reported. Lemma 5 applies verbatim with n_q replaced by the change
// magnitudes Delta_q.
//
// RankByEstimate and EpochMaxChange are the one-pass forms the served
// tenants, the merge tree and the aggregate root use: a candidate slate is
// scored on a sketch (or on current - marked, by the group structure) and
// the best k are kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/count_sketch.h"
#include "core/tracked_set.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/result.h"

namespace streamfreq {

/// One reported change.
struct ChangeResult {
  ItemId item;
  Count count_s1;  ///< exact occurrences in S1 (over pass 2)
  Count count_s2;  ///< exact occurrences in S2 (over pass 2)

  /// The change n_q(S2) - n_q(S1).
  Count Delta() const { return count_s2 - count_s1; }
  Count AbsDelta() const { return Delta() < 0 ? -Delta() : Delta(); }
};

/// Two-pass max-change detector.
class MaxChangeDetector {
 public:
  /// Creates a detector whose candidate set holds `tracked` items (the
  /// paper's l) over a difference sketch with `sketch_params`.
  static Result<MaxChangeDetector> Make(const CountSketchParams& sketch_params,
                                        size_t tracked);

  /// Pass 1 update for an S1 arrival: sketch -= q.
  void ObserveS1(ItemId item, Count weight = 1) { sketch_.Add(item, -weight); }

  /// Pass 1 update for an S2 arrival: sketch += q.
  void ObserveS2(ItemId item, Count weight = 1) { sketch_.Add(item, weight); }

  /// Freezes the sketch; must be called between the passes (SecondPass
  /// aborts in debug builds when pass 1 is still open).
  void FinishFirstPass() { first_pass_done_ = true; }

  /// Pass 2 arrival from S1 (stream = 1) or S2 (stream = 2).
  void SecondPass(int stream, ItemId item);

  /// The k members of A with the largest exact |Delta|, descending.
  std::vector<ChangeResult> TopChanges(size_t k) const;

  /// Convenience driver: runs both passes over materialized streams and
  /// returns TopChanges(k).
  static Result<std::vector<ChangeResult>> Run(
      const CountSketchParams& sketch_params, size_t tracked, const Stream& s1,
      const Stream& s2, size_t k);

  /// The frozen difference sketch (valid after FinishFirstPass).
  const CountSketch& difference_sketch() const { return sketch_; }

  size_t SpaceBytes() const;

 private:
  MaxChangeDetector(CountSketch sketch, size_t tracked);

  struct StreamCounts {
    Count s1 = 0;
    Count s2 = 0;
  };

  CountSketch sketch_;
  bool first_pass_done_ = false;
  TrackedSet members_;  // A, each member at its fixed |nhat|
  std::unordered_map<ItemId, StreamCounts> counts_;  // members of A only
};

/// Scores each candidate on `score` and returns the k with the largest
/// estimate (the largest |estimate| when `absolute`), descending. The sort
/// is stable on that key alone, so ties keep the candidates' input order.
std::vector<ItemCount> RankByEstimate(std::span<const ItemId> candidates,
                                      const CountSketch& score, size_t k,
                                      bool absolute);

/// Ranks the candidates by |estimate| on current - *marked, or on `current`
/// itself when `marked` is null. current - *marked is never materialized:
/// each candidate is scored with CountSketch::EstimateDifference. Fails
/// when the sketches are incompatible.
Result<std::vector<ItemCount>> EpochMaxChange(
    const CountSketch& current, const CountSketch* marked,
    std::span<const ItemId> candidates, size_t k);

}  // namespace streamfreq
