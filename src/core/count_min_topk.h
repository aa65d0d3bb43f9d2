// Count-Min + tracked top-l set: the Count-Min analogue of the paper's
// Section 3.2 algorithm, used as the sketch-vs-sketch comparator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/count_min.h"
#include "core/frequent.h"
#include "core/tracked_set.h"
#include "util/result.h"

namespace streamfreq {

/// Count-Min sketch with heap-based candidate tracking.
class CountMinTopK final : public StreamSummary {
 public:
  /// Builds the algorithm over a Count-Min with `sketch_params`, tracking
  /// `tracked` candidates.
  static Result<CountMinTopK> Make(const CountMinParams& sketch_params,
                                   size_t tracked);

  std::string Name() const override;

  void Add(ItemId item, Count weight) override;
  using StreamSummary::Add;

  /// Tracked count for tracked items, sketch upper bound otherwise.
  Count Estimate(ItemId item) const override;

  std::vector<ItemCount> Candidates(size_t k) const override {
    return tracked_.Top(k);
  }

  const CountMin& sketch() const { return sketch_; }
  size_t SpaceBytes() const override {
    return sketch_.SpaceBytes() + tracked_.SpaceBytes();
  }

 private:
  CountMinTopK(CountMin sketch, size_t tracked);

  CountMin sketch_;
  TrackedSet tracked_;
};

}  // namespace streamfreq
