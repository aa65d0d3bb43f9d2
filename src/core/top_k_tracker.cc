#include "core/top_k_tracker.h"

namespace streamfreq {

Result<CountSketchTopK> CountSketchTopK::Make(
    const CountSketchParams& sketch_params, size_t tracked) {
  if (tracked == 0 || tracked > TrackedSet::kMaxCapacity) {
    return Status::InvalidArgument("CountSketchTopK: tracked must be in [1, 2^31)");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch sketch, CountSketch::Make(sketch_params));
  return CountSketchTopK(std::move(sketch), tracked);
}

CountSketchTopK::CountSketchTopK(CountSketch sketch, size_t tracked)
    : sketch_(std::move(sketch)), tracked_(tracked) {}

std::string CountSketchTopK::Name() const {
  return "CountSketchTopK(t=" + std::to_string(sketch_.depth()) +
         ",b=" + std::to_string(sketch_.width()) +
         ",l=" + std::to_string(tracked_.capacity()) + ")";
}

TrackerEvent CountSketchTopK::AddTracked(ItemId item, Count weight) {
  // Tracked item: count it exactly from here on (paper step 2, first arm).
  if (tracked_.AddIfTracked(item, weight)) {
    sketch_.Add(item, weight);
    return {};
  }
  // Untracked: one pass over the rows adds the arrival and reads the
  // estimate it is offered at.
  const TrackedSet::Admission admission =
      tracked_.TryAdmit(item, sketch_.AddAndEstimate(item, weight));
  return {admission.admitted, admission.evicted ? admission.victim : 0};
}

Count CountSketchTopK::Estimate(ItemId item) const {
  if (const auto tracked = tracked_.CountOf(item)) return *tracked;
  return sketch_.Estimate(item);
}

}  // namespace streamfreq
