#include "core/count_min_topk.h"

namespace streamfreq {

Result<CountMinTopK> CountMinTopK::Make(const CountMinParams& sketch_params,
                                        size_t tracked) {
  if (tracked == 0 || tracked > TrackedSet::kMaxCapacity) {
    return Status::InvalidArgument("CountMinTopK: tracked must be in [1, 2^31)");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountMin sketch, CountMin::Make(sketch_params));
  return CountMinTopK(std::move(sketch), tracked);
}

CountMinTopK::CountMinTopK(CountMin sketch, size_t tracked)
    : sketch_(std::move(sketch)), tracked_(tracked) {}

std::string CountMinTopK::Name() const {
  return std::string("CountMinTopK(") +
         (sketch_.conservative() ? "CU," : "") +
         "d=" + std::to_string(sketch_.depth()) +
         ",w=" + std::to_string(sketch_.width()) +
         ",l=" + std::to_string(tracked_.capacity()) + ")";
}

void CountMinTopK::Add(ItemId item, Count weight) {
  sketch_.Add(item, weight);
  if (tracked_.AddIfTracked(item, weight)) return;
  tracked_.TryAdmit(item, sketch_.Estimate(item));
}

Count CountMinTopK::Estimate(ItemId item) const {
  if (const auto tracked = tracked_.CountOf(item)) return *tracked;
  return sketch_.Estimate(item);
}

}  // namespace streamfreq
