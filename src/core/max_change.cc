#include "core/max_change.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace streamfreq {

Result<MaxChangeDetector> MaxChangeDetector::Make(
    const CountSketchParams& sketch_params, size_t tracked) {
  if (tracked == 0 || tracked > TrackedSet::kMaxCapacity) {
    return Status::InvalidArgument("MaxChangeDetector: tracked must be in [1, 2^31)");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch sketch, CountSketch::Make(sketch_params));
  return MaxChangeDetector(std::move(sketch), tracked);
}

MaxChangeDetector::MaxChangeDetector(CountSketch sketch, size_t tracked)
    : sketch_(std::move(sketch)), members_(tracked) {
  counts_.reserve(tracked);
}

void MaxChangeDetector::SecondPass(int stream, ItemId item) {
  SFQ_DCHECK(first_pass_done_);
  SFQ_DCHECK(stream == 1 || stream == 2);
  auto it = counts_.find(item);
  if (it == counts_.end()) {
    const Count est = sketch_.Estimate(item);
    const TrackedSet::Admission admission =
        members_.TryAdmit(item, est < 0 ? -est : est);
    if (!admission.admitted) return;  // below threshold: not tracked
    if (admission.evicted) counts_.erase(admission.victim);
    it = counts_.emplace(item, StreamCounts{}).first;
  }
  ++(stream == 1 ? it->second.s1 : it->second.s2);
}

std::vector<ChangeResult> MaxChangeDetector::TopChanges(size_t k) const {
  std::vector<ChangeResult> out;
  out.reserve(counts_.size());
  for (const auto& [id, c] : counts_) out.push_back({id, c.s1, c.s2});
  std::sort(out.begin(), out.end(), [](const ChangeResult& a, const ChangeResult& b) {
    if (a.AbsDelta() != b.AbsDelta()) return a.AbsDelta() > b.AbsDelta();
    return a.item < b.item;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

Result<std::vector<ChangeResult>> MaxChangeDetector::Run(
    const CountSketchParams& sketch_params, size_t tracked, const Stream& s1,
    const Stream& s2, size_t k) {
  STREAMFREQ_ASSIGN_OR_RETURN(MaxChangeDetector det, Make(sketch_params, tracked));
  for (ItemId q : s1) det.ObserveS1(q);
  for (ItemId q : s2) det.ObserveS2(q);
  det.FinishFirstPass();
  for (ItemId q : s1) det.SecondPass(1, q);
  for (ItemId q : s2) det.SecondPass(2, q);
  return det.TopChanges(k);
}

size_t MaxChangeDetector::SpaceBytes() const {
  const size_t per_counts =
      sizeof(ItemId) + sizeof(StreamCounts) + sizeof(void*);  // map entry
  return sketch_.SpaceBytes() + members_.SpaceBytes() +
         counts_.size() * per_counts;
}

namespace {

// Scores each candidate with `estimate` and keeps the k best by `absolute`
// or signed estimate; the sort is stable on that key alone.
template <typename EstimateFn>
std::vector<ItemCount> RankBy(std::span<const ItemId> candidates, size_t k,
                              bool absolute, EstimateFn estimate) {
  std::vector<ItemCount> out;
  out.reserve(candidates.size());
  for (ItemId id : candidates) out.push_back({id, estimate(id)});
  const auto key = [absolute](const ItemCount& c) {
    return absolute ? std::llabs(c.count) : c.count;
  };
  std::stable_sort(out.begin(), out.end(),
                   [&key](const ItemCount& a, const ItemCount& b) {
                     return key(a) > key(b);
                   });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace

std::vector<ItemCount> RankByEstimate(std::span<const ItemId> candidates,
                                      const CountSketch& score, size_t k,
                                      bool absolute) {
  return RankBy(candidates, k, absolute,
                [&score](ItemId id) { return score.Estimate(id); });
}

Result<std::vector<ItemCount>> EpochMaxChange(
    const CountSketch& current, const CountSketch* marked,
    std::span<const ItemId> candidates, size_t k) {
  if (marked == nullptr) {
    return RankByEstimate(candidates, current, k, /*absolute=*/true);
  }
  if (!current.CompatibleWith(*marked)) {
    return Status::InvalidArgument(
        "EpochMaxChange: incompatible sketches (parameters or seed differ)");
  }
  // Scored on current - marked row by row: no difference sketch is built.
  return RankBy(candidates, k, /*absolute=*/true, [&](ItemId id) {
    return current.EstimateDifference(id, *marked);
  });
}

}  // namespace streamfreq
