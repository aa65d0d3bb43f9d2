#include "core/tracked_set.h"

#include "core/frequent.h"
#include "util/logging.h"

namespace streamfreq {

TrackedSet::TrackedSet(size_t capacity) : capacity_(capacity) {
  SFQ_DCHECK(capacity > 0);
  counts_.reserve(capacity);
}

std::optional<Count> TrackedSet::CountOf(ItemId item) const {
  auto it = counts_.find(item);
  if (it == counts_.end()) return std::nullopt;
  return it->second;
}

bool TrackedSet::AddIfTracked(ItemId item, Count weight) {
  auto it = counts_.find(item);
  if (it == counts_.end()) return false;
  by_count_.erase({it->second, item});
  it->second += weight;
  by_count_.insert({it->second, item});
  return true;
}

TrackedSet::Admission TrackedSet::TryAdmit(ItemId item, Count count) {
  SFQ_DCHECK(!Contains(item));
  Admission admission;
  if (counts_.size() == capacity_) {
    const auto min_it = by_count_.begin();
    if (count <= min_it->first) return admission;
    admission.evicted = true;
    admission.victim = min_it->second;
    counts_.erase(min_it->second);
    by_count_.erase(min_it);
  }
  counts_.emplace(item, count);
  by_count_.insert({count, item});
  admission.admitted = true;
  return admission;
}

std::vector<ItemCount> TrackedSet::Top(size_t k) const {
  std::vector<ItemCount> out;
  out.reserve(by_count_.size());
  for (const auto& [count, item] : by_count_) out.push_back({item, count});
  return RankByCount(std::move(out), k);
}

}  // namespace streamfreq
