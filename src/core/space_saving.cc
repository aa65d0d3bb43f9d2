#include "core/space_saving.h"

#include <algorithm>

#include "util/logging.h"

namespace streamfreq {

Result<SpaceSaving> SpaceSaving::Make(size_t capacity) {
  if (capacity == 0) {
    return Status::InvalidArgument("SpaceSaving: capacity must be positive");
  }
  return SpaceSaving(capacity);
}

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  heap_.reserve(capacity);
  position_.reserve(capacity);
}

std::string SpaceSaving::Name() const {
  return "SpaceSaving(c=" + std::to_string(capacity_) + ")";
}

void SpaceSaving::SwapSlots(size_t i, size_t j) {
  std::swap(heap_[i], heap_[j]);
  position_[heap_[i].item] = i;
  position_[heap_[j].item] = j;
}

void SpaceSaving::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t smallest = i;
    const size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < n && heap_[l].count < heap_[smallest].count) smallest = l;
    if (r < n && heap_[r].count < heap_[smallest].count) smallest = r;
    if (smallest == i) return;
    SwapSlots(i, smallest);
    i = smallest;
  }
}

void SpaceSaving::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (heap_[parent].count <= heap_[i].count) return;
    SwapSlots(i, parent);
    i = parent;
  }
}

void SpaceSaving::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  auto it = position_.find(item);
  if (it != position_.end()) {
    heap_[it->second].count += weight;
    SiftDown(it->second);
    return;
  }
  if (heap_.size() < capacity_) {
    heap_.push_back({item, weight, 0});
    position_[item] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
    return;
  }
  // Replace the minimum: the newcomer inherits its count as error bound.
  Slot& root = heap_[0];
  position_.erase(root.item);
  const Count min_count = root.count;
  root = {item, min_count + weight, min_count};
  position_[item] = 0;
  SiftDown(0);
}

void SpaceSaving::BatchAdd(std::span<const ItemId> items) {
  std::unordered_map<ItemId, Count> aggregated;
  aggregated.reserve(std::min(items.size(), size_t{4} * capacity_));
  for (const ItemId q : items) ++aggregated[q];
  for (const auto& [item, weight] : aggregated) Add(item, weight);
}

Count SpaceSaving::Estimate(ItemId item) const {
  auto it = position_.find(item);
  if (it != position_.end()) return heap_[it->second].count;
  return MinCount();
}

Count SpaceSaving::ErrorOf(ItemId item) const {
  auto it = position_.find(item);
  return it == position_.end() ? 0 : heap_[it->second].error;
}

Count SpaceSaving::MinCount() const {
  return heap_.size() < capacity_ || heap_.empty() ? 0 : heap_[0].count;
}

Status SpaceSaving::Merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    return Status::InvalidArgument("SpaceSaving::Merge: capacities must match");
  }
  const Count min1 = MinCount();
  const Count min2 = other.MinCount();

  std::unordered_map<ItemId, Slot> merged;
  merged.reserve(heap_.size() + other.heap_.size());
  for (const Slot& s : heap_) {
    merged[s.item] = {s.item, s.count + min2, s.error + min2};
  }
  for (const Slot& s : other.heap_) {
    auto it = merged.find(s.item);
    if (it != merged.end()) {
      // Monitored on both sides: replace the min2 placeholder with the
      // other side's actual bounds.
      it->second.count += s.count - min2;
      it->second.error += s.error - min2;
    } else {
      merged[s.item] = {s.item, s.count + min1, s.error + min1};
    }
  }

  std::vector<Slot> slots;
  slots.reserve(merged.size());
  for (const auto& [item, slot] : merged) slots.push_back(slot);
  slots = RankByCount(std::move(slots), capacity_);

  heap_.clear();
  position_.clear();
  for (const Slot& s : slots) {
    heap_.push_back(s);
    position_[s.item] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }
  return Status::OK();
}

std::vector<ItemCount> SpaceSaving::Candidates(size_t k) const {
  std::vector<ItemCount> out;
  out.reserve(heap_.size());
  for (const Slot& s : heap_) out.push_back({s.item, s.count});
  return RankByCount(std::move(out), k);
}

std::vector<ItemCount> SpaceSaving::GuaranteedAtLeast(Count threshold) const {
  std::vector<ItemCount> out;
  for (const Slot& s : heap_) {
    if (s.count - s.error >= threshold) out.push_back({s.item, s.count});
  }
  return RankByCount(std::move(out));
}

void SpaceSaving::AppendItems(std::vector<ItemId>* out) const {
  for (const Slot& s : heap_) out->push_back(s.item);
}

std::vector<SpaceSavingEntry> SpaceSaving::Entries() const {
  std::vector<SpaceSavingEntry> out;
  out.reserve(heap_.size());
  for (const Slot& s : heap_) out.push_back({s.item, s.count, s.error});
  return out;
}

Result<SpaceSaving> SpaceSaving::FromEntries(
    size_t capacity, std::span<const SpaceSavingEntry> entries) {
  STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving summary, Make(capacity));
  if (entries.size() > capacity) {
    return Status::InvalidArgument(
        "SpaceSaving::FromEntries: more entries than capacity");
  }
  for (const SpaceSavingEntry& e : entries) {
    if (e.count == 0) {
      return Status::InvalidArgument(
          "SpaceSaving::FromEntries: zero-count entry");
    }
    if (e.count < e.error) {
      return Status::InvalidArgument(
          "SpaceSaving::FromEntries: count below error bound");
    }
    if (summary.position_.count(e.item) != 0) {
      return Status::InvalidArgument(
          "SpaceSaving::FromEntries: duplicate item");
    }
    summary.heap_.push_back({e.item, e.count, e.error});
    summary.position_[e.item] = summary.heap_.size() - 1;
    summary.SiftUp(summary.heap_.size() - 1);
  }
  return summary;
}

size_t SpaceSaving::SpaceBytes() const {
  return heap_.size() * sizeof(Slot) +
         position_.size() * (sizeof(ItemId) + sizeof(size_t) + sizeof(void*));
}

}  // namespace streamfreq
