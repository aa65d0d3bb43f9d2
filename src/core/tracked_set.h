// The paper's bounded "heap" of tracked candidates (Section 3.2): at most l
// (item, count) pairs. CountSketchTopK and CountMinTopK track sketch
// estimates in it; MaxChangeDetector tracks the fixed |nhat| of its second
// pass (the paper's set A).
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/types.h"

namespace streamfreq {

/// At most `capacity` (item, count) pairs with O(log l) min eviction.
class TrackedSet {
 public:
  /// What TryAdmit() did with its item.
  struct Admission {
    bool admitted = false;  ///< the item is tracked from now on
    bool evicted = false;   ///< admitting it pushed `victim` out
    ItemId victim = 0;      ///< meaningful only when `evicted`
  };

  /// What SpaceBytes() charges per tracked pair: one hash-map entry (key,
  /// count, next pointer) plus one ordered-index node (the pair and three
  /// tree links). Budget arithmetic elsewhere uses the same figure.
  static constexpr size_t kBytesPerPair =
      (sizeof(ItemId) + sizeof(Count) + sizeof(void*)) +
      (sizeof(std::pair<Count, ItemId>) + 3 * sizeof(void*));

  /// An empty set of at most `capacity` (> 0) pairs.
  explicit TrackedSet(size_t capacity);

  size_t capacity() const { return capacity_; }
  bool Contains(ItemId item) const { return counts_.contains(item); }

  /// The tracked count of `item`, or nullopt when it is not tracked.
  std::optional<Count> CountOf(ItemId item) const;

  /// Adds `weight` to a tracked item's count; false when it is untracked.
  bool AddIfTracked(ItemId item, Count weight);

  /// Offers an untracked `item` at `count`. It is admitted while there is
  /// room, or when `count` is strictly greater than the smallest
  /// (count, id) pair, which it then evicts.
  Admission TryAdmit(ItemId item, Count count);

  /// The tracked pairs in RankByCount order, at most k.
  std::vector<ItemCount> Top(size_t k) const;

  /// kBytesPerPair for every tracked pair.
  size_t SpaceBytes() const { return counts_.size() * kBytesPerPair; }

 private:
  size_t capacity_;
  std::unordered_map<ItemId, Count> counts_;
  std::set<std::pair<Count, ItemId>> by_count_;  // smallest pair first
};

}  // namespace streamfreq
