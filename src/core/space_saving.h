// Space-Saving (Metwally, Agrawal, El Abbadi 2005): the strongest
// counter-based competitor in the frequent-items literature.
//
// Maintains exactly `capacity` (item, count, error) triples. A monitored
// arrival increments its count. An unmonitored arrival replaces the
// minimum-count entry: the newcomer inherits count min+w with error = min.
// Guarantees, with c = capacity:
//   * count overestimates: n_q <= count(q) <= n_q + min_count,
//   * every item with n_q > n/c is monitored, and
//   * min_count <= n / c.
// Implemented over a binary min-heap with an item -> heap-slot index so
// increment and replace are O(log c); a doubly-linked "stream summary"
// yields O(1) for unit updates but the heap supports weighted updates
// uniformly (throughput difference is measured in E7).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/frequent.h"
#include "util/result.h"

namespace streamfreq {

/// One monitored (item, count, error) triple, as exposed by Entries() and
/// consumed by FromEntries(). Serializing these — rather than replaying the
/// items as weighted Adds — preserves the error bounds, so GuaranteedAtLeast
/// keeps its lower-bound meaning across a save/restore cycle.
struct SpaceSavingEntry {
  ItemId item;
  Count count;
  Count error;
};

/// Space-Saving summary.
class SpaceSaving final : public StreamSummary {
 public:
  /// Creates a summary with exactly `capacity` counters (capacity >= 1).
  /// For the frequency threshold guarantee phi, use capacity = ceil(1/phi).
  static Result<SpaceSaving> Make(size_t capacity);

  std::string Name() const override;

  /// Weighted arrival; weight must be >= 1. O(log capacity).
  void Add(ItemId item, Count weight) override;
  using StreamSummary::Add;

  /// Batch arrival: aggregates duplicate items locally, then applies one
  /// weighted Add per distinct item. On skewed batches this collapses most
  /// heap operations into a handful of weighted updates. Equivalent to a
  /// reordered ingest of the batch, so all Space-Saving guarantees hold
  /// (they are order-independent), but the summary state may differ from
  /// item-at-a-time ingestion.
  void BatchAdd(std::span<const ItemId> items) override;

  /// Upper-bound estimate: the count when monitored, else the minimum count
  /// (the tightest upper bound Space-Saving can certify for any item).
  Count Estimate(ItemId item) const override;

  /// Monitored items by descending count.
  std::vector<ItemCount> Candidates(size_t k) const override;

  /// Guaranteed-frequent items: monitored entries whose count - error
  /// (a lower bound on the true count) is at least `threshold`.
  std::vector<ItemCount> GuaranteedAtLeast(Count threshold) const;

  /// The overestimation bound of `item` (0 when unmonitored): the count it
  /// inherited when it displaced another entry.
  Count ErrorOf(ItemId item) const;

  /// The smallest monitored count (0 while slots remain free).
  Count MinCount() const;

  /// Merges another Space-Saving summary over a disjoint stream
  /// (mergeable-summaries construction): for every item monitored by
  /// either side, the merged count/error add the other side's value when
  /// monitored there, else its MinCount (the tightest upper bound it can
  /// certify); the top `capacity` entries by count are kept. The merged
  /// counts remain upper bounds on union counts and count - error remains
  /// a lower bound. Requires equal capacities.
  Status Merge(const SpaceSaving& other);

  /// Appends every monitored item to `out`, in unspecified order (heap
  /// order): the candidate set without a ranking or a count per item.
  void AppendItems(std::vector<ItemId>* out) const;

  /// Every monitored triple in unspecified order (heap order). Pair with
  /// FromEntries for exact state round-trips (persistence, snapshots).
  std::vector<SpaceSavingEntry> Entries() const;

  /// Rebuilds a summary from previously captured Entries(). Rejects
  /// duplicates, more entries than `capacity`, zero counts, and
  /// count < error (each would silently corrupt the guarantees).
  static Result<SpaceSaving> FromEntries(
      size_t capacity, std::span<const SpaceSavingEntry> entries);

  size_t capacity() const { return capacity_; }
  size_t MonitoredCount() const { return heap_.size(); }
  size_t SpaceBytes() const override;

 private:
  explicit SpaceSaving(size_t capacity);

  struct Slot {
    ItemId item;
    Count count;
    Count error;
  };

  void SiftDown(size_t i);
  void SiftUp(size_t i);
  void SwapSlots(size_t i, size_t j);

  size_t capacity_;
  std::vector<Slot> heap_;                      // min-heap by count
  std::unordered_map<ItemId, size_t> position_; // item -> heap index
};

}  // namespace streamfreq
