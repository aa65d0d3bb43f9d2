// The Frequent algorithm (Misra-Gries 1982), the deterministic counter
// algorithm the paper cites as Karp-Shenker-Papadimitriou (KPS) [14].
//
// Keeps at most `capacity` (item, counter) pairs. An arriving monitored
// item increments its counter; an arriving unmonitored item takes a free
// slot if one exists, otherwise every counter is decremented (the KPS
// "delete one of each" step). Guarantees, with c = capacity:
//   * every item with n_q > n / (c + 1) is monitored at the end, and
//   * counter(q) <= n_q <= counter(q) + n / (c + 1)   (underestimates).
// Solves CandidateTop with threshold selection theta = n_k / n (paper
// Section 4.1 / Table 1, "KPS" column), but not ApproxTop: low-frequency
// items can survive in the summary.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/frequent.h"
#include "util/result.h"

namespace streamfreq {

/// Misra-Gries / Frequent / KPS summary.
class MisraGries final : public StreamSummary {
 public:
  /// Creates a summary holding at most `capacity` counters (capacity >= 1).
  /// For the theta-threshold guarantee of KPS, use capacity = ceil(1/theta).
  static Result<MisraGries> Make(size_t capacity);

  std::string Name() const override;

  /// Weighted arrival; weight must be >= 1 (cash-register model). Amortized
  /// O(1) expected time.
  void Add(ItemId item, Count weight) override;
  using StreamSummary::Add;

  /// Batch arrival: aggregates duplicates, then applies one weighted Add
  /// per distinct item. Equivalent to a reordered ingest of the batch; the
  /// n/(c+1) guarantee is order-independent so it is preserved, but the
  /// summary state may differ from item-at-a-time ingestion.
  void BatchAdd(std::span<const ItemId> items) override;

  /// Lower-bound estimate: the counter when monitored, else 0.
  Count Estimate(ItemId item) const override;

  /// Monitored items by descending counter.
  std::vector<ItemCount> Candidates(size_t k) const override;

  /// Worst-case undercount of any estimate so far: total weight removed by
  /// decrement steps, an instance-specific tightening of n/(c+1).
  Count MaxError() const { return decremented_; }

  /// Merges another Misra-Gries summary (mergeable-summaries construction
  /// of Agarwal et al.): counters are added item-wise, then the combined
  /// set is reduced back to `capacity` entries by subtracting the
  /// (capacity+1)-st largest counter from everything and dropping
  /// non-positive results. The merged summary keeps the error guarantee
  /// (n1 + n2) / (capacity + 1) over the union stream. Requires equal
  /// capacities.
  Status Merge(const MisraGries& other);

  size_t capacity() const { return capacity_; }
  size_t SpaceBytes() const override;

 private:
  explicit MisraGries(size_t capacity);

  size_t capacity_;
  Count decremented_ = 0;  // per-item weight removed by decrements
  std::unordered_map<ItemId, Count> counters_;
};

}  // namespace streamfreq
