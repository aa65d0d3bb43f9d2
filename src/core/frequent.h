// Common interface implemented by every frequent-items algorithm.
//
// The paper compares Count-Sketch against SAMPLING (and its Gibbons-Matias
// refinements) and the Karp-Shenker-Papadimitriou counter algorithm; the
// benchmark harness additionally runs the standard counter/sketch
// competitors. This interface is the harness contract they all satisfy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/types.h"

namespace streamfreq {

/// Sorts `entries` (anything with `item` and `count`) by count descending,
/// then id ascending, and keeps the first k: the order in which every
/// summary reports its candidates.
template <typename Entry>
std::vector<Entry> RankByCount(
    std::vector<Entry> entries,
    size_t k = std::numeric_limits<size_t>::max()) {
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

/// A one-pass summary of a stream that can estimate item counts and emit a
/// ranked candidate list of likely-frequent items.
class StreamSummary {
 public:
  virtual ~StreamSummary() = default;

  /// Short algorithm name for tables, e.g. "CountSketch(t=5,b=1024)".
  virtual std::string Name() const = 0;

  /// Processes `weight` occurrences of `item`. Counter-based algorithms
  /// require weight >= 1; sketches accept any weight (turnstile model).
  virtual void Add(ItemId item, Count weight) = 0;

  /// Processes one occurrence of `item`.
  void Add(ItemId item) { Add(item, 1); }

  /// Processes an entire materialized stream, one occurrence at a time.
  void AddAll(const Stream& stream) {
    for (ItemId q : stream) Add(q, 1);
  }

  /// Processes a batch of unit-weight arrivals. The default is equivalent
  /// to Add-ing each item in stream order; implementations whose guarantee
  /// is order-independent may override to aggregate duplicates and apply
  /// weighted updates (same guarantees, possibly different summary state —
  /// see each override). The parallel ingestion fast path.
  virtual void BatchAdd(std::span<const ItemId> items) {
    for (ItemId q : items) Add(q, 1);
  }

  /// Estimated count of `item`. Semantics vary by algorithm (Count-Sketch:
  /// unbiased median estimate; Count-Min / Space-Saving: upper bound;
  /// Misra-Gries: lower bound; sampling: scaled sample count) — each
  /// implementation documents its guarantee.
  virtual Count Estimate(ItemId item) const = 0;

  /// The algorithm's best candidates for the most frequent items in
  /// RankByCount order, at most `k` entries. May return fewer when
  /// the summary tracks fewer items.
  virtual std::vector<ItemCount> Candidates(size_t k) const = 0;

  /// Bytes of state held (counters, hash parameters, monitored-item table);
  /// the space the paper's Section 4 bounds refer to.
  virtual size_t SpaceBytes() const = 0;
};

}  // namespace streamfreq
