// The paper's bounded "heap" of tracked candidates (Section 3.2): at most l
// (item, count) pairs. CountSketchTopK and CountMinTopK track sketch
// estimates in it; MaxChangeDetector tracks the fixed |nhat| of its second
// pass (the paper's set A).
//
// One flat table in a single block sized at construction, so no update
// allocates:
//
//   slots    l (item, count) pairs laid out as a binary min-heap keyed by
//            (count, id): slot 0 holds the smallest pair, the victim of
//            the next eviction;
//   index    an open-addressing (linear probing) map item -> slot, 2^k >=
//            2l cells of u32 (slot + 1; 0 marks an empty cell), with
//            backward-shift deletion, so there are no tombstones.
//
// A heap move rewrites the index cell of the pair it moves. At l = 256 the
// block is 4 KiB of slots plus 2 KiB of index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/types.h"

namespace streamfreq {

/// At most `capacity` (item, count) pairs with O(log l) min eviction.
/// Copyable; copies share no state.
class TrackedSet {
 public:
  /// What TryAdmit() did with its item.
  struct Admission {
    bool admitted = false;  ///< the item is tracked from now on
    bool evicted = false;   ///< admitting it pushed `victim` out
    ItemId victim = 0;      ///< meaningful only when `evicted`
  };

  /// The charge SpaceBytes() and the suite's budget rule (eval/suite.cc)
  /// make per tracked pair. It is the figure of the earlier node-based
  /// table (a hash-map entry plus an ordered-index node), kept so budgets
  /// and widths do not move; it is an upper bound on what the flat table
  /// really holds per pair of capacity (16 B slot plus at most 16 B of
  /// index; tracked_set_test holds the bound).
  static constexpr size_t kBytesPerPair = 64;

  /// The largest capacity: slot numbers plus one fit the u32 index cells.
  static constexpr size_t kMaxCapacity = (size_t{1} << 31) - 1;

  /// An empty set of at most `capacity` (1..kMaxCapacity) pairs.
  explicit TrackedSet(size_t capacity);

  size_t capacity() const { return capacity_; }
  bool Contains(ItemId item) const { return Find(item) != kNoCell; }

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
  size_t SpaceBytes() const { return size_ * kBytesPerPair; }

 private:
  static constexpr size_t kNoCell = ~size_t{0};

  ItemCount* slots() { return block_.data(); }
  const ItemCount* slots() const { return block_.data(); }

  /// Index cell c: 0 when empty, else the slot it points at plus one. The
  /// cells are u32s in the block's bytes after the slots, read and written
  /// with memcpy, so they do not alias the ItemCounts.
  uint32_t Cell(size_t c) const;
  void SetCell(size_t c, uint32_t value);
  /// Points cell c at `slot`.
  void PointCell(size_t c, size_t slot);

  /// The item's first probe cell.
  size_t Home(ItemId item) const;
  /// The index cell that holds `item`, or kNoCell.
  size_t Find(ItemId item) const;
  /// The index cell that points at `slot`; the item there must be tracked.
  size_t CellOfSlot(ItemId item, size_t slot) const;
  /// Points a free cell of `item`'s probe run at `slot`; returns the cell.
  size_t InsertCell(ItemId item, size_t slot);
  /// Empties `cell` and shifts the rest of its probe run back.
  void EraseCell(size_t cell);

  /// Restores heap order for the pair at `slot`, whose index cell is
  /// `cell`, after its count fell (SiftUp) or rose (SiftDown).
  void SiftUp(size_t slot, size_t cell);
  void SiftDown(size_t slot, size_t cell);

  size_t capacity_;
  size_t size_ = 0;
  size_t cell_mask_ = 0;  // index cells - 1
  int cell_shift_ = 0;    // 64 - log2(index cells), for Home
  // capacity_ slots, then the index cells, in one allocation.
  std::vector<ItemCount> block_;
};

}  // namespace streamfreq
