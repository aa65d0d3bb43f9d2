#include "core/tracked_set.h"

#include <bit>
#include <cstring>

#include "core/frequent.h"
#include "util/logging.h"

namespace streamfreq {
namespace {

// The heap order: smaller count first, then smaller id. Ids are unique, so
// it is total, and the minimum (the eviction victim) is one pair.
bool Less(const ItemCount& a, const ItemCount& b) {
  return a.count < b.count || (a.count == b.count && a.item < b.item);
}

}  // namespace

TrackedSet::TrackedSet(size_t capacity) : capacity_(capacity) {
  SFQ_CHECK(capacity > 0 && capacity <= kMaxCapacity)
      << "TrackedSet capacity " << capacity;
  // At most half the cells are used, so probe runs stay short and an
  // absent item's probe always meets an empty cell.
  const size_t cells = std::bit_ceil(2 * capacity);
  cell_mask_ = cells - 1;
  cell_shift_ = 64 - std::countr_zero(cells);
  const size_t cell_bytes = cells * sizeof(uint32_t);
  block_.resize(capacity +
                (cell_bytes + sizeof(ItemCount) - 1) / sizeof(ItemCount));
}

uint32_t TrackedSet::Cell(size_t c) const {
  uint32_t value = 0;
  std::memcpy(&value,
              reinterpret_cast<const unsigned char*>(slots() + capacity_) +
                  c * sizeof(uint32_t),
              sizeof(value));
  return value;
}

void TrackedSet::SetCell(size_t c, uint32_t value) {
  std::memcpy(reinterpret_cast<unsigned char*>(slots() + capacity_) +
                  c * sizeof(uint32_t),
              &value, sizeof(value));
}

void TrackedSet::PointCell(size_t c, size_t slot) {
  SetCell(c, static_cast<uint32_t>(slot + 1));
}

size_t TrackedSet::Home(ItemId item) const {
  // Fibonacci hashing: the top bits of item * 2^64/phi.
  return static_cast<size_t>((item * 0x9E3779B97F4A7C15ULL) >> cell_shift_);
}

size_t TrackedSet::Find(ItemId item) const {
  for (size_t c = Home(item);; c = (c + 1) & cell_mask_) {
    const uint32_t cell = Cell(c);
    if (cell == 0) return kNoCell;
    if (slots()[cell - 1].item == item) return c;
  }
}

size_t TrackedSet::CellOfSlot(ItemId item, size_t slot) const {
  // Matches on the slot, not the item: mid-sift a pair can sit in two
  // slots at once, but every slot has one cell.
  size_t c = Home(item);
  while (Cell(c) != slot + 1) c = (c + 1) & cell_mask_;
  return c;
}

size_t TrackedSet::InsertCell(ItemId item, size_t slot) {
  size_t c = Home(item);
  while (Cell(c) != 0) c = (c + 1) & cell_mask_;
  PointCell(c, slot);
  return c;
}

void TrackedSet::EraseCell(size_t cell) {
  // Backward-shift deletion: a later cell of the run moves into the hole
  // unless its home lies cyclically after the hole (it would then sit
  // before its home and Find would miss it).
  size_t hole = cell;
  for (size_t c = (hole + 1) & cell_mask_; Cell(c) != 0;
       c = (c + 1) & cell_mask_) {
    const size_t home = Home(slots()[Cell(c) - 1].item);
    if (((c - home) & cell_mask_) >= ((c - hole) & cell_mask_)) {
      SetCell(hole, Cell(c));
      hole = c;
    }
  }
  SetCell(hole, 0);
}

void TrackedSet::SiftUp(size_t slot, size_t cell) {
  ItemCount* heap = slots();
  const ItemCount moving = heap[slot];
  while (slot > 0) {
    const size_t parent = (slot - 1) / 2;
    if (!Less(moving, heap[parent])) break;
    heap[slot] = heap[parent];
    PointCell(CellOfSlot(heap[slot].item, parent), slot);
    slot = parent;
  }
  heap[slot] = moving;
  PointCell(cell, slot);
}

void TrackedSet::SiftDown(size_t slot, size_t cell) {
  ItemCount* heap = slots();
  const ItemCount moving = heap[slot];
  for (;;) {
    size_t child = 2 * slot + 1;
    if (child >= size_) break;
    if (child + 1 < size_ && Less(heap[child + 1], heap[child])) ++child;
    if (!Less(heap[child], moving)) break;
    heap[slot] = heap[child];
    PointCell(CellOfSlot(heap[slot].item, child), slot);
    slot = child;
  }
  heap[slot] = moving;
  PointCell(cell, slot);
}

// sfq-hot-path
std::optional<Count> TrackedSet::CountOf(ItemId item) const {
  const size_t cell = Find(item);
  if (cell == kNoCell) return std::nullopt;
  return slots()[Cell(cell) - 1].count;
}

// sfq-hot-path
bool TrackedSet::AddIfTracked(ItemId item, Count weight) {
  const size_t cell = Find(item);
  if (cell == kNoCell) return false;
  const size_t slot = Cell(cell) - 1;
  slots()[slot].count += weight;
  if (weight > 0) SiftDown(slot, cell);
  if (weight < 0) SiftUp(slot, cell);
  return true;
}

// sfq-hot-path
TrackedSet::Admission TrackedSet::TryAdmit(ItemId item, Count count) {
  SFQ_DCHECK(!Contains(item));
  Admission admission;
  ItemCount* heap = slots();
  if (size_ == capacity_) {
    if (count <= heap[0].count) return admission;
    admission.evicted = true;
    admission.victim = heap[0].item;
    EraseCell(CellOfSlot(heap[0].item, 0));
    heap[0] = {item, count};
    SiftDown(0, InsertCell(item, 0));
  } else {
    const size_t slot = size_++;
    heap[slot] = {item, count};
    SiftUp(slot, InsertCell(item, slot));
  }
  admission.admitted = true;
  return admission;
}

std::vector<ItemCount> TrackedSet::Top(size_t k) const {
  return RankByCount(std::vector<ItemCount>(slots(), slots() + size_), k);
}

}  // namespace streamfreq
