// CounterMatrix: cache-line-aware counter storage for the linear sketches.
//
// CountSketch and CountMin used to hold their t x b counter tables in a
// bare std::vector<int64_t> with stride == width. This class is the same
// logical matrix with a physical layout tuned for the batched ingest path:
//
//   * the allocation is 64-byte aligned, and
//   * each row's stride is padded up to a whole cache line (8 counters),
//     so row starts never straddle lines and the row-major BatchAdd walk
//     touches the minimum number of lines per stripe.
//
// Padding cells are born zero and stay zero: the sketch update paths only
// ever index columns < width, and the whole-buffer Add/Subtract used by
// Merge preserves zeros (0 + 0 == 0). That invariant is what lets Merge
// run over the padded buffer without masking. Serialization iterates
// logical cells only, so the on-disk format is identical to the unpadded
// layout and old sketch files deserialize unchanged.
//
// For the common power-of-two widths (>= 8) the stride equals the width
// and the padding is zero bytes; only odd widths pay (at most 56 bytes
// per row).
//
// Storage comes from util/pages.h: arrays of PageBuffer::kMapThreshold
// bytes or more are their own pre-faulted (and, from 2 MiB, huge-page)
// mapping, smaller ones stay on the heap. Either way the cells start zero.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/pages.h"
#include "util/result.h"

namespace streamfreq {

/// A depth x width matrix of int64 counters, cache-line aligned.
class CounterMatrix {
 public:
  /// Counters per 64-byte cache line; rows are padded to a multiple.
  static constexpr size_t kLineCounters = 64 / sizeof(int64_t);

  CounterMatrix() = default;

  /// A zeroed matrix, or the error that kept its storage from being
  /// allocated. Dimension validation (non-zero, plausible) belongs to the
  /// owning sketch's Make.
  static Result<CounterMatrix> Make(size_t depth, size_t width) {
    CounterMatrix m;
    m.depth_ = depth;
    m.width_ = width;
    m.stride_ = (width + kLineCounters - 1) / kLineCounters * kLineCounters;
    STREAMFREQ_ASSIGN_OR_RETURN(m.buf_,
                                PageBuffer::Zeroed(m.AllocatedBytes()));
    return m;
  }

  /// Copies must not fail quietly: a copy that cannot get its storage
  /// aborts with the reason rather than write through a null pointer.
  CounterMatrix(const CounterMatrix& other)
      : depth_(other.depth_),
        width_(other.width_),
        stride_(other.stride_),
        buf_(CopyOrDie(other.buf_)) {}

  /// Copies into this matrix's own storage when it is the same size, so
  /// refreshing a sketch in place asks for no memory.
  CounterMatrix& operator=(const CounterMatrix& other) {
    if (this == &other) return *this;
    if (buf_.size() != other.buf_.size()) return *this = CounterMatrix(other);
    CopySameSize(other);
    return *this;
  }

  CounterMatrix(CounterMatrix&&) noexcept = default;
  CounterMatrix& operator=(CounterMatrix&&) noexcept = default;

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }
  size_t stride() const { return stride_; }

  /// First counter of row i (64-byte aligned).
  // sfq-hot-path
  int64_t* Row(size_t i) noexcept { return data() + i * stride_; }
  // sfq-hot-path
  const int64_t* Row(size_t i) const noexcept { return data() + i * stride_; }

  // sfq-hot-path
  int64_t& At(size_t row, size_t col) noexcept { return Row(row)[col]; }
  // sfq-hot-path
  int64_t At(size_t row, size_t col) const noexcept { return Row(row)[col]; }

  /// Zeroes every cell, padding included.
  // sfq-hot-path
  void Clear() noexcept {
    std::memset(buf_.data(), 0, buf_.size());
  }

  /// this += other, over the whole padded buffer (padding stays zero).
  /// Caller guarantees equal dimensions (the sketches' CompatibleWith).
  /// Cells wrap modulo 2^64 (unsigned arithmetic, no signed-overflow UB).
  // sfq-hot-path
  void AddAll(const CounterMatrix& other) noexcept {
    uint64_t* a = static_cast<uint64_t*>(buf_.data());
    const uint64_t* b = static_cast<const uint64_t*>(other.buf_.data());
    const size_t n = depth_ * stride_;
    for (size_t i = 0; i < n; ++i) a[i] += b[i];
  }

  /// this -= other, same contract as AddAll.
  // sfq-hot-path
  void SubtractAll(const CounterMatrix& other) noexcept {
    uint64_t* a = static_cast<uint64_t*>(buf_.data());
    const uint64_t* b = static_cast<const uint64_t*>(other.buf_.data());
    const size_t n = depth_ * stride_;
    for (size_t i = 0; i < n; ++i) a[i] -= b[i];
  }

  /// Logical-cell equality (padding excluded); dimensions must match too.
  friend bool operator==(const CounterMatrix& a, const CounterMatrix& b) {
    if (a.depth_ != b.depth_ || a.width_ != b.width_) return false;
    for (size_t i = 0; i < a.depth_; ++i) {
      if (!std::equal(a.Row(i), a.Row(i) + a.width_, b.Row(i))) return false;
    }
    return true;
  }

  /// Bytes actually held, padding included (reported by SpaceBytes).
  size_t AllocatedBytes() const { return depth_ * stride_ * sizeof(int64_t); }

 private:
  /// Copy-assignment into storage of other's size: a memcpy, no memory.
  // sfq-hot-path
  void CopySameSize(const CounterMatrix& other) noexcept {
    depth_ = other.depth_;
    width_ = other.width_;
    stride_ = other.stride_;
    if (buf_.size() > 0) {
      std::memcpy(buf_.data(), other.buf_.data(), buf_.size());
    }
  }

  static PageBuffer CopyOrDie(const PageBuffer& from) {
    Result<PageBuffer> copy = PageBuffer::CopyOf(from);
    SFQ_CHECK(copy.ok()) << "CounterMatrix copy: " << copy.status().ToString();
    return std::move(copy).ValueOrDie();
  }

  int64_t* data() const noexcept { return static_cast<int64_t*>(buf_.data()); }

  size_t depth_ = 0;
  size_t width_ = 0;
  size_t stride_ = 0;
  PageBuffer buf_;
};

}  // namespace streamfreq
