#include "core/count_min.h"

#include <algorithm>

#include "hash/random.h"
#include "util/logging.h"

namespace streamfreq {

Result<CountMin> CountMin::Make(const CountMinParams& params) {
  if (params.depth == 0 || params.width == 0) {
    return Status::InvalidArgument("CountMin: depth and width must be positive");
  }
  if (params.depth > (1u << 20) || params.width > (1ull << 34)) {
    return Status::InvalidArgument("CountMin: dimensions implausibly large");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CounterMatrix counters,
                              CounterMatrix::Make(params.depth, params.width));
  return CountMin(params, std::move(counters));
}

CountMin::CountMin(const CountMinParams& params, CounterMatrix counters)
    : params_(params),
      depth_(params.depth),
      width_(params.width),
      counters_(std::move(counters)) {
  SplitMix64 seeder(SplitMix64(params.seed).Next() ^ 0xC3117EULL);
  hashes_.reserve(depth_);
  for (size_t i = 0; i < depth_; ++i) hashes_.emplace_back(seeder);
}

void CountMin::Add(ItemId item, Count weight) noexcept {
  SFQ_DCHECK_GE(weight, 0);
  if (!params_.conservative) {
    for (size_t i = 0; i < depth_; ++i) {
      counters_.At(i, hashes_[i].Bucket(item, width_)) += weight;
    }
    return;
  }
  // Conservative update: raise every counter only as far as
  // Estimate(item) + weight, never beyond what the minimum justifies.
  Count current = Estimate(item);
  const Count target = current + weight;
  for (size_t i = 0; i < depth_; ++i) {
    int64_t& c = counters_.At(i, hashes_[i].Bucket(item, width_));
    c = std::max<int64_t>(c, target);
  }
}

// sfq-hot-path
void CountMin::BatchAddDispatch(std::span<const ItemId> items, Count weight,
                                batch_hash::Backend backend) noexcept {
  SFQ_DCHECK_GE(weight, 0);
  if (params_.conservative) {
    // Order-dependent update; the batch kernels would change semantics.
    for (const ItemId q : items) Add(q, weight);
    return;
  }
  // kChunk-key stripes amortize the kernel call and keep the staging
  // buffer L1-resident (see CountSketch::BatchAddRows).
  constexpr size_t kChunk = 1024;
  static_assert(kChunk % batch_hash::kBlock == 0);
  uint64_t bkt[kChunk];
  for (size_t i = 0; i < depth_; ++i) {
    const CarterWegmanHash& h = hashes_[i];
    int64_t* row = counters_.Row(i);
    for (size_t pos = 0; pos < items.size(); pos += kChunk) {
      const size_t take = std::min(kChunk, items.size() - pos);
      batch_hash::Buckets(
          h, std::span<const uint64_t>(items.data() + pos, take), width_, bkt,
          backend);
      for (size_t j = 0; j < take; ++j) row[bkt[j]] += weight;
    }
  }
}

// sfq-hot-path
void CountMin::BatchAdd(std::span<const ItemId> items, Count weight) noexcept {
  BatchAddDispatch(items, weight, batch_hash::Backend::kVectorized);
}

// sfq-hot-path
void CountMin::BatchAddScalar(std::span<const ItemId> items,
                              Count weight) noexcept {
  BatchAddDispatch(items, weight, batch_hash::Backend::kScalar);
}

Count CountMin::Estimate(ItemId item) const noexcept {
  Count best = counters_.At(0, hashes_[0].Bucket(item, width_));
  for (size_t i = 1; i < depth_; ++i) {
    best = std::min<Count>(best,
                           counters_.At(i, hashes_[i].Bucket(item, width_)));
  }
  return best;
}

bool CountMin::CompatibleWith(const CountMin& other) const {
  return depth_ == other.depth_ && width_ == other.width_ &&
         params_.seed == other.params_.seed;
}

Status CountMin::Merge(const CountMin& other) {
  if (!CompatibleWith(other)) {
    return Status::InvalidArgument("CountMin::Merge: incompatible sketches");
  }
  if (params_.conservative || other.params_.conservative) {
    // Conservative-update counters are not linear; merging would break the
    // upper-bound guarantee.
    return Status::InvalidArgument(
        "CountMin::Merge: conservative-update sketches are not mergeable");
  }
  counters_.AddAll(other.counters_);
  return Status::OK();
}

size_t CountMin::SpaceBytes() const {
  return counters_.AllocatedBytes() + depth_ * 2 * sizeof(uint64_t);
}

}  // namespace streamfreq
