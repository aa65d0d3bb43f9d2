#include "core/count_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hash/random.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace streamfreq {

Result<CountSketch> CountSketch::Make(const CountSketchParams& params) {
  if (params.depth == 0) {
    return Status::InvalidArgument("CountSketch: depth must be positive");
  }
  if (params.width == 0) {
    return Status::InvalidArgument("CountSketch: width must be positive");
  }
  if (params.depth > (1u << 20) || params.width > (1ull << 34)) {
    return Status::InvalidArgument("CountSketch: dimensions implausibly large");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CounterMatrix counters,
                              CounterMatrix::Make(params.depth, params.width));
  return CountSketch(params, std::move(counters));
}

CountSketch::CountSketch(const CountSketchParams& params,
                         CounterMatrix counters)
    : params_(params),
      depth_(params.depth),
      width_(params.width),
      counters_(std::move(counters)) {
  // One seed stream per role keeps bucket and sign functions mutually
  // independent, as the analysis requires.
  SplitMix64 bucket_seeder(SplitMix64(params.seed).Next() ^ 0xB0C4E7ULL);
  SplitMix64 sign_seeder(SplitMix64(params.seed + 1).Next() ^ 0x51C40FULL);
  switch (params.family) {
    case HashFamily::kCarterWegman:
      cw_bucket_.reserve(depth_);
      cw_sign_.reserve(depth_);
      for (size_t i = 0; i < depth_; ++i) {
        cw_bucket_.emplace_back(bucket_seeder);
        cw_sign_.emplace_back(sign_seeder);
      }
      break;
    case HashFamily::kMultiplyShift:
      ms_bucket_.reserve(depth_);
      ms_sign_.reserve(depth_);
      for (size_t i = 0; i < depth_; ++i) {
        ms_bucket_.emplace_back(bucket_seeder);
        ms_sign_.emplace_back(sign_seeder);
      }
      break;
    case HashFamily::kTabulation:
      tab_bucket_.reserve(depth_);
      tab_sign_.reserve(depth_);
      for (size_t i = 0; i < depth_; ++i) {
        tab_bucket_.emplace_back(bucket_seeder);
        tab_sign_.emplace_back(sign_seeder);
      }
      break;
  }
}

CountSketch::BucketSign CountSketch::Locate(size_t row, ItemId item) const noexcept {
  switch (params_.family) {
    case HashFamily::kCarterWegman:
      return {cw_bucket_[row].Bucket(item, width_), cw_sign_[row].Sign(item)};
    case HashFamily::kMultiplyShift:
      return {ms_bucket_[row].Bucket(item, width_), ms_sign_[row].Sign(item)};
    case HashFamily::kTabulation:
      return {tab_bucket_[row].Bucket(item, width_), tab_sign_[row].Sign(item)};
  }
  return {0, 1};  // unreachable
}

void CountSketch::Add(ItemId item, Count weight) noexcept {
  for (size_t i = 0; i < depth_; ++i) {
    const BucketSign bs = Locate(i, item);
    counters_.At(i, bs.bucket) += weight * bs.sign;
  }
}

template <typename HashT>
// sfq-hot-path
void CountSketch::BatchAddRows(const std::vector<HashT>& bucket,
                               const std::vector<HashT>& sign,
                               std::span<const ItemId> items, Count weight,
                               batch_hash::Backend backend) noexcept {
  // Rows outer, items inner: one row's hash constants stay in registers
  // and every pass walks a single aligned counter stripe. Within a row the
  // bucket/sign evaluation runs through the batch kernels a kChunk-key
  // stripe at a time — large enough to amortize the (non-inlined) kernel
  // call, small enough that the staging buffers stay in L1 — then the
  // scatter runs scalar (data-dependent indices).
  constexpr size_t kChunk = 1024;
  static_assert(kChunk % batch_hash::kBlock == 0);
  uint64_t bkt[kChunk];
  int64_t sgn[kChunk];
  for (size_t i = 0; i < depth_; ++i) {
    const HashT& hb = bucket[i];
    const HashT& hs = sign[i];
    int64_t* row = counters_.Row(i);
    for (size_t pos = 0; pos < items.size(); pos += kChunk) {
      const size_t take = std::min(kChunk, items.size() - pos);
      batch_hash::BucketsAndSigns(
          hb, hs, std::span<const uint64_t>(items.data() + pos, take), width_,
          bkt, sgn, backend);
      for (size_t j = 0; j < take; ++j) row[bkt[j]] += weight * sgn[j];
    }
  }
}

// sfq-hot-path
void CountSketch::BatchAddDispatch(std::span<const ItemId> items, Count weight,
                                   batch_hash::Backend backend) noexcept {
  switch (params_.family) {
    case HashFamily::kCarterWegman:
      BatchAddRows(cw_bucket_, cw_sign_, items, weight, backend);
      break;
    case HashFamily::kMultiplyShift:
      BatchAddRows(ms_bucket_, ms_sign_, items, weight, backend);
      break;
    case HashFamily::kTabulation:
      BatchAddRows(tab_bucket_, tab_sign_, items, weight, backend);
      break;
  }
}

// sfq-hot-path
void CountSketch::BatchAdd(std::span<const ItemId> items,
                           Count weight) noexcept {
  BatchAddDispatch(items, weight, batch_hash::Backend::kVectorized);
}

// sfq-hot-path
void CountSketch::BatchAddScalar(std::span<const ItemId> items,
                                 Count weight) noexcept {
  BatchAddDispatch(items, weight, batch_hash::Backend::kScalar);
}

template <typename CounterFn>
Count CountSketch::CombineRows(ItemId item, CounterFn counter) const noexcept {
  // Row estimates live on the stack for the common shallow depths; deep
  // sketches fall back to the heap-allocating path.
  constexpr size_t kStackRows = 64;
  Count stack_est[kStackRows];
  std::vector<Count> heap_est;
  Count* est;
  if (depth_ <= kStackRows) {
    est = stack_est;
  } else {
    heap_est.resize(depth_);
    est = heap_est.data();
  }
  for (size_t i = 0; i < depth_; ++i) {
    const BucketSign bs = Locate(i, item);
    est[i] = counter(i, bs.bucket) * bs.sign;
  }
  if (params_.estimator == Estimator::kMean) {
    // Mean ablation: average rounded toward zero.
    Count sum = 0;
    for (size_t i = 0; i < depth_; ++i) sum += est[i];
    return sum / static_cast<Count>(depth_);
  }
  // Median: middle order statistic; even depths average the two middles
  // (rounding toward zero) so estimates stay symmetric under negation.
  const size_t mid = depth_ / 2;
  std::nth_element(est, est + mid, est + depth_);
  if (depth_ % 2 == 1) return est[mid];
  const Count hi = est[mid];
  const Count lo = *std::max_element(est, est + mid);
  return (lo + hi) / 2;
}

Count CountSketch::Estimate(ItemId item) const noexcept {
  return CombineRows(item, [this](size_t row, uint64_t bucket) {
    return counters_.At(row, bucket);
  });
}

Count CountSketch::EstimateDifference(ItemId item,
                                      const CountSketch& base) const noexcept {
  SFQ_DCHECK(CompatibleWith(base));
  return CombineRows(item, [this, &base](size_t row, uint64_t bucket) {
    return static_cast<Count>(
        static_cast<uint64_t>(counters_.At(row, bucket)) -
        static_cast<uint64_t>(base.counters_.At(row, bucket)));
  });
}

bool CountSketch::CompatibleWith(const CountSketchParams& other) const {
  return depth_ == other.depth && width_ == other.width &&
         params_.seed == other.seed && params_.family == other.family;
}

Status CountSketch::Merge(const CountSketch& other) {
  if (!CompatibleWith(other)) {
    return Status::InvalidArgument(
        "CountSketch::Merge: incompatible sketches (parameters or seed "
        "differ)");
  }
  counters_.AddAll(other.counters_);
  return Status::OK();
}

Status CountSketch::Subtract(const CountSketch& other) {
  if (!CompatibleWith(other)) {
    return Status::InvalidArgument(
        "CountSketch::Subtract: incompatible sketches (parameters or seed "
        "differ)");
  }
  counters_.SubtractAll(other.counters_);
  return Status::OK();
}

void CountSketch::Clear() noexcept { counters_.Clear(); }

size_t CountSketch::SpaceBytes() const {
  size_t hash_bytes = 0;
  switch (params_.family) {
    case HashFamily::kCarterWegman:
    case HashFamily::kMultiplyShift:
      hash_bytes = depth_ * 2 * 2 * sizeof(uint64_t);  // (a,b) x {bucket,sign}
      break;
    case HashFamily::kTabulation:
      hash_bytes = depth_ * 2 * sizeof(TabulationHash);
      break;
  }
  return counters_.AllocatedBytes() + hash_bytes;
}

namespace {

constexpr uint64_t kSketchMagic = 0x5346515343303153ULL;  // "SFQSC01S"
// u64 magic, depth, width, seed, family, estimator.
constexpr size_t kHeaderBytes = 6 * sizeof(uint64_t);

// THE parser of the SerializeTo format. Validates the header and the
// counter payload size; on success `params` describes the serialized
// sketch and `counters` views its depth·width little-endian counters in
// logical row-major order.
Status ParseSerialized(std::string_view data, CountSketchParams* params,
                       std::string_view* counters) {
  ByteReader r(data);
  uint64_t magic, depth, width, seed, family, estimator;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&magic));
  if (magic != kSketchMagic) {
    return Status::Corruption("serialized CountSketch: bad magic");
  }
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&depth));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&width));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&seed));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&family));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&estimator));
  if (family > static_cast<uint64_t>(HashFamily::kTabulation) ||
      estimator > static_cast<uint64_t>(Estimator::kMean)) {
    return Status::Corruption("serialized CountSketch: bad enum value");
  }
  // Validate the payload size BEFORE anything allocates depth*width
  // counters: a corrupted header must fail cleanly, not exhaust memory. The
  // division avoids overflow in depth * width * 8 for hostile headers.
  if (depth == 0 || width == 0 ||
      r.remaining() / sizeof(int64_t) / depth != width ||
      r.remaining() % sizeof(int64_t) != 0) {
    return Status::Corruption(
        "serialized CountSketch: counter payload size mismatch");
  }
  params->depth = depth;
  params->width = width;
  params->seed = seed;
  params->family = static_cast<HashFamily>(family);
  params->estimator = static_cast<Estimator>(estimator);
  *counters = data.substr(kHeaderBytes);
  return Status::OK();
}

}  // namespace

size_t CountSketch::SerializedSize() const {
  return kHeaderBytes + depth_ * width_ * sizeof(int64_t);
}

void CountSketch::SerializeTo(std::string* out) const {
  out->reserve(out->size() + SerializedSize());
  AppendSerializedHeader(out);
  for (size_t i = 0; i < depth_; ++i) out->append(SerializedRow(i));
}

void CountSketch::AppendSerializedHeader(std::string* out) const {
  ByteWriter w(out);
  w.PutU64(kSketchMagic);
  w.PutU64(depth_);
  w.PutU64(width_);
  w.PutU64(params_.seed);
  w.PutU64(static_cast<uint64_t>(params_.family));
  w.PutU64(static_cast<uint64_t>(params_.estimator));
}

std::string_view CountSketch::SerializedRow(size_t row) const {
  // Logical row-major order, padding skipped: the wire format is the same
  // as the historical unpadded layout.
  return std::string_view(reinterpret_cast<const char*>(counters_.Row(row)),
                          width_ * sizeof(int64_t));
}

Status CountSketch::MergeSerialized(std::string_view data) {
  CountSketchParams params;
  std::string_view counters;
  STREAMFREQ_RETURN_NOT_OK(ParseSerialized(data, &params, &counters));
  if (!CompatibleWith(params)) {
    return Status::InvalidArgument(
        "CountSketch::MergeSerialized: incompatible sketches (parameters or "
        "seed differ)");
  }
  // Unsigned adds wrap exactly as Merge's counter arithmetic does, without
  // signed-overflow UB; padding columns are never touched.
  const char* in = counters.data();
  for (size_t i = 0; i < depth_; ++i) {
    int64_t* row = counters_.Row(i);
    for (size_t j = 0; j < width_; ++j, in += sizeof(uint64_t)) {
      uint64_t v;
      std::memcpy(&v, in, sizeof(v));
      row[j] = static_cast<int64_t>(static_cast<uint64_t>(row[j]) + v);
    }
  }
  return Status::OK();
}

Result<CountSketch> CountSketch::Deserialize(std::string_view data) {
  CountSketchParams params;
  std::string_view counters;
  STREAMFREQ_RETURN_NOT_OK(ParseSerialized(data, &params, &counters));
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch sketch, Make(params));
  STREAMFREQ_RETURN_NOT_OK(sketch.MergeSerialized(data));
  return sketch;
}

}  // namespace streamfreq
