#include "core/lossy_counting.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace streamfreq {

Result<LossyCounting> LossyCounting::Make(double epsilon) {
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument("LossyCounting: epsilon must be in (0, 1)");
  }
  return LossyCounting(epsilon);
}

LossyCounting::LossyCounting(double epsilon)
    : epsilon_(epsilon),
      bucket_width_(static_cast<Count>(std::ceil(1.0 / epsilon))) {}

std::string LossyCounting::Name() const {
  return "LossyCounting(eps=" + std::to_string(epsilon_) + ")";
}

void LossyCounting::AdvanceBucketsTo(Count n) {
  const Count target_bucket = (n - 1) / bucket_width_ + 1;
  if (target_bucket == current_bucket_) return;
  // Prune once with the highest crossed boundary; intermediate boundaries
  // prune a subset of what the final one prunes, so one sweep suffices.
  current_bucket_ = target_bucket;
  const Count boundary = current_bucket_ - 1;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.f + it->second.delta <= boundary) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void LossyCounting::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  n_ += weight;
  auto it = entries_.find(item);
  if (it != entries_.end()) {
    it->second.f += weight;
  } else {
    entries_.emplace(item, Entry{weight, current_bucket_ - 1});
  }
  AdvanceBucketsTo(n_);
}

Count LossyCounting::Estimate(ItemId item) const {
  auto it = entries_.find(item);
  return it == entries_.end() ? 0 : it->second.f;
}

std::vector<ItemCount> LossyCounting::Candidates(size_t k) const {
  // Rank AND report f + delta, the tightest upper bound the summary knows
  // (keeps the candidate list sorted by its own reported counts; the
  // lower-bound view is available via Estimate()).
  std::vector<ItemCount> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    out.push_back({id, e.f + e.delta});
  }
  return RankByCount(std::move(out), k);
}

std::vector<ItemCount> LossyCounting::IcebergQuery(double threshold) const {
  const double cut = (threshold - epsilon_) * static_cast<double>(n_);
  std::vector<ItemCount> out;
  for (const auto& [id, e] : entries_) {
    if (static_cast<double>(e.f) >= cut) out.push_back({id, e.f});
  }
  return RankByCount(std::move(out));
}

size_t LossyCounting::SpaceBytes() const {
  return entries_.size() * (sizeof(ItemId) + sizeof(Entry) + sizeof(void*));
}

}  // namespace streamfreq
