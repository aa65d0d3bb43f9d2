#include "core/sampling.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace streamfreq {

namespace {

/// Scales each sampled count and returns the top k in RankByCount order.
std::vector<ItemCount> RankedTopK(const std::unordered_map<ItemId, Count>& table,
                                  size_t k, double scale) {
  std::vector<ItemCount> out;
  out.reserve(table.size());
  for (const auto& [id, c] : table) {
    out.push_back({id, static_cast<Count>(std::llround(
                           static_cast<double>(c) * scale))});
  }
  return RankByCount(std::move(out), k);
}

/// Draws Binomial(n, p) — exact via per-trial coins for small n, normal
/// approximation clamped to [0, n] for large n (thinning only needs the
/// right distribution shape, and entries with huge counts are the heavy
/// hitters we must not lose: the approximation keeps their mean exact).
Count BinomialThin(Count n, double p, Xoshiro256& rng) {
  if (n <= 0 || p >= 1.0) return n;
  if (p <= 0.0) return 0;
  if (n <= 64) {
    Count kept = 0;
    for (Count i = 0; i < n; ++i) {
      if (rng.UniformDouble() < p) ++kept;
    }
    return kept;
  }
  const double mean = static_cast<double>(n) * p;
  const double stddev = std::sqrt(mean * (1.0 - p));
  // Box-Muller normal draw.
  const double u1 = std::max(rng.UniformDouble(), 1e-18);
  const double u2 = rng.UniformDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958647692 * u2);
  const double draw = mean + stddev * z;
  return std::clamp<Count>(static_cast<Count>(std::llround(draw)), 0, n);
}

constexpr size_t kMapEntryBytes = sizeof(ItemId) + sizeof(Count) + sizeof(void*);

}  // namespace

// ---------------------------------------------------------------- SAMPLING

Result<SamplingSummary> SamplingSummary::Make(double inclusion_probability,
                                              uint64_t seed) {
  if (!(inclusion_probability > 0.0) || inclusion_probability > 1.0) {
    return Status::InvalidArgument(
        "SamplingSummary: inclusion probability must be in (0, 1]");
  }
  return SamplingSummary(inclusion_probability, seed);
}

SamplingSummary::SamplingSummary(double p, uint64_t seed) : p_(p), rng_(seed) {}

std::string SamplingSummary::Name() const {
  return "Sampling(p=" + std::to_string(p_) + ")";
}

void SamplingSummary::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  const Count kept = BinomialThin(weight, p_, rng_);
  if (kept > 0) sample_[item] += kept;
}

Count SamplingSummary::Estimate(ItemId item) const {
  auto it = sample_.find(item);
  if (it == sample_.end()) return 0;
  return static_cast<Count>(std::llround(static_cast<double>(it->second) / p_));
}

std::vector<ItemCount> SamplingSummary::Candidates(size_t k) const {
  return RankedTopK(sample_, k, 1.0 / p_);
}

size_t SamplingSummary::SpaceBytes() const {
  return sample_.size() * kMapEntryBytes;
}

// ---------------------------------------------------------------- Concise

Result<ConciseSampling> ConciseSampling::Make(size_t max_entries, uint64_t seed) {
  if (max_entries == 0) {
    return Status::InvalidArgument("ConciseSampling: max_entries must be positive");
  }
  return ConciseSampling(max_entries, seed);
}

ConciseSampling::ConciseSampling(size_t max_entries, uint64_t seed)
    : max_entries_(max_entries), rng_(seed) {}

std::string ConciseSampling::Name() const {
  return "ConciseSamples(max=" + std::to_string(max_entries_) + ")";
}

void ConciseSampling::EvictToBudget() {
  // Raise tau geometrically and binomially thin every entry until the
  // distinct-entry budget holds again (Gibbons-Matias eviction).
  while (sample_.size() > max_entries_) {
    const double new_tau = tau_ * 1.5;
    const double keep = tau_ / new_tau;
    for (auto it = sample_.begin(); it != sample_.end();) {
      it->second = BinomialThin(it->second, keep, rng_);
      if (it->second == 0) {
        it = sample_.erase(it);
      } else {
        ++it;
      }
    }
    tau_ = new_tau;
  }
}

void ConciseSampling::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  const Count kept = BinomialThin(weight, 1.0 / tau_, rng_);
  if (kept > 0) {
    sample_[item] += kept;
    EvictToBudget();
  }
}

Count ConciseSampling::Estimate(ItemId item) const {
  auto it = sample_.find(item);
  if (it == sample_.end()) return 0;
  return static_cast<Count>(
      std::llround(static_cast<double>(it->second) * tau_));
}

std::vector<ItemCount> ConciseSampling::Candidates(size_t k) const {
  return RankedTopK(sample_, k, tau_);
}

size_t ConciseSampling::SpaceBytes() const {
  return sample_.size() * kMapEntryBytes;
}

// --------------------------------------------------------------- Counting

Result<CountingSampling> CountingSampling::Make(size_t max_entries,
                                                uint64_t seed) {
  if (max_entries == 0) {
    return Status::InvalidArgument(
        "CountingSampling: max_entries must be positive");
  }
  return CountingSampling(max_entries, seed);
}

CountingSampling::CountingSampling(size_t max_entries, uint64_t seed)
    : max_entries_(max_entries), rng_(seed) {}

std::string CountingSampling::Name() const {
  return "CountingSamples(max=" + std::to_string(max_entries_) + ")";
}

void CountingSampling::EvictToBudget() {
  // Gibbons-Matias eviction: on raising tau, each entry flips coins at the
  // new rate, decrementing its count until the first success; entries
  // reaching zero are removed. Heavy items lose O(1) counts in expectation
  // while lightly-counted entries are flushed.
  while (sample_.size() > max_entries_) {
    const double new_tau = tau_ * 1.5;
    const double keep = tau_ / new_tau;
    for (auto it = sample_.begin(); it != sample_.end();) {
      while (it->second > 0 && rng_.UniformDouble() >= keep) {
        --it->second;
      }
      if (it->second == 0) {
        it = sample_.erase(it);
      } else {
        ++it;
      }
    }
    tau_ = new_tau;
  }
}

void CountingSampling::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  auto it = sample_.find(item);
  if (it != sample_.end()) {
    // Already monitored: count exactly.
    it->second += weight;
    return;
  }
  // Admission: first success among `weight` coins at rate 1/tau admits the
  // item; occurrences after the admitting one are counted exactly.
  for (Count i = 0; i < weight; ++i) {
    if (rng_.UniformDouble() < 1.0 / tau_) {
      sample_[item] = weight - i;
      EvictToBudget();
      return;
    }
  }
}

Count CountingSampling::Estimate(ItemId item) const {
  auto it = sample_.find(item);
  if (it == sample_.end()) return 0;
  // Expected occurrences missed before admission: tau - 1.
  return it->second + static_cast<Count>(std::llround(tau_ - 1.0));
}

std::vector<ItemCount> CountingSampling::Candidates(size_t k) const {
  std::vector<ItemCount> out;
  out.reserve(sample_.size());
  const Count correction = static_cast<Count>(std::llround(tau_ - 1.0));
  for (const auto& [id, c] : sample_) out.push_back({id, c + correction});
  return RankByCount(std::move(out), k);
}

size_t CountingSampling::SpaceBytes() const {
  return sample_.size() * kMapEntryBytes;
}

// ----------------------------------------------------------------- Sticky

Result<StickySampling> StickySampling::Make(double support, double epsilon,
                                            double delta, uint64_t seed) {
  if (!(support > 0.0) || support >= 1.0) {
    return Status::InvalidArgument("StickySampling: support must be in (0, 1)");
  }
  if (!(epsilon > 0.0) || epsilon >= support) {
    return Status::InvalidArgument(
        "StickySampling: epsilon must be in (0, support)");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return Status::InvalidArgument("StickySampling: delta must be in (0, 1)");
  }
  return StickySampling(support, epsilon, delta, seed);
}

StickySampling::StickySampling(double support, double epsilon, double delta,
                               uint64_t seed)
    : support_(support),
      epsilon_(epsilon),
      delta_(delta),
      rng_(seed) {
  // t = (1/eps) * ln(1/(s*delta)); the first 2t arrivals are sampled at
  // rate 1, the next 2t at rate 2, then 4t at rate 4, ... (Manku-Motwani).
  t_ = std::max<Count>(
      1, static_cast<Count>(std::ceil(std::log(1.0 / (support * delta)) / epsilon)));
  epoch_end_ = 2 * t_;
}

std::string StickySampling::Name() const {
  return "StickySampling(s=" + std::to_string(support_) +
         ",eps=" + std::to_string(epsilon_) + ")";
}

void StickySampling::AdvanceEpoch() {
  rate_ *= 2.0;
  epoch_end_ += static_cast<Count>(rate_) * t_;
  // Diminish each entry: toss unbiased coins, decrement until heads; drop
  // entries reaching zero. This re-normalizes counts to the new rate.
  for (auto it = entries_.begin(); it != entries_.end();) {
    while (it->second > 0 && rng_.UniformDouble() < 0.5) {
      --it->second;
    }
    if (it->second == 0) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void StickySampling::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  for (Count i = 0; i < weight; ++i) {
    ++n_;
    if (n_ > epoch_end_) AdvanceEpoch();
    auto it = entries_.find(item);
    if (it != entries_.end()) {
      ++it->second;
    } else if (rng_.UniformDouble() < 1.0 / rate_) {
      entries_[item] = 1;
    }
  }
}

Count StickySampling::Estimate(ItemId item) const {
  auto it = entries_.find(item);
  return it == entries_.end() ? 0 : it->second;
}

std::vector<ItemCount> StickySampling::Candidates(size_t k) const {
  return RankedTopK(entries_, k, 1.0);
}

size_t StickySampling::SpaceBytes() const {
  return entries_.size() * kMapEntryBytes;
}

}  // namespace streamfreq
