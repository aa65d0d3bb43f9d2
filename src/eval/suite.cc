#include "eval/suite.h"

#include <algorithm>
#include <cmath>

#include "core/count_min_topk.h"
#include "core/count_sketch.h"
#include "core/counter_matrix.h"
#include "core/lossy_counting.h"
#include "core/misra_gries.h"
#include "core/sampling.h"
#include "core/space_saving.h"
#include "core/stream_summary.h"
#include "core/top_k_tracker.h"
#include "core/tracked_set.h"

namespace streamfreq {

namespace {

// Rough per-entry byte cost used to translate the budget into capacities;
// it mirrors the SpaceBytes() accounting of the map-based summaries.
constexpr size_t kMapEntryBytes = 24;
constexpr size_t kSketchRowCount = 4;  // depth used by the sketch entrants

// The sketch entrant `make(width)` at the widest width whose sketch, with
// `tracked` full candidate pairs beside it, fits `budget` by the entrant's
// own SpaceBytes(). Widths step in whole cache lines of counters, the unit
// a CounterMatrix row is padded to; one line per row is the floor.
template <typename Algo, typename MakeFn>
Result<Algo> WidestWithinBudget(size_t budget, size_t tracked, MakeFn make) {
  const size_t pair_bytes = tracked * TrackedSet::kBytesPerPair;
  const size_t line_bytes =
      kSketchRowCount * CounterMatrix::kLineCounters * sizeof(int64_t);
  size_t lines = std::max<size_t>(
      1, (budget > pair_bytes ? budget - pair_bytes : 0) / line_bytes);
  for (;; --lines) {
    STREAMFREQ_ASSIGN_OR_RETURN(Algo algo,
                                make(lines * CounterMatrix::kLineCounters));
    if (lines == 1 || algo.sketch().SpaceBytes() + pair_bytes <= budget) {
      return algo;
    }
  }
}

size_t EntriesForBudget(size_t budget, size_t per_entry) {
  return std::max<size_t>(1, budget / per_entry);
}

template <typename T>
std::unique_ptr<StreamSummary> Box(T&& v) {
  return std::make_unique<T>(std::forward<T>(v));
}

}  // namespace

Result<std::unique_ptr<StreamSummary>> MakeAlgorithm(AlgorithmKind kind,
                                                     const SuiteSpec& spec) {
  if (spec.k == 0 || spec.space_budget_bytes == 0) {
    return Status::InvalidArgument("SuiteSpec: k and budget must be positive");
  }
  const size_t tracked = 2 * spec.k;
  const double n = static_cast<double>(spec.expected_stream_length);

  switch (kind) {
    case AlgorithmKind::kCountSketchTopK: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          CountSketchTopK algo,
          WidestWithinBudget<CountSketchTopK>(
              spec.space_budget_bytes, tracked, [&](size_t width) {
                CountSketchParams p;
                p.depth = kSketchRowCount;
                p.width = width;
                p.seed = spec.seed;
                return CountSketchTopK::Make(p, tracked);
              }));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kCountMinTopK:
    case AlgorithmKind::kCountMinConservativeTopK: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          CountMinTopK algo,
          WidestWithinBudget<CountMinTopK>(
              spec.space_budget_bytes, tracked, [&](size_t width) {
                CountMinParams p;
                p.depth = kSketchRowCount;
                p.width = width;
                p.seed = spec.seed;
                p.conservative =
                    kind == AlgorithmKind::kCountMinConservativeTopK;
                return CountMinTopK::Make(p, tracked);
              }));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kMisraGries: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          MisraGries algo,
          MisraGries::Make(EntriesForBudget(spec.space_budget_bytes,
                                            kMapEntryBytes)));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kLossyCounting: {
      // Expected live entries ~ (1/eps) log(eps n); budget the 1/eps part
      // with a 2x log-slack so the realized footprint lands near budget.
      const size_t entries =
          EntriesForBudget(spec.space_budget_bytes, 2 * kMapEntryBytes);
      const double eps =
          std::min(0.5, std::max(1e-9, 1.0 / static_cast<double>(entries)));
      STREAMFREQ_ASSIGN_OR_RETURN(LossyCounting algo, LossyCounting::Make(eps));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kSpaceSaving: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          SpaceSaving algo,
          SpaceSaving::Make(EntriesForBudget(spec.space_budget_bytes,
                                             2 * kMapEntryBytes)));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kStreamSummarySpaceSaving: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          StreamSummarySpaceSaving algo,
          StreamSummarySpaceSaving::Make(
              EntriesForBudget(spec.space_budget_bytes, 2 * kMapEntryBytes)));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kStickySampling: {
      // Expected entries ~ (2/eps) * ln(1/(s*delta)) with eps = s/2; solve
      // s from the budget with one fixed-point iteration on the log factor.
      const double entries = static_cast<double>(
          EntriesForBudget(spec.space_budget_bytes, kMapEntryBytes));
      constexpr double kDelta = 0.1;
      double support = std::min(0.5, std::max(1e-8, 4.0 / entries));
      const double log_factor = std::log(1.0 / (support * kDelta));
      support = std::min(0.5, std::max(1e-8, 4.0 * log_factor / entries));
      STREAMFREQ_ASSIGN_OR_RETURN(
          StickySampling algo,
          StickySampling::Make(support, support / 2.0, kDelta, spec.seed));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kSampling: {
      // Inclusion probability sized so the expected sample fits the budget.
      const double sample_size = static_cast<double>(
          EntriesForBudget(spec.space_budget_bytes, kMapEntryBytes));
      const double p = std::min(1.0, std::max(1e-12, sample_size / n));
      STREAMFREQ_ASSIGN_OR_RETURN(SamplingSummary algo,
                                  SamplingSummary::Make(p, spec.seed));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kConciseSampling: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          ConciseSampling algo,
          ConciseSampling::Make(EntriesForBudget(spec.space_budget_bytes,
                                                 kMapEntryBytes),
                                spec.seed));
      return Box(std::move(algo));
    }
    case AlgorithmKind::kCountingSampling: {
      STREAMFREQ_ASSIGN_OR_RETURN(
          CountingSampling algo,
          CountingSampling::Make(EntriesForBudget(spec.space_budget_bytes,
                                                  kMapEntryBytes),
                                 spec.seed));
      return Box(std::move(algo));
    }
  }
  return Status::InvalidArgument("MakeAlgorithm: unknown kind");
}

Result<std::vector<std::unique_ptr<StreamSummary>>> MakeDefaultSuite(
    const SuiteSpec& spec) {
  static constexpr AlgorithmKind kAll[] = {
      AlgorithmKind::kCountSketchTopK,
      AlgorithmKind::kCountMinTopK,
      AlgorithmKind::kCountMinConservativeTopK,
      AlgorithmKind::kMisraGries,
      AlgorithmKind::kLossyCounting,
      AlgorithmKind::kSpaceSaving,
      AlgorithmKind::kStreamSummarySpaceSaving,
      AlgorithmKind::kStickySampling,
      AlgorithmKind::kSampling,
      AlgorithmKind::kConciseSampling,
      AlgorithmKind::kCountingSampling,
  };
  std::vector<std::unique_ptr<StreamSummary>> suite;
  suite.reserve(std::size(kAll));
  for (AlgorithmKind kind : kAll) {
    STREAMFREQ_ASSIGN_OR_RETURN(auto algo, MakeAlgorithm(kind, spec));
    suite.push_back(std::move(algo));
  }
  return suite;
}

}  // namespace streamfreq
