// Shared plumbing for sfq_bench: workload table, spans, sample statistics,
// peak-RSS accounting and the per-run result record.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/types.h"

namespace streamfreq::bench {

enum class Kind { kTrack, kServe, kTree };

/// One named workload. Every input stream is derived from --seed; the
/// program under test only ever sees the generated items.
struct Workload {
  const char* name;
  Kind kind;
  size_t depth;      ///< t: sketch rows of the workload's own sketch
  size_t width;      ///< b: buckets per row
  size_t tracked;    ///< l: candidate slots (tracker heap / tenant / leaf)
  uint64_t universe; ///< distinct ids the Zipf law ranges over
  double zipf;       ///< skew z
  size_t items;      ///< stream length (track, serve) or items per leaf (tree)
  bool durable;      ///< serve: tenant journals to a data_dir
  double rate;       ///< serve: open-loop reference rate, items/s
};

/// The five workloads, in run order; nullptr when `name` is unknown.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

/// Fixed shapes shared by a workload and by the layer sweeps that borrow
/// its layer (server tenant, merge tree).
inline constexpr size_t kRequestItems = 512;   ///< items per ingest request
inline constexpr size_t kTopKTracker = 100;  ///< k of the trackers' top-k
/// k of the top-k answered from an aggregated sketch: a served tenant's, and
/// the merge tree root's. At the tree's b=2048 over 4M items the sketch's
/// own error drops true top-100 items of up to 1.3 times the 100th count
/// on some seeds (sfq_bench/README.md, "Findings"), so the root is asked
/// for the top 10.
inline constexpr size_t kTopKAggregate = 10;
inline constexpr double kQueryRate = 200;       ///< served queries per second
inline constexpr size_t kTreeLeaves = 16;
inline constexpr size_t kTreeFanout = 4;
inline constexpr size_t kTreeDeltaEvery = 4096;
inline constexpr size_t kTreeWidth = 2048;
inline constexpr size_t kServeWidth = 4096;

/// Command-line options of one run.
struct RunOptions {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< scaled-down inputs (the no-argument smoke run)
};

/// Derives an independent 64-bit seed for one purpose from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// `n` i.i.d. Zipf(z) draws over `universe` ids.
Stream ZipfStream(uint64_t universe, double z, size_t n, uint64_t seed);

/// The exact top-k of `stream` (ExactCounter, ties toward smaller ids).
std::vector<ItemCount> ExactTop(const Stream& stream, size_t k);

/// Of the exact top-k items (`exact`, counts descending) whose count is at
/// least (1 + slack) times the k-th largest count, the share `reported`
/// contains, comparing item ids only. slack 0 is the plain top-k recall.
double Recall(const std::vector<ItemCount>& reported,
              const std::vector<ItemCount>& exact, double slack);

/// The slack of the gated topk_recall. ApproxTop's guarantee (Section 3.2
/// of the paper) bounds how far a reported item's count may fall below the
/// k-th count; symmetrically, an item more than this share above it must be
/// reported. Items closer to the k-th count than that may trade places with
/// their neighbours under any approximate answer, so recall over them
/// differs from seed to seed without saying anything about the code.
inline constexpr double kRecallSlack = 0.1;

/// Keeps a value the timed code computed from being optimized away.
template <typename T>
inline void KeepLive(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- statistics -----------------------------------------------------------

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);
/// Median over windows of the p-th percentile within each window; window k
/// spans [starts[k], starts[k+1]). Empty windows are skipped.
double WindowedPercentile(const std::vector<double>& samples,
                          const std::vector<size_t>& starts, double p);

// --- spans ------------------------------------------------------------------

/// One timed call the bench made into the library. Spans of one request
/// share `request`; `parent` is 0 for a request's root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder, one per thread. Disabled tracers record
/// nothing and return id 0, so call sites need no branches.
class Tracer {
 public:
  /// `id_base` keeps ids of tracers on different threads disjoint.
  Tracer(bool enabled, uint64_t id_base) : enabled_(enabled), base_(id_base) {}

  uint64_t Open(const char* name, uint64_t parent, uint64_t request,
                int64_t start_ns);
  uint64_t Open(const char* name, uint64_t parent, uint64_t request) {
    return enabled_ ? Open(name, parent, request, NowNs()) : 0;
  }
  void Close(uint64_t id, int64_t end_ns);
  void Close(uint64_t id) {
    if (enabled_) Close(id, NowNs());
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t base_;
  std::vector<Span> spans_;
};

/// Per-name totals over a span set. Self time is a span's duration minus
/// the part its direct children cover.
struct SpanTotals {
  double total_ns = 0;
  double self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes spans as JSON lines (id, parent, request, name, start_ns, end_ns).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// --- memory -----------------------------------------------------------------

/// Gives `samples` room for `n` values and touches it, so the sample
/// buffer's pages are resident before ResetPeakRss and never count as the
/// program's memory.
void Presize(std::vector<double>* samples, size_t n);

/// Resets the kernel's peak-RSS mark to the current RSS (clear_refs 5) and
/// remembers that RSS as the baseline.
void ResetPeakRss();
/// Peak RSS growth since ResetPeakRss, less file-backed pages mapped since,
/// in MB (1e6 bytes).
double PeakRssGrowthMb();

// --- results ----------------------------------------------------------------

/// Named values, printed with every digit.
using Metrics = std::map<std::string, double>;

/// One line of a workload's ledger: a layer's self time per unit of work
/// on the blocking path, or the unattributed residual.
struct LedgerRow {
  std::string name;
  double value = 0;
  std::string note;
};

/// The closing ledger row: `e2e` minus every row above it.
LedgerRow Residual(const char* name, double e2e,
                   const std::vector<LedgerRow>& rows);

/// What one workload run produced. A non-empty gate_failures means the
/// outputs were wrong and no metric may be reported.
struct Outcome {
  Metrics metrics;      ///< end-to-end metrics, or per-layer with --trace
  Metrics diagnostics;  ///< printed for people, never gated
  std::vector<LedgerRow> ledger;
  std::string ledger_unit;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
};

/// Extracts the first `"key":<u64>` from a flat JSON text; false if absent.
bool JsonU64(const std::string& json, const std::string& key, uint64_t* out);

/// Directory for sockets, journals and span files, relative to the
/// working directory (the checkout root when run through run.py).
std::string RunDir();

}  // namespace streamfreq::bench
