#include "util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "hash/random.h"
#include "stream/zipf.h"
#include "util/logging.h"

namespace streamfreq::bench {

const std::vector<Workload>& AllWorkloads() {
  // Why each exists is recorded in BENCHMARK.json and sfq_bench/README.md.
  // track-spread's 10 MB sketch is larger than the 2 MB per-core L2, so its
  // scatter misses cache; track-skewed's 160 KB sketch stays in L2.
  static const std::vector<Workload> kWorkloads = {
      {"track-skewed", Kind::kTrack, 5, 4096, 256, 100000, 1.1, size_t{1} << 22,
       false, 0},
      {"track-spread", Kind::kTrack, 5, size_t{1} << 18, 256, uint64_t{1} << 24,
       0.8, size_t{1} << 22, false, 0},
      {"serve-mixed", Kind::kServe, 5, kServeWidth, 256, 100000, 1.1,
       size_t{1} << 22, false, 2e6},
      {"serve-durable", Kind::kServe, 5, kServeWidth, 256, 100000, 1.1,
       size_t{1} << 22, true, 1e6},
      {"tree-fanout4", Kind::kTree, 5, kTreeWidth, 256, 100000, 1.1,
       size_t{1} << 18, false, 0},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return SplitMix64(seed * 0x9E3779B97F4A7C15ULL ^ purpose).Next();
}

Stream ZipfStream(uint64_t universe, double z, size_t n, uint64_t seed) {
  auto gen = ZipfGenerator::Make(universe, z, seed);
  SFQ_CHECK_OK(gen.status());
  return gen->Take(n);
}

std::vector<ItemCount> ExactTop(const Stream& stream, size_t k) {
  // On a wide stream the counter holds millions of small nodes. Built on a
  // helper thread, they live in that thread's own glibc arena instead of
  // leaving the main heap fragmented for whatever is measured next.
  std::vector<ItemCount> top;
  std::thread([&] {
    ExactCounter exact;
    exact.AddAll(stream);
    top = exact.TopK(k);
  }).join();
  return top;
}

double Recall(const std::vector<ItemCount>& reported,
              const std::vector<ItemCount>& exact, double slack) {
  if (exact.empty()) return 1.0;
  const double threshold =
      (1 + slack) * static_cast<double>(exact.back().count);
  std::set<ItemId> got;
  for (const ItemCount& c : reported) got.insert(c.item);
  size_t must = 0, hits = 0;
  for (const ItemCount& c : exact) {
    if (static_cast<double>(c.count) < threshold) continue;
    ++must;
    hits += got.count(c.item);
  }
  return must == 0 ? 1.0
                   : static_cast<double>(hits) / static_cast<double>(must);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size() - 1) + 0.5));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double WindowedPercentile(const std::vector<double>& samples,
                          const std::vector<size_t>& starts, double p) {
  std::vector<double> per_window;
  for (size_t k = 0; k < starts.size(); ++k) {
    const size_t end = k + 1 < starts.size() ? starts[k + 1] : samples.size();
    if (end > starts[k]) {
      per_window.push_back(Percentile(
          std::vector<double>(samples.begin() + starts[k],
                              samples.begin() + end),
          p));
    }
  }
  return Median(per_window);
}

uint64_t Tracer::Open(const char* name, uint64_t parent, uint64_t request,
                      int64_t start_ns) {
  if (!enabled_) return 0;
  const uint64_t id = base_ + spans_.size() + 1;
  spans_.push_back(Span{id, parent, request, name, start_ns, start_ns});
  return id;
}

void Tracer::Close(uint64_t id, int64_t end_ns) {
  if (!enabled_ || id <= base_ || id - base_ > spans_.size()) return;
  spans_[id - base_ - 1].end_ns = end_ns;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto it = child_ns.find(s.id);
    SpanTotals& t = totals[s.name];
    t.total_ns += dur;
    t.self_ns += dur - (it == child_ns.end() ? 0.0 : it->second);
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

// A "Vm...:   1234 kB" field of /proc/self/status, in bytes.
double StatusBytes(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return 1024.0 * std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0;
}

double g_rss_baseline = 0;
double g_file_baseline = 0;

}  // namespace

void Presize(std::vector<double>* samples, size_t n) {
  samples->resize(n);
  samples->clear();
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
  g_rss_baseline = StatusBytes("VmRSS");
  g_file_baseline = StatusBytes("RssFile");
}

double PeakRssGrowthMb() {
  // Code pages faulted in during the run arrive in 64 KB fault-around
  // batches depending on the page cache, not on the program; they are
  // taken out so the number is the program's own memory.
  return (StatusBytes("VmHWM") - g_rss_baseline -
          (StatusBytes("RssFile") - g_file_baseline)) /
         1e6;
}

LedgerRow Residual(const char* name, double e2e,
                   const std::vector<LedgerRow>& rows) {
  double attributed = 0;
  for (const LedgerRow& r : rows) attributed += r.value;
  return LedgerRow{name, e2e - attributed,
                   "traced end-to-end cost minus the rows above"};
}

bool JsonU64(const std::string& json, const std::string& key, uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

std::string RunDir() {
  const std::string dir = ".bench_run";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

}  // namespace streamfreq::bench
