// sfq_bench: runs one named workload and prints its metrics.
//
//   sfq_bench --workload NAME --seed N --seconds S [--trace 0|1]
//   sfq_bench                 smoke: every workload, small inputs, ~1 s each,
//                             untraced and traced, every gate on
//
// Without --trace the run measures the workload's end-to-end path for S
// seconds and reports the end-to-end metrics. With --trace 1 it measures
// the path untraced and traced (0.3 S each), runs the outside-in layer
// sweep, and reports the per-layer metrics, the ledger and the tracing
// overhead; spans go to .bench_run/trace-NAME-SEED.jsonl.
//
// Output: human-readable ledger lines, then as the last line one JSON
// object {"workload", "seed", "trace", "attempted", "failed", "metrics",
// "diagnostics", "machine"}. sfq_bench/run.py turns it into the benchmark
// result. A failed correctness gate prints the failure to stderr, no
// metrics, and exits 1.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "hash/batch_hash.h"
#include "workloads.h"

namespace streamfreq::bench {
namespace {

E2E RunE2E(const Workload& w, const RunOptions& opts, const Inputs& in,
           double seconds, bool trace) {
  switch (w.kind) {
    case Kind::kTrack:
      return RunTrack(w, opts, in, seconds, trace);
    case Kind::kServe:
      return RunServe(w, opts, in, seconds, trace);
    case Kind::kTree:
      return RunTree(w, opts, in, seconds, trace);
  }
  return E2E{};
}

// Throughput and latency. p50 and p90 are medians over windows of each
// window's percentile; p99 and p999 are whole-run percentiles, reported with
// their sample counts. None is gated: on a shared 4-core VM their run-to-run
// spread exceeds the 10% bound they were designed for (sfq_bench/README.md,
// "Findings").
void AddTailDiagnostics(const E2E& e, Metrics* out, const std::string& prefix) {
  (*out)[prefix + "ingest_p50_us"] =
      WindowedPercentile(e.ingest_us, e.ingest_windows, 0.5);
  (*out)[prefix + "query_p50_us"] =
      WindowedPercentile(e.query_us, e.query_windows, 0.5);
  (*out)[prefix + "ingest_p90_us"] =
      WindowedPercentile(e.ingest_us, e.ingest_windows, 0.9);
  (*out)[prefix + "query_p90_us"] =
      WindowedPercentile(e.query_us, e.query_windows, 0.9);
  (*out)[prefix + "ingest_p99_us"] = Percentile(e.ingest_us, 0.99);
  (*out)[prefix + "ingest_p999_us"] = Percentile(e.ingest_us, 0.999);
  (*out)[prefix + "ingest_samples"] = static_cast<double>(e.ingest_us.size());
  (*out)[prefix + "query_p99_us"] = Percentile(e.query_us, 0.99);
  (*out)[prefix + "query_samples"] = static_cast<double>(e.query_us.size());
}

void CollectGates(const E2E& e, Outcome* out) {
  out->gate_failures.insert(out->gate_failures.end(), e.gate_failures.begin(),
                            e.gate_failures.end());
  out->attempted += e.attempted;
  out->failed += e.failed;
}

Outcome Run(const RunOptions& opts) {
  const Workload& w = *opts.workload;
  const Inputs in = MakeInputs(w, opts);
  Outcome out;
  if (!opts.trace) {
    const E2E e = RunE2E(w, opts, in, opts.seconds, false);
    CollectGates(e, &out);
    out.metrics = {
        {"topk_recall", e.recall},
        {"peak_rss_mb", e.peak_rss_mb},
        {"setup_s", Median(e.setup_s)},
    };
    out.diagnostics["items_per_s"] = Median(e.rates);
    AddTailDiagnostics(e, &out.diagnostics, "");
    out.diagnostics["topk_recall_plain"] = e.recall_plain;
    out.diagnostics["rate_windows"] = static_cast<double>(e.rates.size());
    out.diagnostics["setup_reps"] = static_cast<double>(e.setup_s.size());
    return out;
  }

  const E2E base = RunE2E(w, opts, in, 0.3 * opts.seconds, false);
  const E2E traced = RunE2E(w, opts, in, 0.3 * opts.seconds, true);
  CollectGates(base, &out);
  CollectGates(traced, &out);
  Metrics layers = LayerSweep(w, opts, in);
  // What the workload observed on its own path beats the sweep's stand-in.
  for (const auto& [name, value] : traced.layer) layers[name] = value;
  layers["server.transport_us_per_request"] =
      layers["_rpc_us_mean"] - layers["server.encode_us_per_request"] -
      layers["server.decode_us_per_request"] -
      layers["server.handle_us_per_request"];
  layers["trace_overhead_frac"] = traced.unit_cost / base.unit_cost - 1;
  switch (w.kind) {
    case Kind::kTrack:
      out.ledger = TrackLedger(traced, layers);
      out.ledger_unit = "ns per item";
      break;
    case Kind::kServe:
      out.ledger = ServeLedger(traced, layers);
      out.ledger_unit = "us per ingest request (means)";
      break;
    case Kind::kTree:
      out.ledger = TreeLedger(traced, layers);
      out.ledger_unit = "ns per item";
      break;
  }
  layers["ledger.unattributed_frac"] =
      out.ledger.back().value / traced.unit_cost;
  AddTailDiagnostics(traced, &layers, "diag.");
  for (const auto& [name, value] : layers) {
    if (name[0] == '_') {
      out.diagnostics[name.substr(1)] = value;
    } else {
      out.metrics[name] = value;
    }
  }
  out.diagnostics["unit_cost_untraced"] = base.unit_cost;
  out.diagnostics["unit_cost_traced"] = traced.unit_cost;
  const std::string path = RunDir() + "/trace-" + w.name + "-" +
                           std::to_string(opts.seed) + ".jsonl";
  if (!WriteSpans(path, traced.spans)) {
    std::fprintf(stderr, "sfq_bench: cannot write %s\n", path.c_str());
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":" + Num(value);
  }
  return out + "}";
}

std::string MachineJson() {
#ifdef STREAMFREQ_FAILPOINTS
  const bool failpoints = true;
#else
  const bool failpoints = false;
#endif
  return std::string("{\"backend\":\"") + batch_hash::BackendName() +
         "\",\"failpoints\":" + (failpoints ? "true" : "false") +
         ",\"build_type\":\"" + SFQ_BENCH_BUILD_TYPE + "\"}";
}

void PrintLedger(const RunOptions& opts, const Outcome& out) {
  if (out.ledger.empty()) return;
  std::printf("ledger %s seed %llu (%s, blocking path)\n",
              opts.workload->name,
              static_cast<unsigned long long>(opts.seed),
              out.ledger_unit.c_str());
  for (const LedgerRow& row : out.ledger) {
    std::printf("  %-30s %12.3f  %s\n", row.name.c_str(), row.value,
                row.note.c_str());
  }
}

/// Prints the result, or the gate failures; returns the exit code.
int Report(const RunOptions& opts, const Outcome& out) {
  if (!out.gate_failures.empty()) {
    for (const std::string& f : out.gate_failures) {
      std::fprintf(stderr, "sfq_bench: %s: GATE FAILED: %s\n",
                   opts.workload->name, f.c_str());
    }
    return 1;
  }
  PrintLedger(opts, out);
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
      "\"failed\":%llu,\"metrics\":%s,\"diagnostics\":%s,\"machine\":%s}\n",
      opts.workload->name, static_cast<unsigned long long>(opts.seed),
      opts.trace ? 1 : 0, static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      JsonObject(out.metrics).c_str(), JsonObject(out.diagnostics).c_str(),
      MachineJson().c_str());
  std::fflush(stdout);
  return 0;
}

int Smoke() {
  int failures = 0;
  for (const Workload& w : AllWorkloads()) {
    for (const bool trace : {false, true}) {
      RunOptions opts;
      opts.workload = &w;
      opts.seconds = 1;
      opts.trace = trace;
      opts.smoke = true;
      if (Report(opts, Run(opts)) != 0) ++failures;
    }
  }
  std::printf("sfq_bench smoke: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "sfq_bench: %s\nusage: sfq_bench --workload NAME --seed N "
               "--seconds S [--trace 0|1] | (no arguments: smoke)\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  // Pinning glibc's mmap threshold turns off its dynamic raise after a large
  // free, so every sketch-sized block goes back to the kernel when freed and
  // peak RSS tracks live memory, not how many rounds a run happened to fit.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  if (argc == 1) return Smoke();
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      opts.workload = FindWorkload(value);
      if (opts.workload == nullptr) return Usage("unknown workload");
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
      if (!(opts.seconds > 0)) return Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      opts.trace = std::string(value) != "0";
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opts.workload == nullptr) return Usage("--workload is required");
  return Report(opts, Run(opts));
}

}  // namespace
}  // namespace streamfreq::bench

int main(int argc, char** argv) { return streamfreq::bench::Main(argc, argv); }
