// Deterministic failpoint injection for chaos testing.
//
// A failpoint is a named site in library code where a fault can be injected
// at runtime: an error return, a stall, a simulated worker crash, a torn
// write, or a flipped bit. Sites are planted with the SFQ_FAILPOINT macro
// and do nothing unless a spec string arms them, so production code paths
// keep their exact shape:
//
//   if (const FailDecision fp = SFQ_FAILPOINT("batch_queue.push");
//       fp.action == FailAction::kError) {
//     return QueuePushResult::kClosed;
//   }
//
// Cost model: with STREAMFREQ_FAILPOINTS compiled OFF the macro expands to
// an empty decision and the branch folds away entirely (zero overhead —
// bench_failpoint_overhead sanity-checks the disarmed path, and
// scripts/check.sh compiles the OFF configuration). Compiled ON but
// disarmed, Evaluate is one relaxed atomic load and a predicted branch.
//
// Spec grammar (see docs/ROBUSTNESS.md):
//
//   spec    := clause (';' clause)*
//   clause  := site '=' action [':' param] ['@' probability] ['*' count]
//   action  := off | error | stall | crash | torn | bitflip
//
//   batch_queue.push=error@0.01           fail 1% of pushes
//   ingestor.worker_batch=crash@0.1*2     kill a worker twice, p=0.1 each
//   sketch_io.write=torn*1                tear exactly one write
//   batch_queue.pop=stall:20              sleep 20 ms on every pop
//
// `param` is action-specific: milliseconds for stall, payload bytes kept
// for torn (0 = half), bit index for bitflip (0 = seeded-random bit).
// Probabilities are resolved by a seeded generator, so a whole chaos
// campaign replays bit-identically from (spec, seed).
//
// Site names must be string literals registered in KnownSites() and
// documented in docs/ROBUSTNESS.md — sfq-lint's failpoint-site rule
// enforces both, and Configure rejects unknown sites so spec typos fail
// loudly instead of silently injecting nothing.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/splitmix64.h"
#include "util/status.h"

#include <atomic>

namespace streamfreq {

/// What an armed failpoint tells its site to do.
enum class FailAction : uint8_t {
  kNone = 0,   ///< proceed normally
  kError,      ///< return the site's injected-failure Status/result
  kStall,      ///< sleep `param` milliseconds, then proceed
  kCrash,      ///< simulate the death of the executing worker
  kTorn,       ///< write only a prefix (persistence sites)
  kBitFlip,    ///< flip payload bit `param` (read sites)
};

/// One evaluation's verdict: the action to take plus its parameter.
struct FailDecision {
  FailAction action = FailAction::kNone;
  uint64_t param = 0;  ///< stall ms / torn bytes kept / bit index

  explicit operator bool() const { return action != FailAction::kNone; }
};

/// The process-wide registry of armed failpoints. Thread-safe; Evaluate may
/// be called concurrently from workers, producers, and I/O paths.
class FailpointRegistry {
 public:
  /// The singleton all SFQ_FAILPOINT sites consult.
  static FailpointRegistry& Global();

  /// Arms the registry from a spec string (replacing any previous
  /// configuration) with a deterministic probability stream derived from
  /// `seed`. An empty spec disarms. Unknown sites, actions, or malformed
  /// clauses are InvalidArgument and leave the registry disarmed.
  Status Configure(const std::string& spec, uint64_t seed);

  /// Disarms every site and clears counters.
  void Disarm();

  /// The decision for one arrival at `site`. kNone when disarmed, when the
  /// site has no clause, when the probability roll passes, or when the
  /// clause's fire budget is spent.
  FailDecision Evaluate(const char* site);

  /// Times `site` resolved to a non-kNone action since Configure.
  uint64_t Fires(const std::string& site) const;

  /// Total fires across all sites since Configure.
  uint64_t TotalFires() const;

  /// True iff any clause is armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Every site name planted in the library, in stable order. Configure
  /// validates against this list, as does sfq-lint's failpoint-site rule.
  static const std::vector<std::string>& KnownSites();

  /// True iff `site` is in KnownSites().
  static bool IsKnownSite(const std::string& site);

  /// Process-crash mode: when enabled, a kCrash decision at a persistence
  /// site (wal.*, snapshot.publish, sketch_io.*) terminates the whole
  /// process via MaybeDieAtFailpoint instead of being interpreted as a
  /// simulated worker death. Only `sfq serve` turns this on — in-process
  /// tests and the library-level chaos harness must keep running, so the
  /// default is off.
  static void SetCrashKillsProcess(bool enabled) {
    crash_kills_process_.store(enabled, std::memory_order_relaxed);
  }
  static bool CrashKillsProcess() {
    return crash_kills_process_.load(std::memory_order_relaxed);
  }

 private:
  struct Clause {
    FailAction action = FailAction::kNone;
    double probability = 1.0;
    uint64_t param = 0;
    uint64_t max_fires = 0;  ///< 0 = unlimited
    uint64_t fires = 0;
  };

  mutable Mutex mu_;
  std::map<std::string, Clause> clauses_ SFQ_GUARDED_BY(mu_);
  SplitMix64 rng_ SFQ_GUARDED_BY(mu_){0};
  // Fast disarmed check so un-armed evaluations never take the mutex.
  std::atomic<bool> armed_{false};
  static std::atomic<bool> crash_kills_process_;
};

/// Kills the process (exit code 137, the SIGKILL convention) when `decision`
/// is kCrash and process-crash mode is on. Persistence sites call this
/// right after evaluating their failpoint so the kill-restart chaos
/// campaign can SIGKILL a real daemon mid-write; everywhere else kCrash
/// keeps its in-process meaning.
inline void MaybeDieAtFailpoint(const FailDecision& decision) {
  if (decision.action == FailAction::kCrash &&
      FailpointRegistry::CrashKillsProcess()) {
    std::_Exit(137);
  }
}

/// RAII arming for tests and the chaos harness: configures the global
/// registry on construction, disarms on destruction. Check status() before
/// relying on the spec having taken effect.
class ScopedFailpoints {
 public:
  ScopedFailpoints(const std::string& spec, uint64_t seed)
      : status_(FailpointRegistry::Global().Configure(spec, seed)) {}
  ~ScopedFailpoints() { FailpointRegistry::Global().Disarm(); }

  STREAMFREQ_DISALLOW_COPY_AND_ASSIGN(ScopedFailpoints);

  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace streamfreq

// Plants a failpoint site. `site` must be a string literal registered in
// FailpointRegistry::KnownSites() (enforced by sfq-lint's failpoint-site
// rule). Expands to an empty FailDecision when failpoints are compiled out.
#if STREAMFREQ_FAILPOINTS
#define SFQ_FAILPOINT(site) \
  (::streamfreq::FailpointRegistry::Global().Evaluate(site))
#else
#define SFQ_FAILPOINT(site) (::streamfreq::FailDecision{})
#endif
