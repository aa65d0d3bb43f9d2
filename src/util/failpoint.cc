#include "util/failpoint.h"

#include <cstdlib>

namespace streamfreq {

namespace {

// The canonical site list. Adding a site means planting SFQ_FAILPOINT in
// exactly one place, adding its name here, and documenting it in
// docs/ROBUSTNESS.md (sfq-lint's failpoint-site rule checks all three).
const std::vector<std::string>* BuildKnownSites() {
  return new std::vector<std::string>{
      "batch_queue.push",        // producer hand-off (stall, error)
      "batch_queue.pop",         // consumer hand-off (stall)
      "ingestor.worker_batch",   // per popped batch (crash, stall, error)
      "ingestor.publish",        // snapshot fold (error)
      "sketch_io.write",         // payload write (error, torn)
      "sketch_io.rename",        // atomic-rename commit (error)
      "sketch_io.read",          // load path (error, bitflip)
      "server.accept",           // drop a just-accepted connection (error)
      "server.read",             // sever before reading a frame (error)
      "server.write",            // sever before writing a response (error)
      "server.publish",          // withhold a snapshot refresh (error)
      "wal.append",              // journal record write (error, torn, crash)
      "wal.fsync",               // journal durability barrier (error, crash)
      "snapshot.publish",        // tenant snapshot commit (error, stall, crash)
      "snapshot.cut",            // journal cut, before the fold (error, crash)
      "snapshot.unlink",         // after the rename, before unlink (error, crash)
      "dist.ingest",             // leaf admission (error, torn, crash)
      "dist.ship",               // uplink frame (error, torn, bitflip)
      "dist.deliver",            // parent apply (error = drop, old ack)
      "dist.ack",                // downlink ack (error = lost)
      "dist.node",               // merge-tree node (crash = permanent loss)
  };
}

double NextUnit(SplitMix64* rng) {
  // 53 random bits into [0, 1).
  return static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
}

Status ParseAction(const std::string& text, FailAction* out) {
  if (text == "off") {
    *out = FailAction::kNone;
  } else if (text == "error") {
    *out = FailAction::kError;
  } else if (text == "stall") {
    *out = FailAction::kStall;
  } else if (text == "crash") {
    *out = FailAction::kCrash;
  } else if (text == "torn") {
    *out = FailAction::kTorn;
  } else if (text == "bitflip") {
    *out = FailAction::kBitFlip;
  } else {
    return Status::InvalidArgument("failpoint: unknown action: " + text);
  }
  return Status::OK();
}

Status ParseUint(const std::string& what, const std::string& text,
                 uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || text.empty()) {
    return Status::InvalidArgument("failpoint: bad " + what + ": " + text);
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

}  // namespace

std::atomic<bool> FailpointRegistry::crash_kills_process_{false};

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

const std::vector<std::string>& FailpointRegistry::KnownSites() {
  static const std::vector<std::string>* sites = BuildKnownSites();
  return *sites;
}

bool FailpointRegistry::IsKnownSite(const std::string& site) {
  for (const std::string& known : KnownSites()) {
    if (known == site) return true;
  }
  return false;
}

Status FailpointRegistry::Configure(const std::string& spec, uint64_t seed) {
  Disarm();
  if (spec.empty()) return Status::OK();

  std::map<std::string, Clause> parsed;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string clause_text = spec.substr(begin, end - begin);
    begin = end + 1;
    if (clause_text.empty()) continue;

    const size_t eq = clause_text.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint: clause without '=': " +
                                     clause_text);
    }
    const std::string site = clause_text.substr(0, eq);
    if (!IsKnownSite(site)) {
      return Status::InvalidArgument("failpoint: unknown site: " + site);
    }

    // action[:param][@probability][*count] — suffixes in any order.
    std::string rest = clause_text.substr(eq + 1);
    Clause clause;
    const size_t suffix = rest.find_first_of(":@*");
    std::string action_text =
        suffix == std::string::npos ? rest : rest.substr(0, suffix);
    STREAMFREQ_RETURN_NOT_OK(ParseAction(action_text, &clause.action));
    size_t pos = action_text.size();
    while (pos < rest.size()) {
      const char tag = rest[pos];
      size_t next = rest.find_first_of(":@*", pos + 1);
      if (next == std::string::npos) next = rest.size();
      const std::string value = rest.substr(pos + 1, next - pos - 1);
      pos = next;
      if (tag == ':') {
        STREAMFREQ_RETURN_NOT_OK(ParseUint("param", value, &clause.param));
      } else if (tag == '*') {
        STREAMFREQ_RETURN_NOT_OK(ParseUint("count", value, &clause.max_fires));
        if (clause.max_fires == 0) {
          return Status::InvalidArgument("failpoint: *count must be >= 1");
        }
      } else {  // '@'
        char* num_end = nullptr;
        clause.probability = std::strtod(value.c_str(), &num_end);
        if (num_end == value.c_str() || *num_end != '\0' ||
            !(clause.probability >= 0.0 && clause.probability <= 1.0)) {
          return Status::InvalidArgument("failpoint: probability not in "
                                         "[0, 1]: " + value);
        }
      }
    }
    if (clause.action != FailAction::kNone) {
      parsed[site] = clause;
    }
  }

  MutexLock lock(mu_);
  clauses_ = std::move(parsed);
  rng_ = SplitMix64(seed ^ 0xFA17F017FA17F017ULL);
  armed_.store(!clauses_.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void FailpointRegistry::Disarm() {
  MutexLock lock(mu_);
  clauses_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

FailDecision FailpointRegistry::Evaluate(const char* site) {
  // The disarmed fast path: one relaxed load, no lock. Production builds
  // that never Configure pay only this.
  if (!armed_.load(std::memory_order_relaxed)) return {};
  MutexLock lock(mu_);
  const auto it = clauses_.find(site);
  if (it == clauses_.end()) return {};
  Clause& clause = it->second;
  if (clause.max_fires > 0 && clause.fires >= clause.max_fires) return {};
  if (clause.probability < 1.0 && NextUnit(&rng_) >= clause.probability) {
    return {};
  }
  ++clause.fires;
  FailDecision decision;
  decision.action = clause.action;
  decision.param = clause.param;
  if (clause.action == FailAction::kBitFlip && decision.param == 0) {
    decision.param = rng_.Next();  // site maps onto payload bits
  }
  return decision;
}

uint64_t FailpointRegistry::Fires(const std::string& site) const {
  MutexLock lock(mu_);
  const auto it = clauses_.find(site);
  return it == clauses_.end() ? 0 : it->second.fires;
}

uint64_t FailpointRegistry::TotalFires() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [site, clause] : clauses_) total += clause.fires;
  return total;
}

}  // namespace streamfreq
