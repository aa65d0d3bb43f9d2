// Wire protocol for `sfq serve`: length-prefixed binary frames over local
// sockets.
//
// A frame is one RPC frame (util/net.h: a util/frame.h frame under
// kFrameMagic, "SFQRPC01"), so a truncated, torn, or bit-flipped frame is
// detected before any field of the payload is trusted. Payloads are
// ByteWriter/ByteReader encodings of Request/Response; every
// variable-length field is length-prefixed and length-checked against the
// bytes actually present BEFORE allocation, and trailing bytes after the
// last field are corruption — the decoder accepts exactly the encodings
// the encoder produces (the corruption-matrix test in
// tests/server_protocol_test.cc walks every truncation boundary).
//
// Every opcode lives in ONE registry table (kOpcodeTable in protocol.cc,
// exposed via OpcodeTable()); call sites use the Opcode enumerators and
// the lookup helpers, never raw numbers — sfq-lint's server-opcode rule
// enforces both directions (every enumerator registered, no numeric
// Opcode casts outside the registry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "concurrent/parallel_ingestor.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/bytes.h"
#include "util/net.h"
#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// Every request type the server understands. Values are the wire encoding;
/// append-only (renumbering is a protocol break).
enum class Opcode : uint8_t {
  kPing = 0,          ///< liveness probe, no tenant
  kCreateTenant = 1,  ///< register a tenant namespace with a TenantSpec
  kDropTenant = 2,    ///< drain and delete a tenant
  kIngest = 3,        ///< append a batch of items to a tenant's stream
  kSeal = 4,          ///< drain the tenant's ingestor; tenant becomes read-only
  kTopK = 5,          ///< top-k candidates scored on the latest snapshot
  kEstimate = 6,      ///< point estimate of one item
  kMarkEpoch = 7,     ///< remember the current snapshot for max-change
  kMaxChange = 8,     ///< top-k |delta| since the marked snapshot
  kExport = 9,        ///< serialized sketch snapshot (sketch_io payload)
  kStatsz = 10,       ///< JSON server + per-tenant stats (no tenant needed)
  kShutdown = 11,     ///< stop the server after responding
  kRecoveryInfo = 12, ///< JSON recovery report for one durable tenant
};

/// Number of registered opcodes; enumerators are dense in [0, kOpcodeCount).
inline constexpr size_t kOpcodeCount = 13;

/// One row of the opcode registry.
struct OpcodeInfo {
  Opcode op;
  const char* name;   ///< stable lowercase name (CLI --op, logs, statsz)
  bool needs_tenant;  ///< server rejects the request without a valid tenant
};

/// The single registry table, kOpcodeCount rows in enumerator order.
std::span<const OpcodeInfo> OpcodeTable();

/// Registry lookups. Raw values and names that are not registered are
/// InvalidArgument — the decoder never fabricates an Opcode outside the
/// table.
const char* OpcodeName(Opcode op);
Result<Opcode> LookupOpcode(uint64_t raw);
Result<Opcode> OpcodeFromName(std::string_view name);
bool OpcodeNeedsTenant(Opcode op);

/// Per-tenant configuration carried by kCreateTenant: sketch geometry plus
/// the PR-4 overflow policies as admission control. Zero depth/width means
/// "library default" (CountSketchParams defaults) so the wire carries no
/// magic geometry.
struct TenantSpec {
  uint64_t depth = 0;   ///< sketch rows; 0 = CountSketchParams default
  uint64_t width = 0;   ///< sketch columns; 0 = CountSketchParams default
  uint64_t seed = 1;    ///< hash seed; tenants with equal (geometry, seed) merge
  uint64_t threads = 2;               ///< ingest worker threads
  uint64_t batch_items = 1024;        ///< ingest sharding granularity
  uint64_t queue_batches = 64;        ///< in-flight bound (backpressure depth)
  uint64_t publish_every_batches = 1; ///< snapshot freshness cadence
  /// Admission control: 0 blocks producers indefinitely (loud overload);
  /// > 0 arms `policy` after this many milliseconds of queue-full.
  uint64_t push_timeout_ms = 0;
  OverflowPolicy policy = OverflowPolicy::kBlock;
  uint64_t sample_keep_one_in = 8;    ///< kSample keep rate
  uint64_t tracked = 64;              ///< top-k candidate slots (Space-Saving)

  /// Fixed-layout wire codec (11 u64 fields, enumerator order). Shared by
  /// the Request codec and the durable snapshot format so a spec always
  /// round-trips identically on the wire and on disk.
  void EncodeTo(ByteWriter& w) const;
  Status DecodeFrom(ByteReader& r);

  friend bool operator==(const TenantSpec&, const TenantSpec&) = default;
};

/// OverflowPolicy wire + name mapping (statsz, CLI flags).
uint64_t PolicyToWire(OverflowPolicy policy);
Result<OverflowPolicy> PolicyFromWire(uint64_t raw);
const char* PolicyName(OverflowPolicy policy);
Result<OverflowPolicy> PolicyFromName(std::string_view name);

/// Tenant names are `[A-Za-z0-9_.-]`, 1..64 bytes: safe to embed in statsz
/// JSON and file names without escaping.
bool ValidTenantName(std::string_view name);

/// One request frame. Every field is always encoded (fixed layout; the
/// per-opcode cost is dominated by `items` anyway), so decode is uniform
/// and the corruption matrix covers every opcode with one walk.
struct Request {
  Opcode op = Opcode::kPing;
  std::string tenant;          ///< empty for opcodes with needs_tenant=false
  TenantSpec spec;             ///< kCreateTenant
  uint64_t k = 0;              ///< kTopK / kMaxChange result size
  ItemId item = 0;             ///< kEstimate probe
  std::vector<ItemId> items;   ///< kIngest batch

  void EncodeTo(std::string* out) const;
  static Result<Request> Decode(std::string_view payload);

  friend bool operator==(const Request&, const Request&) = default;
};

/// One response frame. `code` is the StatusCode of the outcome; OK
/// responses carry the opcode-specific results (`value`, `entries`,
/// `blob`) plus the snapshot epoch that answered a query.
struct Response {
  uint64_t code = 0;               ///< StatusCode as wire integer
  std::string message;             ///< error detail; empty on OK
  uint64_t epoch = 0;              ///< snapshot epoch behind a query answer
  Count value = 0;                 ///< kEstimate result
  std::vector<ItemCount> entries;  ///< kTopK / kMaxChange results
  std::string blob;                ///< kExport sketch bytes / kStatsz JSON

  bool ok() const { return code == 0; }
  /// Reconstructs the Status the server reported.
  Status ToStatus() const;
  /// Builds an error (or empty-OK) response from a Status.
  static Response FromStatus(const Status& status);

  void EncodeTo(std::string* out) const;
  static Result<Response> Decode(std::string_view payload);

  friend bool operator==(const Response&, const Response&) = default;
};

}  // namespace streamfreq
