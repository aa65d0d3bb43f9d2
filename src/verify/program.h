// Fuzz program grammar: one seeded, replayable verification workload.
//
// A FuzzProgram fully determines a verification run — the stream (kind +
// distribution parameters + seed), the guarantee parameters (k, epsilon),
// the sketch sizing knob (width_scale, 1.0 = the Lemma 5 proven setting;
// below 1.0 deliberately undersizes every sketch to demonstrate that the
// oracle catches broken contracts), and one metamorphic mutation describing
// HOW the stream is ingested. Programs round-trip through a single
// `key=value ...` text line so a failing run shrinks to a reproducer the
// user replays with `sfq verify --program "..."`.
//
// Mutations encode the metamorphic relations the library promises:
//   seq           item-at-a-time ingestion in stream order (the baseline)
//   permute       a seeded permutation of the stream — linear sketches must
//                 be bit-identical; counter summaries keep their guarantees
//                 (they are order-independent) but may change state
//   batch         BatchAdd over two uneven spans — exact for linear
//                 sketches, reorder-equivalent for counter summaries;
//                 exercises the SIMD-vectorized kernels (the default
//                 BatchAdd backend)
//   batch-scalar  BatchAddScalar over the same spans — the scalar
//                 reference kernels; with `batch` this differentially
//                 anchors the vectorized hot path inside `sfq verify`
//   split-merge   two halves ingested separately, then Merge — exact for
//                 linear sketches, guarantee-preserving for MG/SS
//   serialize-mid serialize + deserialize at the half-way point, then keep
//                 ingesting — must be invisible
//   parallel      the ParallelIngestor across 3 worker threads — exact by
//                 additivity (the paper's observation); count-sketch only,
//                 the one sketch the ingestor runs
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "stream/types.h"
#include "util/result.h"

namespace streamfreq {

/// Which generator materializes the stream.
enum class WorkloadKind : uint8_t { kZipf, kUniform, kFlows, kAdversarial };

/// How the stream is ingested (the metamorphic relation under test).
enum class Mutation : uint8_t {
  kSequential,
  kPermuted,
  kBatched,
  kSplitMerge,
  kSerializeMidStream,
  kParallel,
  kBatchedScalar,
};

inline constexpr size_t kMutationCount = 7;

/// One complete, deterministic verification workload.
struct FuzzProgram {
  WorkloadKind kind = WorkloadKind::kZipf;
  uint64_t n = 20000;        ///< stream length
  uint64_t universe = 4096;  ///< m (zipf/uniform)
  double z = 1.1;            ///< zipf skew
  double alpha = 1.2;        ///< pareto shape (flows)
  size_t k = 10;             ///< top-k target of the guarantees
  double epsilon = 0.2;      ///< ApproxTop slack
  double width_scale = 1.0;  ///< sketch width multiplier vs Lemma 5
  Mutation mutation = Mutation::kSequential;
  uint64_t seed = 1;         ///< seeds generator, shuffles, and hashes
};

/// Stable names used by the text form ("zipf", "permute", ...).
const char* WorkloadKindName(WorkloadKind kind);
const char* MutationName(Mutation m);

/// Renders the replayable one-line text form. Doubles use max precision so
/// Format -> Parse -> Format is a fixed point.
std::string FormatProgram(const FuzzProgram& program);

/// Parses a line produced by FormatProgram (order-insensitive key=value
/// tokens). Unknown keys and malformed values are InvalidArgument.
Result<FuzzProgram> ParseProgram(const std::string& text);

/// Materializes the program's stream deterministically.
Result<Stream> MaterializeStream(const FuzzProgram& program);

/// The `index`-th program of the seeded fuzz sequence for `master_seed`:
/// a deterministic mix of workload kinds, sizes, skews, guarantee
/// parameters, and mutations. width_scale is left at 1.0 — the driver
/// applies its own override.
FuzzProgram ProgramFromSeed(uint64_t master_seed, uint64_t index);

}  // namespace streamfreq
