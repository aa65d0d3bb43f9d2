#!/usr/bin/env bash
# Verification sweep.
#
#   scripts/check.sh --quick    lint + build + ctest + TSan concurrent
#                               re-check + STREAMFREQ_SIMD=OFF portable-
#                               path tests + 200-iteration chaos profile
#                               (incl. server failpoints, the 200-
#                               iteration kill-restart recovery campaign,
#                               and the 200-iteration merge-tree campaign)
#                               + server smoke
#   scripts/check.sh            the above, plus benchmarks, examples, an
#                               ASan/UBSan build running the full suite,
#                               a failpoints-compiled-out sanity build,
#                               and nightly-scale `sfq verify` + `sfq chaos`
#                               campaigns
#   scripts/check.sh --bench    build bench_throughput + bench_serve +
#                               bench_merge_tree, regenerate the ingest
#                               trajectory, the server latency/qps profile,
#                               and the merge-tree shipping profile, and
#                               gate them against the committed
#                               BENCH_throughput.json / BENCH_serve.json /
#                               BENCH_merge.json via tools/bench_gate.py
#                               (>15% regression fails; see
#                               docs/PERFORMANCE.md and docs/SERVER.md)
#
# Environment:
#   SFQ_FUZZ_SEED    master seed for the nightly fuzz campaign (default 42)
#   SFQ_FUZZ_ITERS   nightly fuzz iterations (default 2000; CI smoke is 200)
#   SFQ_CHAOS_SEED   master seed for the chaos campaigns (default 42)
#   SFQ_CHAOS_ITERS  nightly chaos iterations (default 2000; quick is 200)
#   SFQ_BENCH_BUDGET fractional throughput regression allowed by --bench
#                    (default 0.15)
#   SFQ_SERVE_BENCH_BUDGET  budget for the bench_serve gate (default 0.35;
#                    socket RPC latency is noisier than in-process kernels)
#   SFQ_MERGE_BENCH_BUDGET  budget for the bench_merge_tree gate
#                    (default 0.25)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
BENCH=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --bench) BENCH=1 ;;
    *) echo "usage: scripts/check.sh [--quick|--bench]" >&2; exit 2 ;;
  esac
done

# Prefer Ninja for speed, but fall back to the platform default generator
# when it is not installed. A build directory that is already configured
# keeps its generator: CMake refuses to switch one, so `-G` goes only to a
# directory without a CMakeCache.txt (say, `build/` made by a plain
# `cmake -B build -S .` stays on Unix Makefiles).
gen_for() {
  GEN=()
  if [[ ! -f "$1/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    GEN=(-G Ninja)
  fi
}

# Throughput regression gate: rerun the ingest-trajectory benchmarks and
# compare against the committed baseline. 5 repetitions, best-of (the
# reporter keeps each benchmark's fastest repetition — interference on a
# loaded box only slows runs down) keeps single-core noise from tripping
# the budget.
if [[ "$BENCH" -eq 1 ]]; then
  gen_for build
  cmake -B build "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release
  cmake --build build --target bench_throughput bench_serve bench_merge_tree
  out="$(mktemp /tmp/sfq_bench.XXXXXX.json)"
  serve_out="$(mktemp /tmp/sfq_bench_serve.XXXXXX.json)"
  merge_out="$(mktemp /tmp/sfq_bench_merge.XXXXXX.json)"
  trap 'rm -f "$out" "$serve_out" "$merge_out"' EXIT
  build/bench/bench_throughput \
    --benchmark_filter='BatchAddBackend|BM_Update' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 \
    --json "$out"
  python3 tools/bench_gate.py "$out" BENCH_throughput.json \
    --budget "${SFQ_BENCH_BUDGET:-0.15}"
  # The serve gate gets a wider default budget: request latency over a
  # unix socket is far more load-sensitive than the in-process kernels
  # (best-of-3 inside bench_serve absorbs most of it, but run-to-run
  # spread on a busy box still exceeds 15%).
  build/bench/bench_serve --json "$serve_out"
  python3 tools/bench_gate.py "$serve_out" BENCH_serve.json \
    --budget "${SFQ_SERVE_BENCH_BUDGET:-0.35}"
  # The merge-tree gate sits between the two: pure in-process compute,
  # but whole-fleet wall times are more scheduler-sensitive than a single
  # kernel loop.
  build/bench/bench_merge_tree --json "$merge_out"
  python3 tools/bench_gate.py "$merge_out" BENCH_merge.json \
    --budget "${SFQ_MERGE_BENCH_BUDGET:-0.25}"
  echo "check.sh --bench: OK"
  exit 0
fi

# Static analysis first: the cheapest signal, and sfq-lint needs no build.
# (clang-tidy inside lint.sh reuses build/compile_commands.json when a
# clang toolchain exists; see docs/STATIC_ANALYSIS.md.)
if [[ "$QUICK" -eq 1 ]]; then
  scripts/lint.sh --quick
else
  scripts/lint.sh
fi

gen_for build

cmake -B build "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release
cmake --build build
ctest --test-dir build --output-on-failure

# Race check: src/concurrent/ and the batch paths must stay TSan-clean.
# Separate build tree (TSan is ABI-incompatible with the normal build);
# benchmarks/examples are skipped — only the concurrent-labelled tests run.
gen_for build-tsan
cmake -B build-tsan "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTREAMFREQ_BUILD_BENCHMARKS=OFF \
  -DSTREAMFREQ_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build build-tsan --target parallel_ingestor_test batch_add_test \
  batch_queue_test failpoint_test chaos_test server_e2e_test \
  server_recovery_test
ctest --test-dir build-tsan -L concurrent --output-on-failure

# Portable-path check: STREAMFREQ_SIMD=OFF compiles out the SSE4.2 CRC-32C
# and forces the scalar batch-hash kernels, and the default build runs
# neither on an SSE4.2 machine. The CRC oracle, the frame codec with its
# three formats, the piecewise CRC of files written from counter memory
# (sketch_io_test) and the scalar/vector equivalence must hold there too.
# The merge tree ships each node's own counters and clears them, and its
# oracle holds every leaf's BatchAdd sketch to a scalar-kernel reference
# (dist_delta_test, dist_aggregate_test): with SIMD off that runs through
# the portable kernels.
SIMD_OFF_TESTS=(crc32_test dist_aggregate_test dist_delta_test frame_test
  server_protocol_test server_recovery_test simd_equivalence_test
  sketch_io_test)
gen_for build-simd-off
cmake -B build-simd-off "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSTREAMFREQ_SIMD=OFF \
  -DSTREAMFREQ_BUILD_BENCHMARKS=OFF \
  -DSTREAMFREQ_BUILD_EXAMPLES=OFF
cmake --build build-simd-off --target "${SIMD_OFF_TESTS[@]}"
ctest --test-dir build-simd-off --output-on-failure \
  -R "^($(IFS='|'; echo "${SIMD_OFF_TESTS[*]}"))\$"

# Server smoke: boot `sfq serve`, run one tenant through its lifecycle,
# check export bit-identity and clean errors (docs/SERVER.md).
scripts/serve_smoke.sh build/tools/sfq

# Chaos quick profile: seeded fuzz programs replayed under randomized
# failpoint schedules (docs/ROBUSTNESS.md). Every iteration must end in a
# clean error Status or a sketch passing its guarantee checker over the
# effective stream; a failure prints a replayable seed/schedule/program.
# --server folds the serve-path failpoints into the campaign.
# --server-restart SIGKILLs a real `sfq serve` daemon at armed crash
# points and asserts WAL+snapshot recovery (conservation ledger, ack
# durability, bit-identical sketches on loss-free runs; docs/SERVER.md).
# --tree drives the distributed merge tree under the dist.* schedule:
# clean error or a root bit-identical to the covered-prefix reference,
# composed conservation, exact dedup (docs/DISTRIBUTED.md).
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" --iters 200
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" --iters 40 --server true
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" --iters 200 \
  --server-restart true
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" --iters 200 --tree true

if [[ "$QUICK" -eq 1 ]]; then
  echo "check.sh --quick: OK"
  exit 0
fi

for b in build/bench/*; do "$b"; done
for e in build/examples/*; do "$e"; done

# Memory/UB check: the full test suite — including the fuzz and metamorphic
# tests — must stay clean under AddressSanitizer + UndefinedBehaviorSanitizer.
gen_for build-asan
cmake -B build-asan "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTREAMFREQ_BUILD_BENCHMARKS=OFF \
  -DSTREAMFREQ_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure

# Zero-overhead sanity: the whole tree must still compile with every
# SFQ_FAILPOINT site compiled out, and the overhead bench from that tree
# is the measurement backing the "free when disabled" claim. No ctest
# here — injection-dependent tests are meaningless without failpoints.
gen_for build-nofp
cmake -B build-nofp "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSTREAMFREQ_FAILPOINTS=OFF \
  -DSTREAMFREQ_BUILD_EXAMPLES=OFF
cmake --build build-nofp
build-nofp/bench/bench_failpoint_overhead

# Nightly-scale differential fuzz campaign: every guarantee checker over
# seeded workloads at the paper's Lemma 5 sizing. Zero violations expected;
# a failure prints a shrunk `sfq verify --program "..."` reproducer.
build/tools/sfq verify --seed="${SFQ_FUZZ_SEED:-42}" \
  --iters="${SFQ_FUZZ_ITERS:-2000}"

# Nightly chaos campaign: same contract as the quick profile, at scale.
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" \
  --iters "${SFQ_CHAOS_ITERS:-2000}"
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" \
  --iters "$(( ${SFQ_CHAOS_ITERS:-2000} / 10 ))" --server true
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" \
  --iters "$(( ${SFQ_CHAOS_ITERS:-2000} / 4 ))" --server-restart true
build/tools/sfq chaos --seed "${SFQ_CHAOS_SEED:-42}" \
  --iters "${SFQ_CHAOS_ITERS:-2000}" --tree true

echo "check.sh: OK"
