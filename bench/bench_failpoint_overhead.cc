// Acceptance check for the failpoint layer's zero-overhead claim
// (docs/ROBUSTNESS.md).
//
// With STREAMFREQ_FAILPOINTS=ON (the default) a *disarmed* site must cost
// one relaxed atomic load — compare BM_DisarmedFailpoint against
// BM_FailpointFreeBaseline. With -DSTREAMFREQ_FAILPOINTS=OFF the macro
// expands to a constant `FailDecision{}` and the two benchmarks must be
// indistinguishable: scripts/check.sh builds this binary in the
// failpoints-off tree and runs it as the compile-out sanity check.
// BM_BatchQueueRoundTrip covers the realistic planting site: the
// producer/consumer hand-off in src/concurrent/batch_queue.cc.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "concurrent/batch_queue.h"
#include "stream/types.h"
#include "util/failpoint.h"

namespace streamfreq {
namespace {

void BM_FailpointFreeBaseline(benchmark::State& state) {
  for (auto _ : state) {
    FailDecision decision{};
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_FailpointFreeBaseline);

void BM_DisarmedFailpoint(benchmark::State& state) {
  FailpointRegistry::Global().Disarm();
  for (auto _ : state) {
    FailDecision decision = SFQ_FAILPOINT("batch_queue.push");
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_DisarmedFailpoint);

void BM_BatchQueueRoundTrip(benchmark::State& state) {
  FailpointRegistry::Global().Disarm();
  BatchQueue queue(/*max_batches=*/64);
  const std::vector<ItemId> batch(256, ItemId{7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.Reserve(1, std::nullopt));
    queue.Commit(std::vector<ItemId>(batch));
    auto out = queue.Pop();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BatchQueueRoundTrip);

}  // namespace
}  // namespace streamfreq

BENCHMARK_MAIN();
