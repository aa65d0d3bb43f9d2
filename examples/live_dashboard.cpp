// Live monitoring scenario: "what is hot RIGHT NOW?"
//
// Contrasts two views of the same drifting stream:
//   * whole-stream Count-Sketch top-k (the paper's algorithm) — dominated
//     by stale history after the workload shifts;
//   * jumping-window sketch — hard cutoff at the last W items.
#include <cstdlib>
#include <iostream>

#include "core/count_sketch.h"
#include "core/top_k_tracker.h"
#include "core/windowed.h"
#include "hash/random.h"
#include "util/logging.h"
#include "util/table_printer.h"

using namespace streamfreq;

int main() {
  // Three epochs of 200k arrivals; each epoch has its own hot item (ids
  // 1001, 1002, 1003) at 10% of traffic over uniform noise.
  constexpr int kEpochs = 3;
  constexpr int kEpochLen = 200000;

  CountSketchParams base;
  base.depth = 5;
  base.width = 4096;
  base.seed = 77;
  auto whole_stream = CountSketchTopK::Make(base, 10);
  SFQ_CHECK_OK(whole_stream.status());

  WindowedSketchParams wparams;
  wparams.window = 100000;
  wparams.blocks = 8;
  wparams.sketch = base;
  auto windowed = WindowedCountSketch::Make(wparams);
  SFQ_CHECK_OK(windowed.status());

  Xoshiro256 rng(5);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const ItemId hot = 1001 + static_cast<ItemId>(epoch);
    for (int i = 0; i < kEpochLen; ++i) {
      const bool is_hot = rng.UniformDouble() < 0.10;
      const ItemId q =
          is_hot ? hot : (1u << 20) + static_cast<ItemId>(rng.UniformBelow(1u << 18));
      whole_stream->Add(q);
      windowed->Add(q);
    }
  }

  std::cout << "After " << kEpochs << " epochs (current hot item: 1003):\n\n";
  TablePrinter table({"item", "whole-stream est", "window est"});
  for (ItemId item : {1001u, 1002u, 1003u}) {
    table.AddRowValues(item, whole_stream->Estimate(item),
                       windowed->Estimate(item));
  }
  table.Print(std::cout);

  std::cout << "\nWhole-stream top-3 (stale by design):\n";
  for (const ItemCount& ic : whole_stream->Candidates(3)) {
    std::cout << "  item " << ic.item << " ~" << ic.count << "\n";
  }
  std::cout << "\nReading: the whole-stream sketch still reports all three "
               "epochs' heroes at similar counts; the window has fully "
               "forgotten items 1001-1002.\n";
  return EXIT_SUCCESS;
}
