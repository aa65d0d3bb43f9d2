#include "concurrent/parallel_ingestor.h"

namespace streamfreq {

template class ParallelIngestor<CountSketch>;

}  // namespace streamfreq
