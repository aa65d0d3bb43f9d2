// An experiment driver is a caller of the stream layer only.
#include "core/experiment_only.h"
#include "stream/workload.h"

int main() { return ExperimentOnlyValue() + WorkloadValue() == 9 ? 0 : 1; }
