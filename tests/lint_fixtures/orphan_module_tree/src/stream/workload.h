// Included only from bench/: a workload generator exists to feed the
// experiments, so the bench/ driver is its caller.
#pragma once

inline int WorkloadValue() { return 5; }
