// Included only from sfq_bench/: the benchmark is a caller.
#pragma once

inline int BenchOnlyValue() { return 3; }
