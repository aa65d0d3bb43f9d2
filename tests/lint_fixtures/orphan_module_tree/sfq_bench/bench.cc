#include "core/bench_only.h"

int main() { return BenchOnlyValue() == 3 ? 0 : 1; }
