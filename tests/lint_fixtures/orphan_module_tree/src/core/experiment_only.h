// Included only from bench/: an experiment driver does not keep a library
// module live.
// sfq-lint-expect: orphan-module
#pragma once

inline int ExperimentOnlyValue() { return 4; }
