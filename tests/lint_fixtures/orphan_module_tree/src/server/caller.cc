#include "core/used.h"
// A commented-out include is not a caller:
// #include "core/orphan.h"
/* #include "core/orphan.h" */

int CallerValue() { return UsedValue(); }
