#include "core/used.h"

int UsedValue() { return 2; }
